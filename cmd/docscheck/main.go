// Command docscheck enforces the repository's documentation contract:
// every listed package must carry a package comment and a doc comment
// on each exported top-level identifier (consts, vars, funcs, types and
// their exported methods), every "Deprecated:" notice must point at the
// replacement ("Deprecated: use X instead" — a deprecation that leaves
// the reader stranded is a problem), docs/API.md must mention every
// HTTP route the serve package registers, head no section with a route
// it does not register, and mention every JSON field of its request
// bodies (the three POST bodies, ScaleSpec and SimSpec), the
// design-space guide must name every With* option of the facade and
// every architecture axis (so a new option or sweep axis cannot ship
// undocumented), and relative markdown links must resolve to files that
// exist.
//
// Usage:
//
//	docscheck [-api docs/API.md] [-design docs/DESIGN-SPACE.md] [-links README.md,docs] DIR...
//
// Each DIR is parsed as one Go package (test files excluded). Problems
// are listed one per line on stderr and the exit code is non-zero when
// any are found, so `make docs-check` and CI fail loudly. The source
// checks are purely static; -design takes the option names from the
// parsed facade (the DIR whose package declares Opt: its exported With*
// constructors), and -api and -design reflect over the request bodies
// and the library's Axes type, so the name lists can never drift from
// the code.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"

	"sccsim"
	"sccsim/internal/serve"
)

// stdout is unused (docscheck emits data nowhere); stderr receives the
// problem list. Tests swap them.
var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

func main() {
	os.Exit(cli(os.Args[1:]))
}

// cli parses args, runs every check, and returns the exit code.
func cli(args []string) int {
	fs := flag.NewFlagSet("docscheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	apiDoc := fs.String("api", "", "markdown file that must mention every serve route and request field")
	designDoc := fs.String("design", "", "markdown file that must name every With* option of the facade (which must be among the DIRs) and every Axes axis")
	links := fs.String("links", "", "comma-separated markdown files/directories whose relative links must resolve")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var problems, options []string
	for _, dir := range fs.Args() {
		ps, opts, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(stderr, "docscheck: %v\n", err)
			return 2
		}
		problems = append(problems, ps...)
		options = append(options, opts...)
	}
	if *apiDoc != "" {
		ps, err := checkAPIDoc(*apiDoc, serve.Routes(), requestFields())
		if err != nil {
			fmt.Fprintf(stderr, "docscheck: %v\n", err)
			return 2
		}
		problems = append(problems, ps...)
	}
	if *designDoc != "" {
		if len(options) == 0 {
			fmt.Fprintln(stderr, "docscheck: -design needs the facade (the package declaring Opt and its With* options) among the DIRs")
			return 2
		}
		ps, err := checkDesignDoc(*designDoc, options)
		if err != nil {
			fmt.Fprintf(stderr, "docscheck: %v\n", err)
			return 2
		}
		problems = append(problems, ps...)
	}
	if *links != "" {
		ps, err := checkLinks(strings.Split(*links, ","))
		if err != nil {
			fmt.Fprintf(stderr, "docscheck: %v\n", err)
			return 2
		}
		problems = append(problems, ps...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(stderr, p)
		}
		fmt.Fprintf(stderr, "docscheck: %d problem(s)\n", len(problems))
		return 1
	}
	return 0
}

// checkDir parses the package in dir and returns one problem string per
// undocumented exported identifier, and the names of the package's
// options: the exported functions that return its type Opt (the
// facade's With* options).
func checkDir(dir string) (problems, options []string, err error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, nil, err
	}
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		d := doc.New(pkg, dir, 0)
		add := func(format string, a ...any) {
			problems = append(problems, dir+": "+fmt.Sprintf(format, a...))
		}
		if strings.TrimSpace(d.Doc) == "" {
			add("package %s has no package comment", name)
		}
		values := func(kind string, vs []*doc.Value) {
			for _, v := range vs {
				for _, n := range v.Names {
					if !ast.IsExported(n) {
						continue
					}
					if strings.TrimSpace(v.Doc) == "" {
						add("exported %s %s has no doc comment", kind, n)
					} else if deprecatedWithoutPointer(v.Doc) {
						add("exported %s %s is deprecated without a replacement pointer (want \"Deprecated: use ...\")", kind, n)
					}
				}
			}
		}
		funcs := func(prefix string, fns []*doc.Func) {
			for _, f := range fns {
				if !ast.IsExported(f.Name) {
					continue
				}
				if strings.TrimSpace(f.Doc) == "" {
					add("exported func %s%s has no doc comment", prefix, f.Name)
				} else if deprecatedWithoutPointer(f.Doc) {
					add("exported func %s%s is deprecated without a replacement pointer (want \"Deprecated: use ...\")", prefix, f.Name)
				}
			}
		}
		values("const", d.Consts)
		values("var", d.Vars)
		funcs("", d.Funcs)
		for _, t := range d.Types {
			if ast.IsExported(t.Name) {
				if strings.TrimSpace(t.Doc) == "" {
					add("exported type %s has no doc comment", t.Name)
				} else if deprecatedWithoutPointer(t.Doc) {
					add("exported type %s is deprecated without a replacement pointer (want \"Deprecated: use ...\")", t.Name)
				}
			}
			values("const", t.Consts)
			values("var", t.Vars)
			funcs("", t.Funcs)
			if t.Name == "Opt" {
				for _, f := range t.Funcs {
					options = append(options, f.Name)
				}
			}
			var methodPrefix = t.Name + "."
			for _, m := range t.Methods {
				if !ast.IsExported(m.Name) {
					continue
				}
				if strings.TrimSpace(m.Doc) == "" {
					add("exported method %s%s has no doc comment", methodPrefix, m.Name)
				} else if deprecatedWithoutPointer(m.Doc) {
					add("exported method %s%s is deprecated without a replacement pointer (want \"Deprecated: use ...\")", methodPrefix, m.Name)
				}
			}
		}
	}
	return problems, options, nil
}

// deprecatedWithoutPointer reports whether a doc comment carries a
// "Deprecated:" notice that never tells the reader what to use instead.
// The convention (and what godoc renders specially) is a paragraph
// starting "Deprecated:"; the replacement pointer is any "use ..."
// phrase after it.
func deprecatedWithoutPointer(docText string) bool {
	idx := strings.Index(docText, "Deprecated:")
	if idx < 0 {
		return false
	}
	return !strings.Contains(strings.ToLower(docText[idx:]), "use ")
}

// jsonNames returns the JSON names of the fields of each struct type
// (the Go field name when a field has no tag), in order, skipping
// names already listed.
func jsonNames(types ...reflect.Type) []string {
	var names []string
	seen := map[string]bool{}
	for _, t := range types {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name := f.Name
			if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag != "" && tag != "-" {
				name = tag
			}
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	return names
}

// requestFields lists the JSON fields a request body can carry: those
// of the three POST bodies and of the scale_spec and sim objects.
// Reflection keeps the list in lockstep with the wire types: a field
// added to a body without documenting it fails `make docs-check`.
func requestFields() []string {
	return jsonNames(reflect.TypeOf(serve.SweepRequest{}), reflect.TypeOf(serve.PointRequest{}),
		reflect.TypeOf(serve.SearchRequest{}), reflect.TypeOf(serve.ScaleSpec{}), reflect.TypeOf(serve.SimSpec{}))
}

// checkDesignDoc verifies the design-space guide names every option
// (the facade's With* functions, as checkDir found them) and every
// architecture axis of sccsim.Axes (its wire tags, by reflection):
// adding either without documenting it fails `make docs-check`.
func checkDesignDoc(path string, options []string) ([]string, error) {
	content, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, name := range append(options, jsonNames(reflect.TypeOf(sccsim.Axes{}))...) {
		if !strings.Contains(string(content), name) {
			problems = append(problems, fmt.Sprintf("%s: design-space option/axis %q is not documented", path, name))
		}
	}
	return problems, nil
}

// mdLink matches inline markdown links; the destination is group 1.
// Reference-style links and autolinks are out of scope — the repo's
// docs use inline links only.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkLinks verifies that every relative link in the given markdown
// files (directories contribute their *.md entries, non-recursive)
// resolves to an existing file or directory. External URLs and pure
// in-page anchors are skipped; a relative target's #fragment is
// stripped before the existence check.
func checkLinks(targets []string) ([]string, error) {
	var files []string
	for _, t := range targets {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		info, err := os.Stat(t)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, t)
			continue
		}
		md, err := filepath.Glob(filepath.Join(t, "*.md"))
		if err != nil {
			return nil, err
		}
		files = append(files, md...)
	}
	var problems []string
	for _, f := range files {
		content, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(content), -1) {
			dest := m[1]
			if strings.Contains(dest, "://") || strings.HasPrefix(dest, "#") ||
				strings.HasPrefix(dest, "mailto:") {
				continue
			}
			dest, _, _ = strings.Cut(dest, "#")
			if dest == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(f), dest)); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken relative link %q", f, m[1]))
			}
		}
	}
	return problems, nil
}

// routeHeading matches a `##` or `###` heading that names one route,
// e.g. "### GET /v1/sweep/{id}".
var routeHeading = regexp.MustCompile(`(?m)^#{2,3} ((?:GET|POST|PUT|PATCH|DELETE) /\S*)[ \t]*$`)

// checkAPIDoc verifies every route pattern appears verbatim in the API
// document, every route heading names a registered route, and every
// request field appears as a `code` span.
func checkAPIDoc(path string, routes, fields []string) ([]string, error) {
	content, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, r := range routes {
		if !strings.Contains(string(content), r) {
			problems = append(problems, fmt.Sprintf("%s: route %q is not documented", path, r))
		}
	}
	for _, m := range routeHeading.FindAllStringSubmatch(string(content), -1) {
		if !slices.Contains(routes, m[1]) {
			problems = append(problems, fmt.Sprintf("%s: documented route %q is not registered", path, m[1]))
		}
	}
	for _, f := range fields {
		if !strings.Contains(string(content), "`"+f+"`") {
			problems = append(problems, fmt.Sprintf("%s: request field %q is not documented", path, f))
		}
	}
	return problems, nil
}
