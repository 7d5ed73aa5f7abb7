package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sccsim/internal/serve"
)

func runCLI(t *testing.T, args ...string) (code int, errOut string) {
	t.Helper()
	var outBuf, errBuf bytes.Buffer
	stdout, stderr = &outBuf, &errBuf
	defer func() { stdout, stderr = nil, nil }()
	return cli(args), errBuf.String()
}

func writePkg(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestUndocumentedIdentifiersFail: a package missing its package comment
// and doc comments on exported identifiers is reported, one problem per
// identifier, with a non-zero exit.
func TestUndocumentedIdentifiersFail(t *testing.T) {
	dir := writePkg(t, `package p

const Exported = 1

var V int

func F() {}

type T struct{}

func (T) M() {}

// documented is unexported and undocumented identifiers that are
// unexported stay out of the report.
func hidden() {}
`)
	code, errOut := runCLI(t, dir)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, errOut)
	}
	for _, want := range []string{
		"package p has no package comment",
		"exported const Exported",
		"exported var V",
		"exported func F",
		"exported type T",
		"exported method T.M",
	} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut)
		}
	}
	if strings.Contains(errOut, "hidden") {
		t.Errorf("unexported func reported:\n%s", errOut)
	}
}

// TestDocumentedPackagePasses: full doc coverage exits zero with no
// output.
func TestDocumentedPackagePasses(t *testing.T) {
	dir := writePkg(t, `// Package p is documented.
package p

// Exported is documented.
const Exported = 1

// F is documented.
func F() {}

// T is documented.
type T struct{}

// M is documented.
func (T) M() {}
`)
	code, errOut := runCLI(t, dir)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, errOut)
	}
	if errOut != "" {
		t.Errorf("unexpected output:\n%s", errOut)
	}
}

// documentedFields renders every request field as a code span, the
// form -api looks for.
func documentedFields() string {
	var b strings.Builder
	for _, f := range requestFields() {
		b.WriteString("`" + f + "`\n")
	}
	return b.String()
}

// TestAPIDocRouteCoverage: -api fails when a registered route is
// missing from the document and passes when all are present.
func TestAPIDocRouteCoverage(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.md")
	if err := os.WriteFile(full, []byte(strings.Join(serve.Routes(), "\n")+"\n"+documentedFields()), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, errOut := runCLI(t, "-api", full); code != 0 {
		t.Errorf("complete API doc: exit %d, stderr:\n%s", code, errOut)
	}

	partial := filepath.Join(dir, "partial.md")
	routes := serve.Routes()
	if err := os.WriteFile(partial, []byte(strings.Join(routes[:len(routes)-1], "\n")+"\n"+documentedFields()), 0o644); err != nil {
		t.Fatal(err)
	}
	code, errOut := runCLI(t, "-api", partial)
	if code != 1 {
		t.Errorf("incomplete API doc: exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "is not documented") {
		t.Errorf("stderr missing the undocumented-route problem:\n%s", errOut)
	}
}

// TestAPIDocStaleRoute: -api fails when a section heading names a
// route the server does not register — a deleted route whose docs
// stayed behind — and accepts headings for the registered ones.
func TestAPIDocStaleRoute(t *testing.T) {
	var doc strings.Builder
	for _, r := range serve.Routes() {
		doc.WriteString("## " + r + "\n\n")
	}
	doc.WriteString(documentedFields())
	path := filepath.Join(t.TempDir(), "api.md")
	if err := os.WriteFile(path, []byte(doc.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, errOut := runCLI(t, "-api", path); code != 0 {
		t.Errorf("headings for registered routes: exit %d, stderr:\n%s", code, errOut)
	}

	doc.WriteString("\n### DELETE /v1/sweep/{id}\n\nCancels a job.\n")
	if err := os.WriteFile(path, []byte(doc.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	code, errOut := runCLI(t, "-api", path)
	if code != 1 || !strings.Contains(errOut, `documented route "DELETE /v1/sweep/{id}" is not registered`) {
		t.Errorf("stale route heading: exit %d, stderr:\n%s", code, errOut)
	}
}

// TestAPIDocFieldCoverage: -api fails when a field of a request body,
// of scale_spec or of sim is missing from the document, naming it. The
// field list comes from the wire types, so it covers every route's
// body, including fields only one route takes.
func TestAPIDocFieldCoverage(t *testing.T) {
	fields := requestFields()
	for _, want := range []string{"workload", "wait", "procs_per_cluster", "search", "multiprog_refs", "warmup_refs", "verify"} {
		found := false
		for _, f := range fields {
			found = found || f == want
		}
		if !found {
			t.Errorf("request field %q missing from the reflected list %v", want, fields)
		}
	}
	routes := strings.Join(serve.Routes(), "\n")
	doc := filepath.Join(t.TempDir(), "api.md")
	for _, missing := range []string{"scc_bytes", "cholesky_grid_h", "bus_occupancy"} {
		body := strings.Replace(documentedFields(), "`"+missing+"`\n", "", 1)
		if err := os.WriteFile(doc, []byte(routes+"\n"+body+missing), 0o644); err != nil {
			t.Fatal(err)
		}
		code, errOut := runCLI(t, "-api", doc)
		if code != 1 || !strings.Contains(errOut, `request field "`+missing+`" is not documented`) {
			t.Errorf("doc without `%s`: exit %d, stderr:\n%s", missing, code, errOut)
		}
	}
}

// TestRealPackagesPass runs the checker over the packages `make
// docs-check` gates, so a doc regression fails here before it fails in
// CI.
func TestRealPackagesPass(t *testing.T) {
	code, errOut := runCLI(t, "-api", "../../docs/API.md", "../..", "../../internal/serve")
	if code != 0 {
		t.Errorf("docs-check over the facade and serve failed:\n%s", errOut)
	}
}

// TestDeprecatedNeedsReplacementPointer: a "Deprecated:" notice without
// a "use ..." replacement pointer is a problem; one with the pointer
// passes. The rule covers funcs, types, methods and values alike.
func TestDeprecatedNeedsReplacementPointer(t *testing.T) {
	dir := writePkg(t, `// Package p is documented.
package p

// F is old.
//
// Deprecated: F is going away.
func F() {}

// G is old.
//
// Deprecated: use H instead.
func G() {}

// H is documented.
func H() {}

// T is old.
//
// Deprecated: gone.
type T struct{}

// M is documented.
//
// Deprecated: use H.
func (T) M() {}

// C is old.
//
// Deprecated: obsolete.
const C = 1
`)
	code, errOut := runCLI(t, dir)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, errOut)
	}
	for _, want := range []string{
		"exported func F is deprecated without a replacement pointer",
		"exported type T is deprecated without a replacement pointer",
		"exported const C is deprecated without a replacement pointer",
	} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut)
		}
	}
	for _, clean := range []string{"func G", "method T.M"} {
		if strings.Contains(errOut, clean) {
			t.Errorf("%s has a replacement pointer but was reported:\n%s", clean, errOut)
		}
	}
}

// TestDesignDocCheck: the design-space guide must name every With*
// option of the facade among the DIRs (the package declaring Opt) and
// every Axes axis; a doc missing one fails with a problem naming it,
// -design without the facade is a usage error, and the repository's
// real guide passes.
func TestDesignDocCheck(t *testing.T) {
	facade := writePkg(t, `// Package p is a facade.
package p

// Opt configures a run.
type Opt func()

// WithA is an option.
func WithA() Opt { return nil }

// WithB is an option added later.
func WithB() Opt { return nil }
`)
	const axes = " line_bytes assoc repl hierarchy l1_bytes"
	dir := t.TempDir()
	for _, tc := range []struct{ doc, missing string }{
		{"WithA" + axes, "WithB"},
		{"WithA WithB line_bytes assoc repl hierarchy", "l1_bytes"},
		{"WithA WithB" + axes, ""},
	} {
		path := filepath.Join(dir, "design.md")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		code, errOut := runCLI(t, "-design", path, facade)
		switch {
		case tc.missing == "" && code != 0:
			t.Errorf("complete doc: exit %d, stderr:\n%s", code, errOut)
		case tc.missing != "" && (code != 1 || !strings.Contains(errOut, `"`+tc.missing+`" is not documented`)):
			t.Errorf("doc without %s: exit %d, stderr:\n%s", tc.missing, code, errOut)
		}
	}
	if code, errOut := runCLI(t, "-design", filepath.Join(dir, "design.md")); code != 2 {
		t.Errorf("-design without the facade: exit %d, want 2; stderr:\n%s", code, errOut)
	}
	if code, errOut := runCLI(t, "-design", "../../docs/DESIGN-SPACE.md", "../.."); code != 0 {
		t.Errorf("the real design-space guide: exit %d, stderr:\n%s", code, errOut)
	}
}

// TestLinkCheck: relative markdown links must resolve; external URLs
// and in-page anchors are ignored.
func TestLinkCheck(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "other.md"), []byte("target"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(dir, "doc.md")
	body := "[ok](other.md) [anchor](other.md#sec) [self](#here) [web](https://example.com/x) [gone](missing.md)"
	if err := os.WriteFile(doc, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	code, errOut := runCLI(t, "-links", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, `broken relative link "missing.md"`) {
		t.Errorf("missing.md not reported:\n%s", errOut)
	}
	if strings.Contains(errOut, "other.md") || strings.Contains(errOut, "example.com") {
		t.Errorf("false positive reported:\n%s", errOut)
	}
}
