package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Store is the trace-cache contract the sweep engine consults before
// running a workload generator: Load returns the cached program for a
// key or (nil, nil) on a miss, Store persists one. A Store is an
// optimization layer, never a source of truth — implementations must
// treat corrupt or unreadable entries as misses, and Store failures cost
// only a later regeneration. DiskCache is the module's implementation.
type Store interface {
	// Load returns the cached program for key, or (nil, nil) on a miss.
	Load(key string) (*Program, error)
	// Store persists the program under key.
	Store(key string, p *Program) error
}

// DiskCache is a content-keyed on-disk store of trace programs in the
// io.go binary format, so repeated sweeps across processes skip trace
// generation entirely. Callers build the key from everything that
// determines a trace's content — workload, processor count, the full
// problem scale (seed included), and FormatVersion so a format change
// invalidates old entries instead of tripping the version check at load
// time. The key is an opaque string here; the file name is a sanitized
// prefix of it (for humans listing the directory) plus a SHA-256 digest
// (for uniqueness).
//
// The cache is safe for concurrent use within and across processes:
// stores write to a temporary file and rename it into place, so readers
// never see a partial entry, and a lost race just rewrites identical
// bytes.
type DiskCache struct {
	dir string
}

// NewDiskCache opens (creating if needed) a disk cache rooted at dir and
// verifies it is writable, so a bad -trace-cache path fails at startup
// rather than after the first expensive generation.
func NewDiskCache(dir string) (*DiskCache, error) {
	if dir == "" {
		return nil, errors.New("trace: empty disk-cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: disk cache: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("trace: disk cache %s not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return &DiskCache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *DiskCache) Dir() string { return c.dir }

// KeyDigest returns the cache's content hash of a key: the hex SHA-256
// digest of the key string. It is the same digest DiskCache embeds in
// its file names, exported so other layers (e.g. the HTTP service's
// request coalescing) can key on identical content the same way.
func KeyDigest(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// path maps a key to its file. The layout is content-addressed: the
// file name ends in the full hex SHA-256 digest of the key (KeyDigest),
// so every process sharing the directory writes the same name for the
// same key. The sanitized prefix exists so `ls` on the cache directory
// is readable.
func (c *DiskCache) path(key string) string {
	prefix := make([]byte, 0, 40)
	for i := 0; i < len(key) && len(prefix) < 40; i++ {
		b := key[i]
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9',
			b == '.', b == '_', b == '-':
			prefix = append(prefix, b)
		default:
			prefix = append(prefix, '-')
		}
	}
	return filepath.Join(c.dir, string(prefix)+"-"+KeyDigest(key)+".scct")
}

// Load returns the cached program for key, or (nil, nil) on a miss. A
// corrupt, truncated, or unreadable entry is a miss too — the cache is
// an optimization, never a source of errors — and the bad file is
// removed so the next Store replaces it.
func (c *DiskCache) Load(key string) (*Program, error) {
	path := c.path(key)
	f, err := os.Open(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			os.Remove(path)
		}
		return nil, nil
	}
	defer f.Close()
	p, err := ReadProgram(f)
	if err != nil {
		os.Remove(path)
		return nil, nil
	}
	return p, nil
}

// Store writes the program under key atomically (temp file + rename).
// Entries are content-keyed, so two stores of one key always carry
// identical bytes: when the entry already exists — another goroutine,
// process, or node sharing the volume won the temp+rename race — the
// second store is a no-op win, not a rewrite, and a rename that fails
// only because the winner's entry landed first still reports success.
func (c *DiskCache) Store(key string, p *Program) error {
	path := c.path(key)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("trace: disk cache store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := p.EncodeTo(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("trace: disk cache store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("trace: disk cache store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		if _, serr := os.Stat(path); serr == nil {
			return nil
		}
		return fmt.Errorf("trace: disk cache store: %w", err)
	}
	return nil
}
