package storage

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestMain runs every test of the package with engine.PoisonVectors on, so
// that the segmented equivalence tests — DocID and Score bit-exact against
// a monolithic build — run every plan on garbage-filled recycled vectors.
func TestMain(m *testing.M) {
	engine.PoisonVectors = true
	os.Exit(m.Run())
}

// Test-only views of the manifest memo, for the engine-level tests of
// package storage_test: they drive a repro.Engine, and repro imports this
// package, so they cannot live inside it.

// ManifestDecodes returns how many segment manifests have been decoded.
func ManifestDecodes() int64 { return manifestDecodes.Load() }

// MemoEntries returns how many memoized manifests belong to dir or to one
// of its segments.
func MemoEntries(dir string) int {
	dir = filepath.Clean(dir)
	memo.mu.Lock()
	defer memo.mu.Unlock()
	n := 0
	for segDir := range memo.entries {
		if segDir == dir || strings.HasPrefix(segDir, dir+string(os.PathSeparator)) {
			n++
		}
	}
	return n
}
