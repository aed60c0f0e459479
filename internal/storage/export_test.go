package storage

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
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

// scoreBounds is segmentBounds with an un-indexed batch folded in under the
// same statistics: the whole collection's bounds, which
// TestSkylineBoundsMatchScan compares with a fold over every posting.
func (st *RunningStats) scoreBounds(batch *corpus.Collection) (bounds, error) {
	b, err := st.segmentBounds()
	if err != nil {
		return b, err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	if b.ok {
		lo, hi = b.lo, b.hi
	}
	for termID, list := range batch.Postings {
		if len(list) == 0 {
			continue
		}
		idf := st.params.IDF(float64(st.df[st.slot[batch.TermStrings[termID]]]))
		for _, p := range list {
			foldBounds(st.params.WeightIDF(idf, float64(p.TF), float64(batch.DocLens[p.DocID])), &lo, &hi)
		}
	}
	if lo > hi {
		return bounds{}, nil
	}
	return bounds{true, lo, hi}, nil
}

// setChunkHook installs fn as chunkHook, the failure-injection point every
// chunk a FileStore writer (or WriteFileAtomic) appends goes through; nil
// clears it.
func setChunkHook(fn func(file string, off int64) error) {
	if fn == nil {
		chunkHook.Store(nil)
		return
	}
	chunkHook.Store(&fn)
}
