package serving

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/storage"
)

// countingStore counts Close calls on a generation's storage; reads fall
// through to the index's real store.
type countingStore struct {
	colbm.BlockStore
	closes   atomic.Int32
	closeErr error
}

func (s *countingStore) Close() error {
	s.closes.Add(1)
	return s.closeErr
}

// TestGenerationSwapProtocol races searchers, installs and Close over one
// core opened over an index directory: no search may run on a generation
// whose storage already closed, every installed snapshot's storage closes
// exactly once (whether it was superseded, drained by Close, or refused
// because Close won the race), and Close reports the first storage-close
// error.
func TestGenerationSwapProtocol(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs, cfg.Vocab, cfg.AvgDocLen, cfg.NumTopics = 400, 800, 40, 8
	coll := corpus.Generate(cfg)
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := storage.AppendSegment(dir, coll, nil); err != nil {
		t.Fatal(err)
	}
	base, err := ir.Build(coll, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	var stores []*countingStore
	newSnap := func(gen uint64, closeErr error) *ir.Snapshot {
		ix := *base
		st := &countingStore{BlockStore: base.Store, closeErr: closeErr}
		ix.Store = st
		stores = append(stores, st)
		snap, err := ir.NewSnapshot([]*ir.Index{&ix}, ir.SnapshotConfig{Gen: gen, Owned: true})
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	storeOf := func(g *Gen) *countingStore { return g.Snapshot().Primary().Store.(*countingStore) }

	core, err := OpenDir(dir, colbm.NewManager(0), Config{Searchers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The directory's own generation 1 drains as the first install
	// replaces it. Pin that install, generation 2, so it is still live when
	// Close starts: its close error must come back from Close, not vanish
	// with an early drain.
	errBoom := errors.New("boom")
	if err := core.Install(newSnap(2, errBoom), nil); err != nil {
		t.Fatal(err)
	}
	pinned, err := core.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	const installs = 40
	snaps := make([]*ir.Snapshot, installs)
	for i := range snaps {
		snaps[i] = newSnap(uint64(i+3), nil)
	}

	req := Request{Terms: coll.PrecisionQueries(1, 3)[0].Terms, K: 5}
	ctx := context.Background()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g, err := core.Acquire()
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("acquire: %v", err)
					}
					return
				}
				if _, err := g.Search(ctx, req); err != nil {
					t.Errorf("search on generation %d: %v", g.Snapshot().Gen(), err)
				}
				if n := storeOf(g).closes.Load(); n != 0 {
					t.Errorf("generation %d closed %d times under a live reference", g.Snapshot().Gen(), n)
				}
				g.Release()
			}
		}()
	}
	halfway := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, snap := range snaps {
			if i == installs/2 {
				close(halfway)
			}
			if err := core.Install(snap, nil); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("install %d: %v", i, err)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Let go of generation 2 only once Close has begun.
		for {
			g, err := core.Acquire()
			if err != nil {
				break
			}
			g.Release()
		}
		pinned.Release()
	}()
	<-halfway
	if err := core.Close(); !errors.Is(err, errBoom) {
		t.Errorf("Close returned %v, want the pinned generation's close error", err)
	}
	wg.Wait()
	for i, st := range stores {
		if n := st.closes.Load(); n != 1 {
			t.Errorf("generation %d: storage closed %d times, want exactly once", i+2, n)
		}
	}
	if err := core.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
