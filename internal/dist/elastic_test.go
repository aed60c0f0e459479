package dist

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/ir"
)

// TestStartClusterReshapesMatchCentralized: a StartCluster cluster serves
// directories it owns, so every elastic step works on it — add a replica,
// kill and revive one, retire one, merge two partitions — and after each
// step BM25, BM25TCM and BM25TCMQ8 still merge to exactly the centralized
// ranking (the merge keeps the collection-wide statistics the partitions
// were built with). Close removes the directory the cluster built.
func TestStartClusterReshapesMatchCentralized(t *testing.T) {
	c := testCollection(t)
	central, err := ir.Build(c, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := ir.NewSearcher(central, 0)
	cl, err := StartCluster(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	ctx := context.Background()
	queries := c.PrecisionQueries(40, 3)

	check := func(step string) {
		t.Helper()
		for _, strat := range []ir.Strategy{ir.BM25, ir.BM25TCM, ir.BM25TCMQ8} {
			for _, q := range queries {
				want, _, err := s.Search(q.Terms, 20, strat)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := brk.Search(q.Terms, 20, strat)
				if err != nil {
					t.Fatalf("%s: %v query %v: %v", step, strat, q.Terms, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %v query %v: %d results, want %d", step, strat, q.Terms, len(got), len(want))
				}
				for i := range want {
					if got[i].DocID != want[i].DocID || got[i].Score != want[i].Score {
						t.Fatalf("%s: %v query %v rank %d: got (%d, %v), want (%d, %v)", step, strat, q.Terms, i,
							got[i].DocID, got[i].Score, want[i].DocID, want[i].Score)
					}
				}
			}
		}
	}

	check("start")
	for _, step := range []struct {
		name string
		op   func() error
	}{
		{"AddReplica", func() error { return cl.AddReplica(ctx, 1, "", brk) }},
		{"KillReplica+ReviveReplica", func() error {
			if err := cl.KillReplica(1, 0); err != nil {
				return err
			}
			return cl.ReviveReplica(1, 0)
		}},
		{"RetireReplica", func() error { return cl.RetireReplica(ctx, 1, 1, brk) }},
		{"MergePartitions", func() error { return cl.MergePartitions(ctx, 0, brk) }},
	} {
		if err := step.op(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		check(step.name)
	}
	if n := cl.Partitions(); n != 2 {
		t.Errorf("%d partitions after the merge, want 2", n)
	}

	layout, err := cl.Layout()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(layout[0].Replicas[0].Dir)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(root); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("cluster directory %s after Close: %v, want it removed", root, err)
	}
}

// TestWarmAllDuringAddReplica runs WarmAll while AddReplica grows the
// cluster; under -race it pins that WarmAll walks a snapshot of the slot
// table instead of reading it while a reshape rewrites it.
func TestWarmAllDuringAddReplica(t *testing.T) {
	c := testCollection(t)
	dirs, err := BuildLivePartitions(c, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartClusterFromDirs(dirs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := c.EfficiencyQueries(4, 3)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := cl.WarmAll(ir.BM25TCMQ8, queries, 10); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 2; i++ {
		if err := cl.AddReplica(context.Background(), 0, ""); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if n := cl.GroupSize(0); n != 3 {
		t.Errorf("partition 0 has %d replicas, want 3", n)
	}
	if err := cl.WarmAll(ir.BM25TCMQ8, queries, 10); err != nil {
		t.Fatal(err)
	}
}
