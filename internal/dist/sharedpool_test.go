package dist

import (
	"testing"

	"repro/internal/ir"
)

// TestSharedPoolMatchesCentralized pins the cross-server buffer pool's
// aliasing safety: co-located partition servers draining ONE shared
// manager — under a budget small enough to force cross-partition eviction
// churn — must still merge to exactly the centralized ranking. This is the
// hazard case by construction: every partition directory allocates
// "seg-000001" (chunk keys and all), whether it holds one segment or
// several; without per-slot cache namespaces, partition 2's cached chunk
// would satisfy partition 0's read.
// Replicas are in play too (same-dir replicas share a namespace, so they
// share cached chunks).
func TestSharedPoolMatchesCentralized(t *testing.T) {
	c := testCollection(t)
	central, err := ir.Build(c, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := ir.NewSearcher(central, 0)

	arms := map[string]func(t *testing.T) []string{
		"one-segment": func(t *testing.T) []string {
			dirs, err := BuildPartitions(c, 3, ir.DefaultBuildConfig(), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return dirs
		},
		"two-segment": func(t *testing.T) []string {
			dirs, err := BuildSegmentedPartitions(c, 3, 2, ir.DefaultBuildConfig(), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return dirs
		},
	}
	for name, build := range arms {
		t.Run(name, func(t *testing.T) {
			cl, err := StartClusterFromDirs(build(t), 32<<20,
				WithReplicas(2),
				WithSharedPool(256<<10)) // tight: partitions evict each other
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			pool := cl.SharedPool()
			if pool == nil {
				t.Fatal("WithSharedPool left no shared manager")
			}
			brk, err := DialGroups(cl.Groups)
			if err != nil {
				t.Fatal(err)
			}
			defer brk.Close()

			for _, q := range c.PrecisionQueries(5, 17) {
				for _, strat := range []ir.Strategy{ir.BM25TC, ir.BM25TCMQ8} {
					want, _, err := s.Search(q.Terms, 10, strat)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := brk.Search(q.Terms, 10, strat)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%v query %v: got %d results, want %d", strat, q.Terms, len(got), len(want))
					}
					for i := range want {
						if got[i].DocID != want[i].DocID || got[i].Name != want[i].Name {
							t.Errorf("%v query %v rank %d: %v != centralized %v", strat, q.Terms, i, got[i], want[i])
						}
						if diff := got[i].Score - want[i].Score; diff > 1e-9 || diff < -1e-9 {
							t.Errorf("%v query %v rank %d: score %v != centralized %v",
								strat, q.Terms, i, got[i].Score, want[i].Score)
						}
					}
				}
			}

			st := pool.Stats()
			if st.Used == 0 {
				t.Error("queries across 6 replicas left the shared pool empty")
			}
			if st.Used > 256<<10 {
				t.Errorf("shared pool over budget: %+v", st)
			}
		})
	}
}
