package dist

import (
	"testing"

	"repro/internal/ir"
)

// TestTightPoolClusterMatchesCentralized runs replicated partition servers
// whose private buffer managers are far smaller than their partitions, so
// every server evicts chunks while it answers, and requires the broker's
// merge to equal the centralized ranking exactly. Every partition directory
// allocates "seg-000001" (chunk keys and all), whether it holds one segment
// or several; each replica serves its own copy of the directory, with the
// same segment names and so identical keys too.
func TestTightPoolClusterMatchesCentralized(t *testing.T) {
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
	const pool = 64 << 10 // per replica: about a third of what one replica touches
	for name, build := range arms {
		t.Run(name, func(t *testing.T) {
			cl, err := StartClusterFromDirs(build(t), pool, WithReplicas(2))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			brk, err := cl.NewBroker()
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
					// Every replica answers each query once, so every
					// server's manager sees the whole workload.
					for r := 0; r < cl.Replicas(); r++ {
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
			}

			for i, srv := range cl.servers() {
				st := srv.Metrics().Storage
				if st.Evictions == 0 {
					t.Errorf("server %d never evicted under a %d-byte pool: %+v", i, pool, st)
				}
				if st.Used > pool {
					t.Errorf("server %d over its budget: %+v", i, st)
				}
			}
		})
	}
}
