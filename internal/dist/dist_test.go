package dist

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/ir"
)

func testCollection(t *testing.T) *corpus.Collection {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 3000
	cfg.Vocab = 4000
	cfg.AvgDocLen = 90
	cfg.NumTopics = 25
	return corpus.Generate(cfg)
}

// TestDistributedMatchesCentralized is the §3.4 correctness property: with
// global statistics distributed to every partition build, the broker's
// merged top-k equals the single-node top-k.
func TestDistributedMatchesCentralized(t *testing.T) {
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

	for _, q := range c.PrecisionQueries(5, 11) {
		want, _, err := s.Search(q.Terms, 10, ir.BM25TCMQ8)
		if err != nil {
			t.Fatal(err)
		}
		got, timing, err := brk.Search(q.Terms, 10, ir.BM25TCMQ8)
		if err != nil {
			t.Fatal(err)
		}
		if len(timing.PerServer) != 3 {
			t.Fatalf("per-server timings: %d", len(timing.PerServer))
		}
		if len(got) != len(want) {
			t.Fatalf("query %v: got %d results, want %d", q.Terms, len(got), len(want))
		}
		for i := range want {
			if got[i].DocID != want[i].DocID {
				t.Errorf("query %v rank %d: docid %d != centralized %d",
					q.Terms, i, got[i].DocID, want[i].DocID)
			}
			if diff := got[i].Score - want[i].Score; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("query %v rank %d: score %v != centralized %v",
					q.Terms, i, got[i].Score, want[i].Score)
			}
			if got[i].Name == "" {
				t.Errorf("query %v rank %d: unresolved name", q.Terms, i)
			}
		}
	}
}

func TestRunStreamsAndSub(t *testing.T) {
	c := testCollection(t)
	cl, err := StartCluster(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := c.EfficiencyQueries(24, 3)
	if err := cl.WarmAll(ir.BM25TCMQ8, queries[:8], 10); err != nil {
		t.Fatal(err)
	}
	st, err := cl.RunStreams(queries, 3, 10, ir.BM25TCMQ8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != 24 || st.Streams != 3 {
		t.Errorf("run stats: %+v", st)
	}
	if st.Total <= 0 || st.Absolute <= 0 || st.Amortized <= 0 {
		t.Errorf("timings not recorded: %+v", st)
	}
	if st.MaxServer < st.MinServer {
		t.Errorf("server extremes inverted: %+v", st)
	}

	sub := cl.Sub(2)
	if got := sub.CurrentGroups(); len(got) != 2 {
		t.Fatalf("sub view: %v", got)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	// Sub views do not own the servers: the full cluster must still work.
	if _, err := cl.RunStreams(queries[:4], 1, 5, ir.BM25TCMQ8); err != nil {
		t.Fatalf("cluster dead after sub close: %v", err)
	}
}

// TestWireCarriesFullStats guards the wire protocol against dropping
// QueryStats fields: SecondPass and Candidates must survive the round trip
// through a live cluster (they used to be silently zeroed broker-side) and
// must aggregate into RunStats.
func TestWireCarriesFullStats(t *testing.T) {
	c := testCollection(t)
	cl, err := StartCluster(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	// A multi-term query at k beyond the partition sizes: the conjunctive
	// pass can never satisfy it, so every server reports a second pass.
	var q corpus.Query
	for _, cand := range c.EfficiencyQueries(50, 23) {
		if len(cand.Terms) >= 2 {
			q = cand
			break
		}
	}
	if len(q.Terms) < 2 {
		t.Fatal("no multi-term query in the fixture")
	}
	k := len(c.DocLens) + 1
	_, timing, err := brk.SearchContext(context.Background(), q.Terms, k, ir.BM25TCMQ8)
	if err != nil {
		t.Fatal(err)
	}
	if !timing.Stats.SecondPass {
		t.Error("SecondPass lost on the wire")
	}
	if timing.Stats.Candidates <= 0 {
		t.Error("Candidates lost on the wire")
	}
	if timing.Stats.Wall <= 0 {
		t.Error("per-server wall time not merged")
	}

	st, err := cl.RunStreams([]corpus.Query{q}, 1, k, ir.BM25TCMQ8)
	if err != nil {
		t.Fatal(err)
	}
	if st.SecondPass != 1 || st.Candidates <= 0 {
		t.Errorf("RunStats under-reports the wire stats: %+v", st)
	}
}

// TestBrokerSearchMany checks the pipelined batch path: one round trip per
// server must produce, per query, exactly the merged ranking the
// query-at-a-time path produces.
func TestBrokerSearchMany(t *testing.T) {
	c := testCollection(t)
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

	queries := c.EfficiencyQueries(12, 31)
	reqs := make([]Request, len(queries))
	for i, q := range queries {
		reqs[i] = Request{Terms: q.Terms, K: 10, Strategy: ir.BM25TCMQ8}
	}
	out, timing, err := brk.SearchMany(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(reqs) || len(timing.PerServer) != 3 {
		t.Fatalf("batch shape: %d results, %d server timings", len(out), len(timing.PerServer))
	}
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		want, _, err := brk.Search(queries[i].Terms, 10, ir.BM25TCMQ8)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Results) != len(want) {
			t.Fatalf("query %d: %d batched results, %d sequential", i, len(r.Results), len(want))
		}
		for j := range want {
			if r.Results[j].DocID != want[j].DocID {
				t.Errorf("query %d rank %d: %d != %d", i, j, r.Results[j].DocID, want[j].DocID)
			}
		}
		if r.Stats.Candidates <= 0 || r.Stats.Wall <= 0 {
			t.Errorf("query %d: empty merged stats %+v", i, r.Stats)
		}
	}
}

// TestServerCloseWithOpenConnections guards the shutdown path: Close must
// not wait for brokers to hang up on their own.
func TestServerCloseWithOpenConnections(t *testing.T) {
	c := testCollection(t)
	cl, err := StartCluster(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	q := c.EfficiencyQueries(1, 2)[0]
	if _, _, err := brk.Search(q.Terms, 5, ir.BM25TCMQ8); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		cl.Close() // broker connections still open
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cluster Close deadlocked on an open broker connection")
	}
	// Queries against the closed cluster fail instead of hanging.
	if _, _, err := brk.Search(q.Terms, 5, ir.BM25TCMQ8); err == nil {
		t.Error("search succeeded against a closed cluster")
	}
}

func TestBrokerCancellation(t *testing.T) {
	c := testCollection(t)
	cl, err := StartCluster(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := c.EfficiencyQueries(1, 5)[0]
	if _, _, err := brk.SearchContext(ctx, q.Terms, 10, ir.BM25TCMQ8); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled broker search: %v", err)
	}
	// The broker recovers: the dead connections redial on next use.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	res, _, err := brk.SearchContext(ctx2, q.Terms, 10, ir.BM25TCMQ8)
	if err != nil {
		t.Fatalf("broker did not recover after cancel: %v", err)
	}
	if len(res) == 0 {
		t.Error("no results after recovery")
	}
}

// TestPersistedClusterMatchesCentralized is the storage-subsystem variant
// of the §3.4 property: partitions built once and persisted to disk, then
// served by servers that open the directories (no corpus, no rebuild),
// must still merge to exactly the centralized ranking.
func TestPersistedClusterMatchesCentralized(t *testing.T) {
	c := testCollection(t)
	central, err := ir.Build(c, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := ir.NewSearcher(central, 0)

	dirs, err := BuildPartitions(c, 3, ir.DefaultBuildConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 3 {
		t.Fatalf("partition dirs: %v", dirs)
	}
	cl, err := StartClusterFromDirs(dirs, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, srv := range cl.servers() {
		if srv.Index().Store.Simulated() {
			t.Fatal("persisted server is serving from a simulated store")
		}
	}
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	for _, q := range c.PrecisionQueries(5, 17) {
		want, _, err := s.Search(q.Terms, 10, ir.BM25TCMQ8)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := brk.Search(q.Terms, 10, ir.BM25TCMQ8)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %v: got %d results, want %d", q.Terms, len(got), len(want))
		}
		for i := range want {
			if got[i].DocID != want[i].DocID || got[i].Name != want[i].Name {
				t.Errorf("query %v rank %d: %v != centralized %v", q.Terms, i, got[i], want[i])
			}
			if diff := got[i].Score - want[i].Score; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("query %v rank %d: score %v != centralized %v",
					q.Terms, i, got[i].Score, want[i].Score)
			}
		}
	}
}

// TestSegmentedPartitionsMatchCentralized extends the §3.4 guarantee to
// segmented partition directories: partitions split into multiple segments
// per server, all built with the collection-wide statistics, still merge
// to exactly the centralized ranking.
func TestSegmentedPartitionsMatchCentralized(t *testing.T) {
	c := testCollection(t)
	central, err := ir.Build(c, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := ir.NewSearcher(central, 0)

	dirs, err := BuildSegmentedPartitions(c, 3, 2, ir.DefaultBuildConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartClusterFromDirs(dirs, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, srv := range cl.servers() {
		if n := srv.Snapshot().NumSegments(); n != 2 {
			t.Fatalf("partition serves %d segments, want 2", n)
		}
	}
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	for _, q := range c.PrecisionQueries(5, 17) {
		for _, strat := range []ir.Strategy{ir.BM25TC, ir.BM25TCM, ir.BM25TCMQ8} {
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
				if got[i].DocID != want[i].DocID || got[i].Score != want[i].Score {
					t.Errorf("%v query %v rank %d: got (%d, %v), want (%d, %v)",
						strat, q.Terms, i, got[i].DocID, got[i].Score, want[i].DocID, want[i].Score)
				}
			}
		}
	}
}
