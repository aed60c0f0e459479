package dist

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/ir"
)

// centralizedRankings computes the single-node ground truth for a query
// batch — the ranking every replicated/degraded cluster run must match.
func centralizedRankings(t *testing.T, c *corpus.Collection, queries []corpus.Query, k int) [][]ir.Result {
	t.Helper()
	central, err := ir.Build(c, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := ir.NewSearcher(central, 0)
	want := make([][]ir.Result, len(queries))
	for i, q := range queries {
		res, _, err := s.Search(q.Terms, k, ir.BM25TCMQ8)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	return want
}

func assertRankingsEqual(t *testing.T, label string, got []BatchResult, want [][]ir.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for qi := range want {
		if got[qi].Err != nil {
			t.Fatalf("%s query %d: %v", label, qi, got[qi].Err)
		}
		if len(got[qi].Results) != len(want[qi]) {
			t.Fatalf("%s query %d: %d results, want %d", label, qi, len(got[qi].Results), len(want[qi]))
		}
		for ri := range want[qi] {
			g, w := got[qi].Results[ri], want[qi][ri]
			if g.DocID != w.DocID {
				t.Errorf("%s query %d rank %d: docid %d != centralized %d", label, qi, ri, g.DocID, w.DocID)
			}
			if diff := g.Score - w.Score; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s query %d rank %d: score %v != centralized %v", label, qi, ri, g.Score, w.Score)
			}
		}
	}
}

// TestReplicatedClusterMatchesCentralized: replication must be invisible
// to ranking — a replicated broker merges exactly the centralized top-k,
// and the cluster exposes its group structure.
func TestReplicatedClusterMatchesCentralized(t *testing.T) {
	c := testCollection(t)
	queries := c.PrecisionQueries(8, 41)
	want := centralizedRankings(t, c, queries, 10)

	cl, err := StartCluster(c, 3, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Partitions() != 3 || cl.Replicas() != 2 || len(cl.servers()) != 6 {
		t.Fatalf("cluster shape: %d partitions, %d replicas, %d servers",
			cl.Partitions(), cl.Replicas(), len(cl.servers()))
	}
	for p, g := range cl.CurrentGroups() {
		if len(g) != 2 || cl.GroupSize(p) != 2 {
			t.Fatalf("group %d: %v", p, g)
		}
	}

	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	reqs := make([]Request, len(queries))
	for i, q := range queries {
		reqs[i] = Request{Terms: q.Terms, K: 10, Strategy: ir.BM25TCMQ8}
	}
	out, timing, err := brk.SearchMany(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(timing.PerServer) != 3 {
		t.Fatalf("PerServer should be per partition group: %d", len(timing.PerServer))
	}
	if timing.Hedged != 0 || timing.Retried != 0 {
		t.Errorf("healthy cluster hedged/retried: %+v", timing)
	}
	assertRankingsEqual(t, "replicated", out, want)
}

// TestFailoverMidBatch is the induced-failure half of the §3.4
// equivalence property: with one replica of each partition killed while a
// SearchMany is in flight, the broker must fail the slices over to the
// surviving replicas and still return exactly the centralized ranking,
// with Retried > 0 recording that the defense fired.
func TestFailoverMidBatch(t *testing.T) {
	c := testCollection(t)
	queries := c.PrecisionQueries(6, 43)
	want := centralizedRankings(t, c, queries, 10)

	cl, err := StartCluster(c, 2, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	// Pin the batch inside replica 0 of each group (a fresh broker's
	// round-robin primary), then kill those servers while they hold it.
	for p := 0; p < cl.Partitions(); p++ {
		cl.Replica(p, 0).SetFault(1, FaultStall, 400*time.Millisecond)
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(100 * time.Millisecond)
		for p := 0; p < cl.Partitions(); p++ {
			cl.Replica(p, 0).Close()
		}
	}()

	reqs := make([]Request, len(queries))
	for i, q := range queries {
		reqs[i] = Request{Terms: q.Terms, K: 10, Strategy: ir.BM25TCMQ8}
	}
	out, timing, err := brk.SearchMany(context.Background(), reqs)
	<-killed
	if err != nil {
		t.Fatalf("SearchMany did not survive replica death: %v", err)
	}
	if timing.Retried == 0 {
		t.Error("killed primaries but Retried == 0")
	}
	assertRankingsEqual(t, "failover", out, want)

	// The broker's health view marks the dead replicas failed, and later
	// batches keep matching without touching them.
	var fails int
	for _, g := range brk.Replicas() {
		for _, r := range g {
			fails += r.Fails
		}
	}
	if fails == 0 {
		t.Error("no replica recorded a failure after the kill")
	}
	out, _, err = brk.SearchMany(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	assertRankingsEqual(t, "degraded", out, want)

	// A fresh broker must come up against the degraded fleet (the dead
	// replicas start in cooldown, to be lazily redialed) and still match.
	brk2, err := cl.NewBroker()
	if err != nil {
		t.Fatalf("broker refused to dial a cluster with dead replicas: %v", err)
	}
	defer brk2.Close()
	out, _, err = brk2.SearchMany(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	assertRankingsEqual(t, "fresh broker, degraded fleet", out, want)
}

// TestDeadReplicaGroupError: when every replica of a partition is down,
// the batch must fail with an error that says which partition died and
// how many replicas were tried — not hang, not return a partial ranking.
func TestDeadReplicaGroupError(t *testing.T) {
	c := testCollection(t)
	cl, err := StartCluster(c, 2, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	// Kill the whole of partition 1's replica group.
	cl.Replica(1, 0).Close()
	cl.Replica(1, 1).Close()

	q := c.EfficiencyQueries(1, 47)[0]
	_, _, err = brk.SearchMany(context.Background(),
		[]Request{{Terms: q.Terms, K: 10, Strategy: ir.BM25TCMQ8}})
	if err == nil {
		t.Fatal("batch succeeded with a whole replica group down")
	}
	msg := err.Error()
	if !strings.Contains(msg, "partition 1") || !strings.Contains(msg, "2 replicas") {
		t.Errorf("error does not identify the dead group: %q", msg)
	}
	if _, _, err := brk.Search(q.Terms, 10, ir.BM25TCMQ8); err == nil {
		t.Error("single-query search succeeded with a whole replica group down")
	}

	// Dialing a fresh broker over the dead group fails descriptively too.
	if _, err := cl.NewBroker(); err == nil {
		t.Error("NewBroker succeeded with a whole replica group unreachable")
	} else if !strings.Contains(err.Error(), "partition 1") {
		t.Errorf("dial error does not identify the dead group: %v", err)
	}
}

// hedgeWarmup is the qos hedger's warm-up: a group arms no budget before
// it has observed this many winning round trips.
const hedgeWarmup = 32

// warmHedging runs hedgeWarmup healthy calls through brk — an even count,
// so each group's round-robin primary is replica 0 again for the next
// call — and checks that every group stays cold (no budget, no hedge)
// until the warm-up is done and is armed after it.
func warmHedging(t *testing.T, brk *Broker, terms []string) {
	t.Helper()
	for i := 0; i < hedgeWarmup; i++ {
		m := brk.MetricsSnapshot()
		if m.Hedged != 0 {
			t.Fatalf("after %d healthy calls: %d hedges while cold", i, m.Hedged)
		}
		for gi, g := range m.Groups {
			if g.HedgeBudget != 0 {
				t.Fatalf("after %d healthy calls: group %d armed %v while cold", i, gi, g.HedgeBudget)
			}
		}
		if _, _, err := brk.SearchContext(context.Background(), terms, 10, ir.BM25TCMQ8); err != nil {
			t.Fatal(err)
		}
	}
	for gi, g := range brk.MetricsSnapshot().Groups {
		if g.HedgeBudget <= 0 {
			t.Fatalf("group %d: no hedge budget after %d healthy calls", gi, hedgeWarmup)
		}
	}
}

// TestHedgeBeatsStalledPrimary: a primary that stalls far beyond the
// hedge budget must not set the query's latency — the hedge re-issue to
// the healthy replica answers first, Hedged records the fire, and the
// ranking is untouched.
func TestHedgeBeatsStalledPrimary(t *testing.T) {
	c := testCollection(t)
	queries := c.PrecisionQueries(4, 53)
	want := centralizedRankings(t, c, queries, 10)

	cl, err := StartCluster(c, 2, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker(WithHedging())
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	warmHedging(t, brk, queries[0].Terms)

	// The warmed broker's next primary is replica 0 of each group; stall
	// partition 0's copy on every request, far beyond the hedge budget.
	const stall = 3 * time.Second
	cl.Replica(0, 0).SetFault(1, FaultStall, stall)

	reqs := make([]Request, len(queries))
	for i, q := range queries {
		reqs[i] = Request{Terms: q.Terms, K: 10, Strategy: ir.BM25TCMQ8}
	}
	start := time.Now()
	out, timing, err := brk.SearchMany(context.Background(), reqs)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if timing.Hedged == 0 {
		t.Error("stalled primary but Hedged == 0")
	}
	if took >= stall {
		t.Errorf("hedge did not beat the stall: batch took %v", took)
	}
	assertRankingsEqual(t, "hedged", out, want)
}

// TestStartClusterFromDirsBadDir: a partition directory that fails to
// open must surface as an error (and close the replicas that did start),
// not panic while assembling the group table.
func TestStartClusterFromDirsBadDir(t *testing.T) {
	c := testCollection(t)
	dirs, err := BuildPartitions(c, 2, ir.DefaultBuildConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dirs[1] = filepath.Join(t.TempDir(), "does-not-exist")
	if _, err := StartClusterFromDirs(dirs, 0, WithReplicas(2)); err == nil {
		t.Fatal("StartClusterFromDirs succeeded with a missing partition directory")
	}
}

// TestBrokerRejectsEmptyGroup pins the DialGroups validation.
func TestBrokerRejectsEmptyGroup(t *testing.T) {
	if _, err := DialGroups(nil); err == nil {
		t.Error("DialGroups(nil) succeeded")
	}
	if _, err := DialGroups([][]string{{}}); err == nil {
		t.Error("DialGroups with an empty group succeeded")
	}
}
