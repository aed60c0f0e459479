package dist

import (
	"context"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/trace"
)

// countSpans walks a tree counting spans whose name matches.
func countSpans(root *trace.Span, name string) int {
	n := 0
	root.Walk(func(s *trace.Span) {
		if s.Name == name {
			n++
		}
	})
	return n
}

// TestTracedSearchStitchesServerSubtrees: a traced broker call must come
// back as ONE tree — broker root, one group per partition, a winning
// attempt per group, and under each attempt the server's own recorded
// subtree down to per-operator spans.
func TestTracedSearchStitchesServerSubtrees(t *testing.T) {
	c := testCollection(t)
	queries := c.PrecisionQueries(2, 61)

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

	// Untraced call: no tree, no overhead opt-in.
	reqs := []Request{{Terms: queries[0].Terms, K: 10, Strategy: ir.BM25TCMQ8}}
	_, timing, err := brk.SearchMany(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if timing.Trace != nil {
		t.Fatal("untraced call returned a trace")
	}

	reqs[0].Trace = true
	_, timing, err = brk.SearchMany(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	root := timing.Trace
	if root == nil {
		t.Fatal("Request.Trace set but Timing.Trace is nil")
	}
	if root.Name != "broker.search" {
		t.Fatalf("root span %q", root.Name)
	}
	if got := countSpans(root, "group"); got != 2 {
		t.Fatalf("%d group spans, want 2 (one per partition):\n%s", got, root.Render())
	}
	if got := countSpans(root, "attempt"); got != 2 {
		t.Fatalf("%d attempt spans, want 2 on a healthy cluster:\n%s", got, root.Render())
	}
	if got := countSpans(root, "server"); got != 2 {
		t.Fatalf("%d server subtrees, want 2:\n%s", got, root.Render())
	}
	if root.Find("merge") == nil {
		t.Fatalf("no merge span:\n%s", root.Render())
	}
	// The server subtree must reach the executor: pool wait, execution,
	// and the per-operator breakdown (a TopN sits atop every ranked plan).
	srv := root.Find("server")
	if srv.Find("pool.wait") == nil || srv.Find("execute") == nil {
		t.Fatalf("server subtree missing pool.wait/execute:\n%s", srv.Render())
	}
	ex := srv.Find("execute")
	ops := 0
	ex.Walk(func(s *trace.Span) {
		if _, ok := s.Attr("rows_out"); ok {
			ops++
		}
	})
	if ops == 0 {
		t.Fatalf("no operator spans under execute:\n%s", ex.Render())
	}
	// Offsets were re-anchored onto the call timeline: every span starts
	// within the root's duration.
	root.Walk(func(s *trace.Span) {
		if s.Start < 0 || s.Start > root.Duration {
			t.Errorf("span %q start %v outside root duration %v", s.Name, s.Start, root.Duration)
		}
	})
}

// TestTracedHedgeShowsBothAttempts: when a stalled primary loses a hedge
// race, the stitched tree must show BOTH attempts — the canceled
// primary (no winner mark, canceled=1) and the hedge that won — so the
// trace explains where the tail latency went and which defense saved
// the call. The test also pins the slow-log path: a sampled broker logs
// the call for SlowQueries.
func TestTracedHedgeShowsBothAttempts(t *testing.T) {
	c := testCollection(t)
	queries := c.PrecisionQueries(2, 67)

	cl, err := StartCluster(c, 1, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker(
		WithHedging(),
		WithTraceSampling(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	warmHedging(t, brk, queries[0].Terms)

	// The warmed broker's next primary is replica 0; stall it far beyond
	// the hedge budget on every request.
	const stall = 3 * time.Second
	cl.Replica(0, 0).SetFault(1, FaultStall, stall)

	reqs := []Request{{Terms: queries[0].Terms, K: 10, Strategy: ir.BM25TCMQ8, Trace: true}}
	start := time.Now()
	out, timing, err := brk.SearchMany(context.Background(), reqs)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	if timing.Hedged == 0 {
		t.Fatal("stalled primary but Hedged == 0")
	}
	if took >= stall {
		t.Fatalf("hedge did not beat the stall: %v", took)
	}
	root := timing.Trace
	if root == nil {
		t.Fatal("no trace")
	}
	if got := countSpans(root, "attempt"); got != 2 {
		t.Fatalf("%d attempt spans, want 2 (stalled primary + hedge):\n%s", got, root.Render())
	}
	var winner, canceled *trace.Span
	root.Walk(func(s *trace.Span) {
		if s.Name != "attempt" {
			return
		}
		if _, ok := s.Attr("winner"); ok {
			winner = s
		}
		if _, ok := s.Attr("canceled"); ok {
			canceled = s
		}
	})
	if winner == nil || canceled == nil {
		t.Fatalf("want a winner and a canceled attempt:\n%s", root.Render())
	}
	if _, ok := winner.Attr("hedge"); !ok {
		t.Fatalf("winner is not the hedge:\n%s", root.Render())
	}
	if winner == canceled {
		t.Fatal("winner marked canceled")
	}
	// The stalled primary never answered: its span runs to the group's
	// end and carries no server subtree; the hedge carries one.
	if canceled.Find("server") != nil {
		t.Fatalf("canceled attempt has a server subtree:\n%s", canceled.Render())
	}
	if winner.Find("server") == nil {
		t.Fatalf("winning attempt lacks the server subtree:\n%s", winner.Render())
	}
	// Sampled at rate 1: the call landed in the slow-query log too.
	slow := brk.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("sampled call missing from SlowQueries")
	}
	if slow[0].Root.Find("attempt") == nil {
		t.Fatalf("logged trace lost its attempts:\n%s", slow[0].Root.Render())
	}
}
