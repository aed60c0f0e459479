package dist

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
)

// sameAsCentralized runs every query of reqs through brk in one batch and
// requires each answer to rank exactly like s, DocID and Score bit for
// bit, with the broker sending a query to round 2 exactly when s runs its
// second pass.
func sameAsCentralized(t *testing.T, brk *Broker, s *ir.Searcher, reqs []Request) {
	t.Helper()
	out, _, err := brk.SearchMany(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		want, st, err := s.Search(r.Terms, r.K, r.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("%v k=%d %d terms %v", r.Strategy, r.K, len(r.Terms), r.Terms)
		if out[i].Err != nil {
			t.Fatalf("%s: %v", what, out[i].Err)
		}
		sameRanking(t, what, out[i].Results, want)
		if out[i].Stats.SecondPass != st.SecondPass {
			t.Fatalf("%s: broker second pass %v, centralized %v", what, out[i].Stats.SecondPass, st.SecondPass)
		}
	}
}

// TestDistributedEfficiencyQueriesMatchCentralized is the two-pass gate's
// equivalence property over the efficiency query pool: short queries of
// frequent terms, where a partition often holds fewer than k conjunctive
// matches while the whole collection holds k. The broker gates the whole
// collection, so every ranked strategy at every depth ranks exactly like
// ir.Build, on whole and on segmented replicated partitions.
func TestDistributedEfficiencyQueriesMatchCentralized(t *testing.T) {
	c := testCollection(t)
	central, err := ir.Build(c, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := ir.NewSearcher(central, 0)
	queries := c.EfficiencyQueries(200, 5)
	segDirs, err := BuildSegmentedPartitions(c, 3, 2, ir.DefaultBuildConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name  string
		start func() (*Cluster, error)
	}{
		{"StartCluster", func() (*Cluster, error) { return StartCluster(c, 3, WithReplicas(2)) }},
		{"BuildSegmentedPartitions", func() (*Cluster, error) { return StartClusterFromDirs(segDirs, 0, WithReplicas(2)) }},
	} {
		t.Run(shape.name, func(t *testing.T) {
			cl, err := shape.start()
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			brk, err := cl.NewBroker()
			if err != nil {
				t.Fatal(err)
			}
			defer brk.Close()
			for _, strat := range []ir.Strategy{ir.BM25, ir.BM25T, ir.BM25TC, ir.BM25TCM, ir.BM25TCMQ8} {
				for _, k := range []int{10, 20, 100} {
					reqs := make([]Request, len(queries))
					for i, q := range queries {
						reqs[i] = Request{Terms: q.Terms, K: k, Strategy: strat}
					}
					sameAsCentralized(t, brk, s, reqs)
				}
			}
		})
	}
}

// TestLongAndPartitionLocalQueriesMatchCentralized covers the term mask at
// its edges: a 70-term query (longer than any fixed-width mask, with a
// repeated term) and queries carrying a term only one partition holds,
// whose other partitions answer the conjunctive round with a mask the gate
// drops.
func TestLongAndPartitionLocalQueriesMatchCentralized(t *testing.T) {
	const parts = 3
	c := testCollection(t)
	central, err := ir.Build(c, ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := ir.NewSearcher(central, 0)
	cl, err := StartCluster(c, parts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	local := localTerms(c, parts)
	if len(local) < 2 {
		t.Fatalf("only %d single-partition terms in the test collection", len(local))
	}
	long := append([]string{local[0]}, c.TermStrings[:68]...)
	long = append(long, c.TermStrings[0])
	queries := []corpus.Query{{Terms: long}}
	for i, q := range c.EfficiencyQueries(20, 9) {
		queries = append(queries, corpus.Query{Terms: append([]string{local[i%2]}, q.Terms...)})
	}
	for _, strat := range []ir.Strategy{ir.BM25, ir.BM25TC, ir.BM25TCMQ8} {
		for _, k := range []int{1, 10} {
			reqs := make([]Request, len(queries))
			for i, q := range queries {
				reqs[i] = Request{Terms: q.Terms, K: k, Strategy: strat}
			}
			sameAsCentralized(t, brk, s, reqs)
		}
	}
}

// scriptedServer serves gob wire requests on a loopback port, answering
// each search request with answer(n, req), n counting from 1, and
// returns its address. It stands in for a partition server whose
// answers a test needs to choose. Calls of answer are serialized.
func scriptedServer(t *testing.T, answer func(n int, req wireRequest) wireResponse) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	n := 0
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
				for {
					var req wireRequest
					if dec.Decode(&req) != nil {
						return
					}
					mu.Lock()
					n++
					resp := answer(n, req)
					mu.Unlock()
					resp.Seq = req.Seq
					if enc.Encode(resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// oneAnswer builds a one-query answer at generation gen with a full mask of
// terms entries and one hit per docid, scored in descending order.
func oneAnswer(gen uint64, terms int, docids ...int64) wireResponse {
	a := wireAnswer{Mask: make([]bool, terms)}
	for i := range a.Mask {
		a.Mask[i] = true
	}
	for i, d := range docids {
		a.Results = append(a.Results, wireResult{DocID: d, Score: float64(len(docids) - i)})
	}
	return wireResponse{Gen: gen, Queries: []wireAnswer{a}}
}

// TestRoundsReadOneGeneration: a query whose round 2 is answered at a
// newer generation than its round 1 reruns from round 1, pinned at the
// newer generation, and answers from that generation alone.
func TestRoundsReadOneGeneration(t *testing.T) {
	var (
		mu   sync.Mutex
		pins []uint64
	)
	addr := scriptedServer(t, func(n int, req wireRequest) wireResponse {
		mu.Lock()
		defer mu.Unlock()
		pins = append(pins, req.PinGen)
		switch n {
		case 1: // round 1 at generation 1: one conjunctive match, k = 2
			return oneAnswer(1, 2, 9)
		case 2: // round 2, answered after a commit
			return oneAnswer(2, 2, 7, 8)
		}
		return oneAnswer(2, 2, 5, 6) // the rerun's round 1 at generation 2 is done
	})
	brk, err := DialGroups([][]string{{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	out, timing, err := brk.SearchMany(context.Background(),
		[]Request{{Terms: []string{"a", "b"}, K: 2, Strategy: ir.BM25TCMQ8, Trace: true}})
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].Results; len(got) != 2 || got[0].DocID != 5 || got[1].DocID != 6 {
		t.Fatalf("answer %+v, want the rerun's docids 5, 6", got)
	}
	if timing.Gens[0] != 2 || !out[0].Stats.SecondPass {
		t.Fatalf("answered at generation %d, second pass %v; want 2, true", timing.Gens[0], out[0].Stats.SecondPass)
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(pins) != "[0 1 2]" {
		t.Fatalf("pinned generations %v, want [0 1 2]", pins)
	}
	if timing.Trace.Find("round2") == nil || timing.Trace.Find("rerun") == nil {
		t.Fatalf("trace lacks the round2 and rerun spans:\n%s", timing.Trace.Render())
	}
}

// TestMalformedAnswerFailsOver: an answer with a mask that is not one
// entry per query term, or with more than k hits, is a failed attempt:
// the broker reads nothing from it and asks the next replica.
func TestMalformedAnswerFailsOver(t *testing.T) {
	good := scriptedServer(t, func(int, wireRequest) wireResponse { return oneAnswer(1, 2, 4, 3) })
	for name, bad := range map[string]wireResponse{
		"short mask": oneAnswer(1, 1, 1, 2),
		"k + 1 hits": oneAnswer(1, 2, 1, 2, 3),
		"no answers": {Gen: 1},
		"long mask":  oneAnswer(1, 3, 1),
	} {
		t.Run(name, func(t *testing.T) {
			addr := scriptedServer(t, func(int, wireRequest) wireResponse { return bad })
			brk, err := DialGroups([][]string{{addr, good}})
			if err != nil {
				t.Fatal(err)
			}
			defer brk.Close()
			out, timing, err := brk.SearchMany(context.Background(),
				[]Request{{Terms: []string{"a", "b"}, K: 2, Strategy: ir.BM25TCMQ8}})
			if err != nil {
				t.Fatal(err)
			}
			if got := out[0].Results; timing.Retried != 1 || len(got) != 2 || got[0].DocID != 4 {
				t.Fatalf("retried %d, answer %+v; want 1 retry and the good replica's docids 4, 3", timing.Retried, got)
			}
			if st := brk.Replicas()[0][0]; st.Fails != 1 {
				t.Fatalf("malformed replica has %d failures, want 1", st.Fails)
			}
		})
	}
}
