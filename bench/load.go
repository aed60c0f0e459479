package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/ir"
)

// resultDepth is the k of every query: the paper's evaluation depth.
const resultDepth = 20

// reply is what one search returns to the load loop: the ranked hits plus
// the accounting the per-layer metrics read.
type reply struct {
	hits       []ir.Result
	candidates int64
	secondPass bool
	// dist-fanout only: the fan-out's total and slowest partition, and the
	// tail defenses that fired (must stay 0 — hedging is off).
	brokerTotal, serverMax time.Duration
	hedged, retried        int
}

// searchFunc runs one query on behalf of a client. Clients are numbered so
// a workload can give each its own connection.
type searchFunc func(client int, terms []string) (reply, error)

// checkInvariants is the per-response check made during timing: at most k
// hits, ordered by score descending then docid ascending.
func checkInvariants(hits []ir.Result, k int) error {
	if len(hits) > k {
		return fmt.Errorf("%d hits for k=%d", len(hits), k)
	}
	for i := 1; i < len(hits); i++ {
		a, b := hits[i-1], hits[i]
		if a.Score < b.Score || (a.Score == b.Score && a.DocID >= b.DocID) {
			return fmt.Errorf("hits %d,%d out of (score desc, docid asc) order: (%d, %v) then (%d, %v)",
				i-1, i, a.DocID, a.Score, b.DocID, b.Score)
		}
	}
	return nil
}

// loadResult is one closed-loop phase.
type loadResult struct {
	lats      []time.Duration // successful searches
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration

	brokerOverhead, srvMax []time.Duration
	hedged, retried        int
}

// runClosedLoop drives `clients` goroutines, each sending its next query
// only after the previous reply — callers of an embedded engine or a broker
// wait for their answer, so this is the load they make. Client c takes
// queries c, c+clients, ... and wraps. Every client asks stop before each
// search and returns once it says so. A failed or invariant-violating
// response counts as failed and contributes no latency.
func runClosedLoop(clients int, queries []corpus.Query, search searchFunc, stop func() bool) loadResult {
	stats := make([]loadResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			st.lats = make([]time.Duration, 0, 1<<14)
			for i := c; !stop(); i += clients {
				q := queries[i%len(queries)]
				t0 := time.Now()
				r, err := search(c, q.Terms)
				d := time.Since(t0)
				st.attempted++
				if err == nil {
					err = checkInvariants(r.hits, resultDepth)
				}
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = fmt.Errorf("query %v: %w", q.Terms, err)
					}
					continue
				}
				st.lats = append(st.lats, d)
				if r.brokerTotal > 0 {
					st.brokerOverhead = append(st.brokerOverhead, r.brokerTotal-r.serverMax)
					st.srvMax = append(st.srvMax, r.serverMax)
				}
				st.hedged += r.hedged
				st.retried += r.retried
			}
		}(c)
	}
	wg.Wait()
	var out loadResult
	out.elapsed = time.Since(start)
	for i := range stats {
		st := &stats[i]
		out.lats = append(out.lats, st.lats...)
		out.attempted += st.attempted
		out.failed += st.failed
		if out.firstErr == nil {
			out.firstErr = st.firstErr
		}
		out.brokerOverhead = append(out.brokerOverhead, st.brokerOverhead...)
		out.srvMax = append(out.srvMax, st.srvMax...)
		out.hedged += st.hedged
		out.retried += st.retried
	}
	return out
}

// afterOps stops a closed loop once n searches were started (the warm-up,
// sized in work so that it costs the same on every run).
func afterOps(n int) func() bool {
	var started atomic.Int64
	return func() bool { return started.Add(1) > int64(n) }
}

// afterTime stops a closed loop once d has passed.
func afterTime(d time.Duration) func() bool {
	deadline := time.Now().Add(d)
	return func() bool { return !time.Now().Before(deadline) }
}

// countPass answers the first countQueries pool queries once each, one
// client, on the state set-up built, and returns candidates per query and
// the share of queries that needed a second pass. A fixed set of queries on
// a fixed index: the counts repeat exactly from run to run. (That is why it
// runs before ingest-mix's writer: every segment runs its own passes, so
// afterwards the counts follow the segment layout, which depends on when the
// background merges happened to run.)
func countPass(e *env, st *state) (candidates, secondPass float64, err error) {
	qs := e.queries[:min(countQueries, len(e.queries))]
	for _, q := range qs {
		r, err := st.search(0, q.Terms)
		if err != nil {
			return 0, 0, fmt.Errorf("count pass, query %v: %w", q.Terms, err)
		}
		candidates += float64(r.candidates)
		if r.secondPass {
			secondPass++
		}
	}
	return candidates / float64(len(qs)), secondPass / float64(len(qs)), nil
}
