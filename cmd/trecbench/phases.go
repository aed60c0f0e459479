package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/loadgen"
)

const (
	// p99Bound is the claim the ingest and rebalance experiments assert: a
	// background activity keeps the serving p99 within this multiple of the
	// quiesced p99 on the same data.
	p99Bound = 3.0
	// minPhaseSamples is the fewest latencies a phase may hold: below it
	// the p99 is just the maximum, and an empty phase's p99 of 0 would pass
	// any bound. The quiesced phases run until they have that many; the
	// during phase is as long as its disturbance, so it can fall short.
	minPhaseSamples = 100
	phaseDur        = 1200 * time.Millisecond
)

type phase struct {
	name string
	lats []time.Duration
}

// servePhases measures what a disturbance costs the queries served beside
// it. Closed-loop load runs against the broker in three phases:
//
//	quiesced-before  the cluster as the caller built it
//	<during>         the same load while disturb runs, until the replicas
//	                 have converged on what it committed
//	quiesced-after   the same load on the state disturb left
//
// and the during-phase p99 is held to p99Bound times the quiesced-after
// p99 (same data volume and layout; the before phase is printed for the
// index-size effect). The load is sized to leave headroom: the disturbance
// is a background activity, not a second saturating workload.
func servePhases(ctx context.Context, brk *dist.Broker, queries []corpus.Query, strat ir.Strategy, during string, disturb func() error) error {
	workers := max(1, runtime.GOMAXPROCS(0)/2)
	// A quiesced phase lasts phaseDur, longer on a machine too slow to
	// collect a p99's worth of queries in that time.
	quiesced := func(name string) (phase, error) {
		deadline := time.Now().Add(phaseDur)
		lats, err := queryLoad(ctx, brk, queries, workers, strat,
			func(n int) bool { return n >= minPhaseSamples && time.Now().After(deadline) })
		if err != nil {
			return phase{}, fmt.Errorf("%s query load: %w", name, err)
		}
		return phase{name, lats}, nil
	}

	before, err := quiesced("quiesced-before")
	if err != nil {
		return err
	}

	var stop atomic.Bool
	type loadResult struct {
		lats []time.Duration
		err  error
	}
	loadCh := make(chan loadResult, 1)
	go func() {
		lats, err := queryLoad(ctx, brk, queries, workers, strat,
			func(int) bool { return stop.Load() })
		loadCh <- loadResult{lats, err}
	}()
	err = disturb()
	if err == nil {
		err = brk.WaitConverged(ctx)
	}
	stop.Store(true)
	lr := <-loadCh
	if err != nil {
		return err
	}
	if lr.err != nil {
		return fmt.Errorf("%s query load: %w", during, lr.err)
	}

	after, err := quiesced("quiesced-after")
	if err != nil {
		return err
	}

	phases := [3]phase{before, {during, lr.lats}, after}
	fmt.Printf("\n%-18s %8s %10s %10s\n", "phase", "queries", "p50 ms", "p99 ms")
	for _, ph := range phases {
		fmt.Printf("%-18s %8d %10.2f %10.2f\n", ph.name, len(ph.lats),
			loadgen.Ms(loadgen.Percentile(ph.lats, 50)), loadgen.Ms(loadgen.Percentile(ph.lats, 99)))
	}
	ratio, err := p99Ratio(phases, p99Bound)
	if err != nil {
		return err
	}
	fmt.Printf("%s p99 is %.2fx the quiesced-after p99 (bound %.1fx)\n", during, ratio, p99Bound)
	return nil
}

// p99Ratio returns the during-phase p99 over the quiesced-after p99, and
// an error when a phase is too thin to have a p99 or the ratio is not
// within bound. The error carries every phase's query count, p50 and p99,
// so a failing run records the whole phase table, not just the ratio.
func p99Ratio(phases [3]phase, bound float64) (float64, error) {
	for _, ph := range phases {
		if len(ph.lats) < minPhaseSamples {
			return 0, fmt.Errorf("%s collected %d queries, need %d for a p99 (%s)",
				ph.name, len(ph.lats), minPhaseSamples, phaseSummary(phases))
		}
	}
	during, after := phases[1], phases[2]
	ratio := float64(loadgen.Percentile(during.lats, 99)) / float64(loadgen.Percentile(after.lats, 99))
	if !(ratio <= bound) { // also catches the NaN of 0/0
		return ratio, fmt.Errorf("%s p99 is %.2fx the %s p99, bound %.1fx (%s)",
			during.name, ratio, after.name, bound, phaseSummary(phases))
	}
	return ratio, nil
}

// phaseSummary is the phase table on one line: each phase's query count,
// p50 and p99.
func phaseSummary(phases [3]phase) string {
	rows := make([]string, len(phases))
	for i, ph := range phases {
		rows[i] = fmt.Sprintf("%s: %d queries, p50 %.2f ms, p99 %.2f ms", ph.name, len(ph.lats),
			loadgen.Ms(loadgen.Percentile(ph.lats, 50)), loadgen.Ms(loadgen.Percentile(ph.lats, 99)))
	}
	return strings.Join(rows, "; ")
}

// queryLoad drives closed-loop query workers against the broker until
// done, given the number of queries answered so far, reports true; it
// returns every observed latency.
func queryLoad(ctx context.Context, brk *dist.Broker, queries []corpus.Query, workers int, strat ir.Strategy, done func(answered int) bool) ([]time.Duration, error) {
	lats := make([][]time.Duration, workers)
	errs := make([]error, workers)
	var answered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !done(int(answered.Load())); i += workers {
				q := queries[i%len(queries)]
				t0 := time.Now()
				if _, _, err := brk.SearchContext(ctx, q.Terms, 20, strat); err != nil {
					errs[w] = err
					return
				}
				lats[w] = append(lats[w], time.Since(t0))
				answered.Add(1)
			}
		}(w)
	}
	wg.Wait()
	var all []time.Duration
	for w := range lats {
		if errs[w] != nil {
			return nil, errs[w]
		}
		all = append(all, lats[w]...)
	}
	return all, nil
}
