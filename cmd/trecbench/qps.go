package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/loadgen"
)

// qpsExperiment measures the serving-QoS subsystem under open-loop load —
// the regime closed-loop harnesses (Table 3's RunStreams) cannot show,
// because a closed loop slows its own arrivals when the system slows down.
// Two sections (hedging against a straggler is the hedge experiment's):
//
//  1. Throughput vs p99: a Poisson arrival stream swept across fractions
//     of the measured capacity, through a plain broker and through one
//     with admission control. Below saturation the two match; at 2x
//     capacity the plain broker's queue (and p99) grows with the run
//     length while the shedding broker rejects the excess and keeps the
//     admitted p99 near the SLO.
//  2. Partial results: a whole replica group is killed; a broker opted
//     into WithPartialResults keeps answering from the survivors with
//     every result flagged Degraded.
func qpsExperiment(p params) error {
	docs, nq, servers, seed := p.docs, p.queries, p.servers, p.seed
	header("Serving QoS: open-loop load, admission control, partial results")
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = docs
	cfg.Seed = seed
	c := corpus.Generate(cfg)
	queries := c.EfficiencyQueries(min(nq, 2000), seed+19)
	strat := ir.BM25TCMQ8
	ctx := context.Background()

	partitions := servers / 2
	if partitions < 2 {
		partitions = 2
	}
	fmt.Printf("building %d partitions x 2 replicas ...\n", partitions)
	cl, err := dist.StartCluster(c, partitions, dist.WithReplicas(2))
	if err != nil {
		return err
	}
	defer cl.Close()
	warm := queries
	if len(warm) > 200 {
		warm = warm[:200]
	}
	if err := cl.WarmAll(strat, warm, 20); err != nil {
		return err
	}

	// Capacity and baseline p50, measured closed-loop through ONE shared
	// broker (the open-loop runs below share a broker the same way, so
	// per-replica connection serialization is priced into both).
	workers := runtime.GOMAXPROCS(0)
	capQPS, p50, err := measureCapacity(ctx, cl, queries, workers, strat)
	if err != nil {
		return err
	}
	slo := 10 * p50
	if slo < 5*time.Millisecond {
		slo = 5 * time.Millisecond
	}
	fmt.Printf("capacity (closed loop, %d workers): %.0f q/s, p50 %.2f ms; SLO %.1f ms\n\n",
		workers, capQPS, float64(p50.Microseconds())/1000, float64(slo.Microseconds())/1000)

	// Section 1: throughput vs p99 across offered-load multiples.
	fmt.Printf("%-10s %8s %10s %10s %10s %8s %8s %8s %8s\n",
		"broker", "load", "offered/s", "done/s", "p99 ms", "shed", "failed", "dropped", "SLO-ok")
	for _, mode := range []struct {
		name string
		opts []dist.BrokerOption
		dl   time.Duration // per-request deadline handed to the load generator
	}{
		// No deadline and no admission: the open-loop queue is unbounded.
		{"plain", nil, 0},
		// Deadline = SLO and admission: requests that would wait past their
		// deadline are rejected up front instead of queueing to death.
		{"shedding", []dist.BrokerOption{dist.WithAdmission(workers, 4*workers)}, slo},
	} {
		brk, err := cl.NewBroker(mode.opts...)
		if err != nil {
			return err
		}
		for i, mult := range []float64{0.25, 0.5, 1.0, 2.0} {
			st, err := loadgen.Run(ctx, loadgen.Config{
				Rate:       capQPS * mult,
				Duration:   1200 * time.Millisecond,
				NumQueries: len(queries),
				Zipf:       1.2,
				SLO:        slo,
				Deadline:   mode.dl,
				Seed:       seed + 100 + int64(i),
			}, func(rctx context.Context, qi int) error {
				_, _, err := brk.SearchContext(rctx, queries[qi].Terms, 20, strat)
				return err
			})
			if err != nil {
				brk.Close()
				return err
			}
			fmt.Printf("%-10s %7.2fx %10d %10.0f %10.2f %8d %8d %8d %7.0f%%\n",
				mode.name, mult, st.Offered, st.Throughput,
				float64(st.P99.Microseconds())/1000,
				st.Shed, st.Failed, st.Dropped, st.SLOAttainment*100)
		}
		brk.Close()
	}
	fmt.Println("\n(shape: below saturation the brokers match; at 2x the plain broker's p99")
	fmt.Println(" is set by the run length — the queue never stops growing — while the")
	fmt.Println(" shedding broker's admitted p99 stays near the SLO and the excess shows")
	fmt.Println(" up as shed count instead of latency)")

	// Section 2: kill a whole replica group; a partial-results broker keeps
	// serving degraded rankings from the survivors.
	fmt.Printf("\nkilling both replicas of partition %d ...\n", partitions-1)
	pbrk, err := cl.NewBroker(dist.WithPartialResults())
	if err != nil {
		return err
	}
	defer pbrk.Close()
	if _, _, err := pbrk.SearchContext(ctx, queries[0].Terms, 20, strat); err != nil {
		return err
	}
	cl.Replica(partitions-1, 0).Close()
	cl.Replica(partitions-1, 1).Close()
	preqs := make([]dist.Request, min(len(queries), 200))
	for i := range preqs {
		preqs[i] = dist.Request{Terms: queries[i].Terms, K: 20, Strategy: strat}
	}
	out, timing, err := pbrk.SearchMany(ctx, preqs)
	if err != nil {
		return err
	}
	degraded, answered := 0, 0
	for _, r := range out {
		if r.Err == nil {
			answered++
		}
		if r.Degraded {
			degraded++
		}
	}
	fmt.Printf("%d/%d queries answered from the survivors, %d flagged degraded (%d group(s) down)\n",
		answered, len(preqs), degraded, timing.DegradedGroups)
	fmt.Println("\n(shape: without WithPartialResults a dead replica group fails the whole")
	fmt.Println(" batch; with it the ranking is computed over the partitions that answered")
	fmt.Println(" and every result carries the Degraded flag so callers can tell)")
	return nil
}

// measureCapacity drives the cluster closed-loop through one shared broker
// with the given worker count and returns sustained throughput plus the
// per-query latency median.
func measureCapacity(ctx context.Context, cl *dist.Cluster, queries []corpus.Query, workers int, strat ir.Strategy) (float64, time.Duration, error) {
	brk, err := cl.NewBroker()
	if err != nil {
		return 0, 0, err
	}
	defer brk.Close()
	n := min(len(queries), 1000)
	lats := make([]time.Duration, n)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for qi := w; qi < n; qi += workers {
				t0 := time.Now()
				if _, _, err := brk.SearchContext(ctx, queries[qi].Terms, 20, strat); err != nil {
					errs[w] = err
					return
				}
				lats[qi] = time.Since(t0)
			}
		}(w)
	}
	wg.Wait()
	total := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	return float64(n) / total.Seconds(), loadgen.Percentile(lats, 50), nil
}
