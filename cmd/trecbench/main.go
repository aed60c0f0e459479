// Command trecbench reproduces the tables and figures of the paper's
// evaluation on the synthetic TREC-TB testbed, and runs the chaos and
// overload scenarios that bench/README.md deliberately keeps out of the
// benchmark's workloads:
//
//	trecbench -experiment NAME   # one row of the registry below
//	trecbench -experiment all    # every row, in order
//
// An experiment that asserts a bound (ingest, rebalance) fails the run
// when the bound is exceeded, so the exit status is the check. Steady-state
// performance is not measured here: that is bench/ (BENCHMARK.json).
//
// Scale knobs: -docs, -queries, -coldqueries, -precqueries, -servers,
// -seed. The defaults run in a few minutes on a laptop.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/bpsim"
	"repro/internal/compress"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/loadgen"
)

// params are the scale knobs every experiment reads its share of.
type params struct {
	docs, queries, coldQueries, precQueries, servers int
	seed                                             int64
}

type experiment struct {
	name string
	run  func(params) error
}

// registry is the one list of experiments: dispatch, "all", the flag help
// and the unknown-name error all read it.
var registry = []experiment{
	// Paper reproduction.
	{"fig2", figure2},    // compressed block layout (pi digits)
	{"fig3", figure3},    // decompression bandwidth + BMR curve
	{"table1", table1},   // reference TREC-TB 2005 systems
	{"ratios", ratios},   // §3.3 compression ratios
	{"table2", table2},   // the strategy ladder, cold + hot
	{"table3", table3},   // distributed runs
	{"vecsize", vecsize}, // §4 vector-size ablation
	// Chaos and overload scenarios.
	{"hedge", hedgeExperiment},         // replica groups: hedged tail latency + failover
	{"qps", qpsExperiment},             // open-loop QoS: shedding, partial results
	{"ingest", ingestExperiment},       // Broker.Add while serving, p99 held to 3x quiesced
	{"rebalance", rebalanceExperiment}, // topology reconcile while serving, p99 held to 3x quiesced
}

func names(reg []experiment) []string {
	out := make([]string, len(reg))
	for i, e := range reg {
		out[i] = e.name
	}
	return out
}

func main() {
	var p params
	name := flag.String("experiment", "all", strings.Join(names(registry), "|")+"|all")
	flag.IntVar(&p.docs, "docs", 50000, "collection size in documents")
	flag.IntVar(&p.queries, "queries", 2000, "efficiency queries for hot timing")
	flag.IntVar(&p.coldQueries, "coldqueries", 200, "efficiency queries for cold timing")
	flag.IntVar(&p.precQueries, "precqueries", 50, "precision queries (p@20 subset)")
	flag.IntVar(&p.servers, "servers", 8, "servers for the distributed experiment")
	flag.Int64Var(&p.seed, "seed", 2007, "collection seed")
	flag.Parse()

	if err := run(registry, *name, p); err != nil {
		fmt.Fprintln(os.Stderr, "trecbench:", err)
		os.Exit(1)
	}
}

// run executes the named experiment of reg, or every one in order for
// "all".
func run(reg []experiment, name string, p params) error {
	selected := reg
	if name != "all" {
		i := slices.IndexFunc(reg, func(e experiment) bool { return e.name == name })
		if i < 0 {
			return fmt.Errorf("unknown experiment %q (have %s, all)", name, strings.Join(names(reg), ", "))
		}
		selected = reg[i : i+1]
	}
	for _, e := range selected {
		if err := e.run(p); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return nil
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

// figure2 encodes the digits of pi with PFOR(b=3) and prints the block
// layout of Figure 2: entry points, code section with chain links,
// backward exception section.
func figure2(params) error {
	header("Figure 2: compressed block layout (digits of pi, PFOR b=3)")
	digits := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2}
	bl, err := compress.EncodePFOR(digits, 3, 0, compress.Patched)
	if err != nil {
		return err
	}
	codes := make([]uint32, bl.N)
	compress.Unpack(codes, bl.Words, bl.B, bl.N)

	fmt.Printf("input            : %v\n", digits)
	fmt.Printf("header           : scheme=%v b=%d base=%d n=%d\n", bl.Scheme, bl.B, bl.Base, bl.N)
	for i, e := range bl.Entries {
		fmt.Printf("entry point %d    : first-exception=%d exception-index=%d\n", i, e.FirstExc, e.ExcIdx)
	}
	fmt.Printf("code section     : %v\n", codes)
	fmt.Printf("exception section: %v (backward-growing)\n", bl.ExcVals)
	mask := bl.ExceptionMask()
	chain := ""
	for i, m := range mask {
		if m {
			if chain != "" {
				chain += " -> "
			}
			chain += fmt.Sprintf("%d", i)
		}
	}
	fmt.Printf("exception chain  : %s -> %d (end)\n", chain, bl.N)
	out := make([]int64, bl.N)
	if err := compress.Decode(bl, out); err != nil {
		return err
	}
	fmt.Printf("decoded          : %v\n", out)
	fmt.Printf("compressed size  : %d bytes (%.2f bits/value)\n", bl.CompressedSize(), bl.BitsPerValue())
	return nil
}

// figure3 sweeps the exception rate and reports decompression bandwidth
// (measured) and branch miss rate (simulated two-bit predictor) for the
// NAIVE and PFOR (patched) decoders.
func figure3(params) error {
	header("Figure 3: branch miss rate and decompression bandwidth vs exception rate")
	const n = 1 << 20
	rng := rand.New(rand.NewSource(42))
	fmt.Printf("%-10s %12s %12s %12s %12s\n", "exc.rate", "NAIVE GB/s", "PFOR GB/s", "NAIVE BMR%", "PFOR BMR%")

	dec := compress.NewDecoder(n)
	out := make([]int64, n)
	for _, rate := range []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
		0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0} {
		naive, patched, err := fig3Blocks(rng, n, rate)
		if err != nil {
			return err
		}
		nbw := bandwidth(dec, naive, out)
		pbw := bandwidth(dec, patched, out)
		nbmr := bpsim.ReplayTwoBit(naive.NaiveBranchTrace()).MissRate()
		pbmr := bpsim.ReplayTwoBit(patched.PatchedBranchTrace()).MissRate()
		fmt.Printf("%-10.2f %12.2f %12.2f %12.2f %12.2f\n", rate, nbw, pbw, nbmr*100, pbmr*100)
	}
	fmt.Println("\n(paper shape: NAIVE bandwidth collapses near 50% exceptions while its")
	fmt.Println(" branch miss rate peaks; PFOR degrades linearly with patching work and")
	fmt.Println(" its miss rate stays near zero)")
	return nil
}

// fig3Blocks encodes n values, a rate share of them exceptions under b=8,
// with the NAIVE and the PFOR (patched) layout.
func fig3Blocks(rng *rand.Rand, n int, rate float64) (naive, patched *compress.Block, err error) {
	vals := make([]int64, n)
	for i := range vals {
		if rng.Float64() < rate {
			vals[i] = 1 << 40 // exception
		} else {
			vals[i] = int64(rng.Intn(250)) // codeable under b=8
		}
	}
	if naive, err = compress.EncodePFOR(vals, 8, 0, compress.Naive); err != nil {
		return nil, nil, err
	}
	patched, err = compress.EncodePFOR(vals, 8, 0, compress.Patched)
	return naive, patched, err
}

func bandwidth(dec *compress.Decoder, bl *compress.Block, out []int64) float64 {
	const reps = 5
	if err := dec.Decode(bl, out); err != nil { // warm-up: fault pages in
		panic(err)
	}
	start := time.Now()
	for r := 0; r < reps; r++ {
		if err := dec.Decode(bl, out); err != nil {
			panic(err)
		}
	}
	secs := time.Since(start).Seconds()
	bytes := float64(bl.N) * 8 * reps // decoded output volume
	return bytes / secs / 1e9
}

func table1(params) error {
	header("Table 1: top results for TREC-TB 2005 (published reference numbers)")
	fmt.Printf("%-14s %8s %6s %16s\n", "Run", "p@20", "CPUs", "Time/query (ms)")
	for _, e := range ir.TrecTB2005 {
		fmt.Printf("%-14s %8.4f %6d %16d\n", e.Run, e.P20, e.CPUs, e.TimePerQMil)
	}
	return nil
}

func buildTestbed(docs int, seed int64) (*corpus.Collection, *ir.Index, error) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = docs
	cfg.Seed = seed
	fmt.Printf("generating collection: %d docs, vocab %d, avg len %d ...\n", cfg.NumDocs, cfg.Vocab, cfg.AvgDocLen)
	c := corpus.Generate(cfg)
	fmt.Printf("collection: %d postings, realized avgdl %.1f\n", c.NumPostings(), c.AvgDocLen())
	fmt.Printf("building index (all physical columns) ...\n")
	ix, err := ir.Build(c, ir.DefaultBuildConfig())
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("index: %d postings, on-disk %0.1f MB\n\n", ix.NumPostings(), float64(ix.Store.TotalSize())/1e6)
	return c, ix, nil
}

// table2 runs the full strategy ladder: p@20 over the precision subset,
// average query time cold (empty buffer pool, simulated disk I/O charged)
// and hot (warmed pool).
func table2(p params) error {
	docs, nq, nCold, nPrec, seed := p.docs, p.queries, p.coldQueries, p.precQueries, p.seed
	header("Table 2: MonetDB/X100 TREC-TB experiments (reproduction)")
	c, ix, err := buildTestbed(docs, seed)
	if err != nil {
		return err
	}
	eff := c.EfficiencyQueries(nq, seed+1)
	cold := eff
	if len(cold) > nCold {
		cold = cold[:nCold]
	}
	prec := c.PrecisionQueries(nPrec, seed+2)
	fmt.Printf("workload: %d efficiency queries (avg %.2f terms), %d cold-timed, %d precision queries\n\n",
		len(eff), corpus.AvgQueryTerms(eff), len(cold), len(prec))

	fmt.Printf("%-11s %8s %14s %14s %12s  (paper: p@20 / cold / hot)\n",
		"Run", "p@20", "cold ms/query", "hot ms/query", "2nd-pass%")
	s := ir.NewSearcher(ix, 0)
	for i, strat := range ir.AllStrategies {
		// Cold: pool dropped before every query (the 426GB-over-4GB-RAM
		// regime of the paper, where data is effectively never cached).
		var coldTotal time.Duration
		for _, q := range cold {
			ix.Cache.Drop()
			_, st, err := s.Search(q.Terms, 20, strat)
			if err != nil {
				return err
			}
			coldTotal += st.Total()
		}
		// Hot: warmed pool, wall time only.
		second := 0
		var hotTotal time.Duration
		for _, q := range eff {
			_, st, err := s.Search(q.Terms, 20, strat)
			if err != nil {
				return err
			}
			hotTotal += st.Wall
			if st.SecondPass {
				second++
			}
		}
		// Effectiveness on the precision subset.
		var ps []float64
		for _, q := range prec {
			res, _, err := s.Search(q.Terms, 20, strat)
			if err != nil {
				return err
			}
			ps = append(ps, ir.PrecisionAtK(res, c.Qrels(q), 20))
		}
		p20 := ir.MeanPrecisionAtK(ps)
		paper := ir.PaperTable2[i]
		fmt.Printf("%-11s %8.4f %14.2f %14.2f %11.1f%%  (%.4f / %.0f / %.0f)\n",
			strat, p20,
			float64(coldTotal.Microseconds())/float64(len(cold))/1000,
			float64(hotTotal.Microseconds())/float64(len(eff))/1000,
			100*float64(second)/float64(len(eff)),
			paper.P20, paper.ColdMs, paper.HotMs)
	}
	return nil
}

// table3 reproduces the distributed runs: speedup from 1..N servers and
// multi-stream throughput on N servers, hot data. It fails when any
// N-server ranking differs from the 1-server ranking: partitioning must
// not change an answer.
func table3(p params) error {
	docs, nq, servers, seed := p.docs, p.queries, p.servers, p.seed
	header("Table 3: performance of the distributed runs (hot data)")
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = docs
	cfg.Seed = seed
	c := corpus.Generate(cfg)
	queries := c.EfficiencyQueries(nq, seed+3)
	warm := queries
	if len(warm) > 200 {
		warm = warm[:200]
	}
	strat := ir.BM25TCMQ8

	// Sequential baseline: one server holding the full collection.
	fmt.Printf("building 1-server full-collection baseline ...\n")
	single, err := dist.StartCluster(c, 1)
	if err != nil {
		return err
	}
	if err := single.WarmAll(strat, warm, 20); err != nil {
		return err
	}
	defer single.Close()
	seqStats, err := single.RunStreams(queries, 1, 20, strat)
	if err != nil {
		return err
	}

	// One N-way partitioned cluster serves both the full distributed run
	// and the fixed-partition-size "using less servers" rows (queries over
	// the first n partitions only), exactly as in Table 3.
	fmt.Printf("building %d-server cluster ...\n", servers)
	cl, err := dist.StartCluster(c, servers)
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := cl.WarmAll(strat, warm, 20); err != nil {
		return err
	}
	if err := sameRankings(single, cl, queries, 20, strat); err != nil {
		return err
	}
	fmt.Printf("%d-server rankings equal the 1-server rankings on all %d queries\n", servers, len(queries))

	fmt.Printf("\nFull run (hot data)\n")
	fmt.Printf("%-28s %10s %10s | %8s %8s %8s\n",
		"configuration", "abs ms/q", "amort ms", "min ms", "avg ms", "max ms")
	printRun("sequential (1 server)", seqStats)
	full, err := cl.RunStreams(queries, 1, 20, strat)
	if err != nil {
		return err
	}
	printRun(fmt.Sprintf("%d servers", servers), full)

	fmt.Printf("\nUsing less servers (1 stream, fixed partition size)\n")
	for n := servers / 2; n >= 1; n /= 2 {
		sub := cl.Sub(n)
		st, err := sub.RunStreams(queries, 1, 20, strat)
		if err != nil {
			return err
		}
		printRun(fmt.Sprintf("%d server(s)", n), st)
	}

	fmt.Printf("\nIncreasing the concurrency (%d servers)\n", servers)
	for _, streams := range []int{1, 2, 4, 8} {
		st, err := cl.RunStreams(queries, streams, 20, strat)
		if err != nil {
			return err
		}
		printRun(fmt.Sprintf("%d streams", streams), st)
	}
	fmt.Println("\n(paper shape: partitioned speedup is far from linear because per-query")
	fmt.Println(" latency tracks the slowest server — max >> min across partitions — while")
	fmt.Println(" amortized per-query time keeps falling as concurrent streams are added,")
	fmt.Println(" i.e. throughput scales even though latency does not)")
	return nil
}

// sameRankings runs the queries through a broker of each cluster and
// returns an error at the first ranking that differs in DocID or Score.
func sameRankings(a, b *dist.Cluster, queries []corpus.Query, k int, strat ir.Strategy) error {
	reqs := make([]dist.Request, len(queries))
	for i, q := range queries {
		reqs[i] = dist.Request{Terms: q.Terms, K: k, Strategy: strat}
	}
	var outs [2][]dist.BatchResult
	for i, cl := range []*dist.Cluster{a, b} {
		brk, err := cl.NewBroker()
		if err != nil {
			return err
		}
		outs[i], _, err = brk.SearchMany(context.Background(), reqs)
		brk.Close()
		if err != nil {
			return err
		}
	}
	for qi, q := range queries {
		x, y := outs[0][qi], outs[1][qi]
		if x.Err != nil || y.Err != nil {
			return fmt.Errorf("query %v: %v, %v", q.Terms, x.Err, y.Err)
		}
		if len(x.Results) != len(y.Results) {
			return fmt.Errorf("query %v: %d results on %d servers, %d on 1",
				q.Terms, len(y.Results), b.Partitions(), len(x.Results))
		}
		for r, want := range x.Results {
			if got := y.Results[r]; got.DocID != want.DocID || got.Score != want.Score {
				return fmt.Errorf("query %v rank %d: (%d, %v) on %d servers, (%d, %v) on 1",
					q.Terms, r, got.DocID, got.Score, b.Partitions(), want.DocID, want.Score)
			}
		}
	}
	return nil
}

func printRun(name string, st dist.RunStats) {
	fmt.Printf("%-28s %10.2f %10.2f | %8.2f %8.2f %8.2f\n",
		name, loadgen.Ms(st.Absolute), loadgen.Ms(st.Amortized), loadgen.Ms(st.MinServer), loadgen.Ms(st.AvgServer), loadgen.Ms(st.MaxServer))
}

// ratios reports the §3.3 compression ratios of the inverted-list columns.
func ratios(p params) error {
	header("§3.3 compression ratios (bits per posting tuple)")
	_, ix, err := buildTestbed(p.docs, p.seed)
	if err != nil {
		return err
	}
	rows := []struct {
		name, col string
		paper     float64
	}{
		{"docid uncompressed", ir.ColDocID32, 32},
		{"docid PFOR-DELTA-8", ir.ColDocIDC, 11.98},
		{"tf    uncompressed", ir.ColTF32, 32},
		{"tf    PFOR-8", ir.ColTFC, 8.13},
		{"score f32 (materialized)", ir.ColScore, 32},
		{"score quantized 8-bit", ir.ColQScore, 8},
	}
	fmt.Printf("%-26s %12s %12s\n", "column", "measured", "paper")
	for _, r := range rows {
		bpv, err := ix.BitsPerPosting(r.col)
		if err != nil {
			return err
		}
		fmt.Printf("%-26s %12.2f %12.2f\n", r.name, bpv, r.paper)
	}
	return nil
}

// vecsize sweeps the vector size of the execution pipeline over hot BM25
// queries — the §4 "varying MonetDB/X100 parameters" demonstration.
func vecsize(p params) error {
	docs, nq, seed := p.docs, p.queries, p.seed
	header("§4 ablation: query time vs vector size (hot data, BM25TC)")
	c, ix, err := buildTestbed(docs, seed)
	if err != nil {
		return err
	}
	queries := c.EfficiencyQueries(min(nq, 500), seed+4)
	// Warm.
	warmSearcher := ir.NewSearcher(ix, 0)
	for _, q := range queries {
		if _, _, err := warmSearcher.Search(q.Terms, 20, ir.BM25TC); err != nil {
			return err
		}
	}
	fmt.Printf("%-12s %14s\n", "vector size", "hot ms/query")
	for _, vs := range []int{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536} {
		s := ir.NewSearcher(ix, vs)
		start := time.Now()
		for _, q := range queries {
			if _, _, err := s.Search(q.Terms, 20, ir.BM25TC); err != nil {
				return err
			}
		}
		total := time.Since(start)
		fmt.Printf("%-12d %14.3f\n", vs, float64(total.Microseconds())/float64(len(queries))/1000)
	}
	fmt.Println("\n(paper shape: tuple-at-a-time (size 1) pays interpretation overhead per")
	fmt.Println(" value; very large vectors spill the CPU cache; the optimum sits at a")
	fmt.Println(" cache-resident size in the hundreds-to-thousands)")
	return nil
}

// hedgeExperiment measures the replica-group tail-latency defenses: a
// partitioned cluster where every partition range is served by two
// replicas, one of which is an induced intermittent straggler (it stalls
// every 10th request it sees — the kind of fault a latency estimate alone
// cannot route around, because the replica is fast between stalls). The
// same hot query stream runs through an unhedged broker and through one
// under WithHedging, whose groups arm their own budgets from the
// latencies they observe — nothing is calibrated by hand. Unhedged p99
// absorbs the full stall; hedged p99 sits near the budget because the
// slice is re-issued to the healthy replica and the first answer wins. A
// final round kills a whole replica per partition mid-service and shows
// the broker failing over without dropping a query.
func hedgeExperiment(p params) error {
	docs, nq, servers, seed := p.docs, p.queries, p.servers, p.seed
	header("Replica groups: hedged fan-out vs an intermittent straggler, then failover")
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = docs
	cfg.Seed = seed
	c := corpus.Generate(cfg)
	queries := c.EfficiencyQueries(min(nq, 2000), seed+17)
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

	// Both brokers get the same unmeasured lead-in on the healthy cluster:
	// it arms the hedged broker's groups (a group hedges nothing before 32
	// observed wins) and gives the healthy p50 the fault is sized from.
	unhedged, err := cl.NewBroker()
	if err != nil {
		return err
	}
	defer unhedged.Close()
	hedged, err := cl.NewBroker(dist.WithHedging())
	if err != nil {
		return err
	}
	defer hedged.Close()
	lead := queries[:min(len(queries), 64)]
	healthy, _, err := runLatencies(ctx, unhedged, lead, 20, strat)
	if err != nil {
		return err
	}
	if _, _, err := runLatencies(ctx, hedged, lead, 20, strat); err != nil {
		return err
	}

	// The fault: replica 0 of partition 0 stalls every 10th request it
	// serves, for 80 healthy p50s (at least 25 ms). Round-robin primary
	// duty sends it half the stream, so roughly 5% of queries hit a stall
	// — squarely inside the p99.
	stall := max(80*loadgen.Percentile(healthy, 50), 25*time.Millisecond)
	cl.Replica(0, 0).SetFault(10, dist.FaultStall, stall)
	fmt.Printf("straggler: partition 0 replica 0 stalls %.1f ms every 10th request\n\n",
		loadgen.Ms(stall))

	fmt.Printf("%-10s %10s %10s %10s %10s %8s %10s %8s %14s\n",
		"broker", "p50 ms", "p90 ms", "p99 ms", "max ms", "hedged", "hedge rate", "retried", "budgets ms")
	for _, mode := range []struct {
		name string
		brk  *dist.Broker
	}{
		{"unhedged", unhedged},
		{"hedged", hedged},
	} {
		lats, timing, err := runLatencies(ctx, mode.brk, queries, 20, strat)
		if err != nil {
			return err
		}
		m := mode.brk.MetricsSnapshot()
		// Hedge rate per opportunity: every call gives each partition group
		// one chance to hedge its slice, and the rate cap is enforced per
		// group over every call, lead-in included — so the hedges and the
		// denominator (calls x groups) are the broker's totals.
		rate := float64(m.Hedged) / float64(m.Calls*int64(len(m.Groups)))
		budgets := ""
		for gi, g := range m.Groups {
			if gi > 0 {
				budgets += "/"
			}
			budgets += fmt.Sprintf("%.2f", loadgen.Ms(g.HedgeBudget))
		}
		fmt.Printf("%-10s %10.2f %10.2f %10.2f %10.2f %8d %9.2f%% %8d %14s\n",
			mode.name, loadgen.Ms(loadgen.Percentile(lats, 50)), loadgen.Ms(loadgen.Percentile(lats, 90)),
			loadgen.Ms(loadgen.Percentile(lats, 99)), loadgen.Ms(loadgen.Percentile(lats, 100)),
			m.Hedged, rate*100, timing.Retried, budgets)
	}

	// Failover: kill one whole replica of every partition while the hedged
	// broker keeps serving — every query must still be answered, with the
	// retry counter recording the transparent re-issues.
	fmt.Printf("\nkilling replica 0 of every partition, same broker keeps serving ...\n")
	for p := 0; p < cl.Partitions(); p++ {
		cl.Replica(p, 0).SetFault(0, dist.FaultNone, 0)
		cl.Replica(p, 0).Close()
	}
	kill := queries[:min(len(queries), 400)]
	lats, timing, err := runLatencies(ctx, hedged, kill, 20, strat)
	if err != nil {
		return err
	}
	fmt.Printf("%d/%d queries answered on the surviving replicas (retried %d, p99 %.2f ms)\n",
		len(lats), len(kill), timing.Retried,
		float64(loadgen.Percentile(lats, 99).Microseconds())/1000)

	fmt.Println("\n(shape: the unhedged p99 absorbs the full stall because per-query latency")
	fmt.Println(" tracks the slowest partition server; the hedged p99 sits near the hedge")
	fmt.Println(" budget — 4x each group's own median — because the stalled slice is")
	fmt.Println(" re-issued to the healthy replica and the first answer wins, at a hedge")
	fmt.Println(" rate the 5% cap bounds. Killing a replica outright is absorbed the same")
	fmt.Println(" way: the broker retries the slice on the surviving replica and only a")
	fmt.Println(" whole dead replica group would surface an error)")
	return nil
}

// runLatencies pushes the queries through the broker one at a time,
// returning each query's end-to-end latency plus the summed hedge/retry
// counters.
func runLatencies(ctx context.Context, brk *dist.Broker, queries []corpus.Query, k int, strat ir.Strategy) ([]time.Duration, dist.Timing, error) {
	var agg dist.Timing
	lats := make([]time.Duration, 0, len(queries))
	for _, q := range queries {
		_, timing, err := brk.SearchContext(ctx, q.Terms, k, strat)
		if err != nil {
			return nil, agg, err
		}
		agg.Hedged += timing.Hedged
		agg.Retried += timing.Retried
		lats = append(lats, timing.Total)
	}
	return lats, agg, nil
}
