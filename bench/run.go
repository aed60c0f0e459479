package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/loadgen"
)

// config is one command's resolved settings. Only docs, seed, seconds and
// trace are meant to vary between commands; the rest are recorded in the
// result document so two documents can be checked for comparability.
type config struct {
	docs         int
	seed         int64
	seconds      float64
	warmQueries  int
	setupReps    int
	clients      int
	coldPoolFrac float64
	traceSample  int
	trace        bool
	workDir      string
	outDir       string
}

const (
	// queryPool is how many efficiency queries are generated; clients cycle
	// through them, so a 10 s phase at a few thousand queries/s revisits
	// each a handful of times (the result cache is off: a repeat does the
	// same work).
	queryPool = 4096
	// gateQueries is the size of the correctness gate.
	gateQueries = 50
)

// newEnv generates the inputs from the seed: the collection, the timed
// queries and the gate queries. The system under test receives only these.
func newEnv(cfg config) *env {
	t0 := time.Now()
	cc := corpus.DefaultConfig()
	cc.NumDocs = cfg.docs
	cc.Seed = cfg.seed
	coll := corpus.Generate(cc)
	return &env{
		cfg:     cfg,
		coll:    coll,
		queries: coll.EfficiencyQueries(queryPool, cfg.seed+1),
		gate:    coll.PrecisionQueries(gateQueries, cfg.seed+2),
		genTime: time.Since(t0),
		refs:    map[int][][]ir.Result{},
	}
}

// reference answers the gate queries from a centralized in-memory index
// over the first `docs` documents of the collection — the oracle every
// workload must match DocID+Score bit-exact. Answers are kept: three
// workloads share the full collection's.
func reference(e *env, docs int) ([][]ir.Result, error) {
	if want, ok := e.refs[docs]; ok {
		return want, nil
	}
	coll := e.coll
	if docs < len(coll.DocLens) {
		var err error
		if coll, err = coll.Slice(0, docs); err != nil {
			return nil, err
		}
	}
	ix, err := ir.Build(coll, ir.DefaultBuildConfig())
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	s := ir.NewSearcher(ix, 0)
	want := make([][]ir.Result, len(e.gate))
	for i, q := range e.gate {
		if want[i], _, err = s.Search(q.Terms, resultDepth, ir.StrategyDefault); err != nil {
			return nil, fmt.Errorf("reference query %v: %w", q.Terms, err)
		}
	}
	e.refs[docs] = want
	return want, nil
}

// gate checks the workload's answers to the gate queries against the
// reference, reporting the first differing query.
func gate(e *env, st *state, want [][]ir.Result) error {
	for i, q := range e.gate {
		got, err := st.search(0, q.Terms)
		if err != nil {
			return fmt.Errorf("gate query %v: %w", q.Terms, err)
		}
		if err := sameRanking(got.hits, want[i]); err != nil {
			return fmt.Errorf("gate query %d %v differs from the centralized reference: %w", i, q.Terms, err)
		}
	}
	return nil
}

func sameRanking(got, want []ir.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].DocID != want[i].DocID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d: (doc %d, score %v), reference (doc %d, score %v)",
				i, got[i].DocID, got[i].Score, want[i].DocID, want[i].Score)
		}
	}
	return nil
}

// ready runs set-up plus the work-sized warm-up and reports the seconds
// from collection-in-memory to ready-for-first-timed-query.
func ready(e *env, wl *workload, dir string) (*state, float64, error) {
	t0 := time.Now()
	st, err := wl.setup(e, dir)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	warm := runClosedLoop(e.cfg.clients, e.queries, st.search, afterOps(e.cfg.warmQueries))
	if warm.failed > 0 {
		st.close()
		return nil, 0, fmt.Errorf("%s warm-up: %d of %d searches failed, first: %w", wl.name, warm.failed, warm.attempted, warm.firstErr)
	}
	return st, time.Since(t0).Seconds(), nil
}

// repeatSetup runs set-up cfg.setupReps times, each in its own directory
// under base and from a collected heap, and returns the last state (the one
// the timed phase runs on) with every repetition's setup seconds and bulk
// write rate. When set-up is repeated, one more runs first and is not
// counted: a process's first builds also grow the heap and fault its memory
// in, and mixing those with the later ones is most of what made the median
// unsteady.
func repeatSetup(e *env, wl *workload, base string) (st *state, setupSecs, writeRates []float64, err error) {
	first := 0
	if e.cfg.setupReps > 1 {
		first = -1
	}
	for rep := first; rep < e.cfg.setupReps; rep++ {
		dir := filepath.Join(base, fmt.Sprint(rep))
		runtime.GC()
		var secs float64
		if st, secs, err = ready(e, wl, dir); err != nil {
			return nil, nil, nil, err
		}
		if rep >= 0 {
			setupSecs = append(setupSecs, secs)
			if st.writeSeconds > 0 {
				writeRates = append(writeRates, float64(st.writeDocs)/st.writeSeconds)
			}
		}
		if rep < e.cfg.setupReps-1 {
			if err := st.close(); err != nil {
				return nil, nil, nil, err
			}
			os.RemoveAll(dir)
		}
	}
	return st, setupSecs, writeRates, nil
}

// runWorkload measures one workload: set-up (repeated, median reported),
// correctness gate, timed closed-loop phase, and — under -trace — the layer
// replay and kernel measurements.
func runWorkload(e *env, wl *workload) (res workloadResult, err error) {
	res = workloadResult{Name: wl.name, Why: wl.why,
		EndToEnd: map[string]metric{}, Ungated: map[string]metric{}, PerLayer: map[string]metric{}}
	base, err := os.MkdirTemp(e.cfg.workDir, wl.name+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(base)

	st, setupSecs, writeRates, err := repeatSetup(e, wl, base)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := st.close(); err == nil {
			err = cerr
		}
	}()

	if !wl.ingest {
		want, err := reference(e, len(e.coll.DocLens))
		if err != nil {
			return res, err
		}
		if err := gate(e, st, want); err != nil {
			return res, err
		}
	}

	candidates, secondPass, err := countPass(e, st)
	if err != nil {
		return res, fmt.Errorf("%s: %w", wl.name, err)
	}

	// Timed phase. Counters and allocator statistics are read around it;
	// nothing inside it is instrumented.
	if err := flushDir(base); err != nil {
		return res, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := st.counters()
	readers, stop := e.cfg.clients, afterTime(time.Duration(e.cfg.seconds*float64(time.Second)))
	var ing ingestRun
	var writer sync.WaitGroup
	if wl.ingest {
		// The writer's script is fixed and the readers' phase lasts as long as
		// it does, so every run searches the same sequence of indexes and a
		// faster or slower Add changes add_docs_per_s, not what the readers
		// are measured on.
		var scriptDone atomic.Bool
		readers, stop = max(1, e.cfg.clients-1), scriptDone.Load
		from, to := ingestScript(e)
		writer.Add(1)
		go func() {
			defer writer.Done()
			defer scriptDone.Store(true)
			ing = replayScript(st.eng, e.coll, from, to)
		}()
	}
	load := runClosedLoop(readers, e.queries, st.search, stop)
	writer.Wait()
	c1 := st.counters()
	runtime.ReadMemStats(&m1)

	res.Attempted, res.Failed = load.attempted, load.failed
	if load.failed > 0 {
		return res, fmt.Errorf("%s: %d of %d timed searches failed, first: %w", wl.name, load.failed, load.attempted, load.firstErr)
	}
	if wl.ingest {
		if ing.err != nil {
			return res, fmt.Errorf("%s writer: %w", wl.name, ing.err)
		}
		if err := settle(st.eng); err != nil {
			return res, err
		}
		_, to := ingestScript(e)
		want, err := reference(e, to)
		if err != nil {
			return res, err
		}
		if err := gate(e, st, want); err != nil {
			return res, err
		}
	}
	res.Correct = true

	p50 := loadgen.Percentile(load.lats, 50)
	p95, err := checkedPercentile(load.lats, 95)
	if err != nil {
		return res, fmt.Errorf("%s: %w", wl.name, err)
	}
	p99 := loadgen.Percentile(load.lats, 99)
	n := len(load.lats)
	// The read-only workloads' write path is the half-second build+persist of
	// set-up, which page faults, GC and neighbours only ever slow down: the
	// fastest repetition is what the code can do and what repeats.
	addRate := slices.Max(append(writeRates, 0))
	if wl.ingest {
		addRate = float64(ing.docs) / ing.active.Seconds()
	}
	fill(res.EndToEnd, endToEnd, map[string]metric{
		"qps":                    {Value: float64(n) / load.elapsed.Seconds(), Samples: n},
		"p50_ms":                 {Value: ms(p50), Samples: n},
		"p95_ms":                 {Value: ms(p95), Samples: n},
		"add_docs_per_s":         {Value: addRate, Samples: max(len(writeRates), len(ing.batches))},
		"disk_bytes_per_posting": {Value: float64(st.diskBytes) / float64(st.postings)},
		"setup_s":                {Value: medianFloat(setupSecs), Samples: len(setupSecs)},
	})
	fill(res.Ungated, ungated, map[string]metric{
		"tail_p99_ms":  {Value: ms(p99), Samples: n},
		"failed_share": {Value: float64(load.failed) / float64(load.attempted)},
		"corpus_gen_s": {Value: e.genTime.Seconds()},
	})

	layers := counterMetrics(load, c0, c1, &m0, &m1)
	layers["candidates_per_query"], layers["second_pass_share"] = candidates, secondPass
	if st.eng != nil {
		layers["pool_wait_p99_us"] = us(st.eng.MetricsSnapshot().PoolWait.P99)
		seg := st.eng.SegmentStats()
		if wl.ingest {
			layers["add_batch_p50_ms"] = ms(loadgen.Percentile(ing.batches, 50))
			layers["add_batch_p95_ms"] = ms(loadgen.Percentile(ing.batches, 95))
			layers["merges"] = float64(seg.Merges)
			layers["segments_final"] = float64(seg.Segments)
			layers["virtual_final"] = float64(seg.Virtual)
		}
	}
	if e.cfg.trace {
		traced, err := tracedRun(e, wl, st, p50)
		if err != nil {
			return res, fmt.Errorf("%s traced run: %w", wl.name, err)
		}
		for k, v := range traced {
			layers[k] = v
		}
	}
	measured := make(map[string]metric, len(layers))
	for name, v := range layers {
		measured[name] = metric{Value: v}
	}
	fill(res.PerLayer, perLayer, measured)
	return res, nil
}

// fill copies the measured values of the defined metrics into dst, each
// with the unit its definition gives it.
func fill(dst map[string]metric, defs []metricDef, measured map[string]metric) {
	for _, def := range defs {
		if m, ok := measured[def.Name]; ok {
			m.Unit = def.Unit
			dst[def.Name] = m
		}
	}
}

// flushDir fsyncs every file under dir, so that the kernel's write-back of
// what set-up just wrote does not compete with the timed phase for the
// cores. The pages stay in the page cache; reads are no colder for it.
func flushDir(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

// counterMetrics turns the counter deltas read around the timed phase into
// per-layer metrics: work counted at the layer boundary, per operation.
func counterMetrics(load loadResult, c0, c1 storageCounters, m0, m1 *runtime.MemStats) map[string]float64 {
	ops := float64(load.attempted)
	hits, misses := float64(c1.hits-c0.hits), float64(c1.misses-c0.misses)
	out := map[string]float64{
		"evictions_per_query":    float64(c1.evictions-c0.evictions) / ops,
		"shared_waits_per_query": float64(c1.shared-c0.shared) / ops,
		"file_reads_per_query":   float64(c1.fileReads-c0.fileReads) / ops,
		"file_kb_per_query":      float64(c1.fileBytes-c0.fileBytes) / 1024 / ops,
		"hedged":                 float64(load.hedged),
		"retried":                float64(load.retried),
		"allocs_per_op":          float64(m1.Mallocs-m0.Mallocs) / ops,
		"kb_per_op":              float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ops,
		"gc_pause_ms":            float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		"gc_cycles":              float64(m1.NumGC - m0.NumGC),
	}
	if hits+misses > 0 {
		out["chunk_hit_rate"] = 100 * hits / (hits + misses)
	}
	if len(load.brokerOverhead) > 0 {
		out["broker_overhead_us"] = us(medianDuration(load.brokerOverhead))
		out["server_max_us"] = us(medianDuration(load.srvMax))
	}
	return out
}
