package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/colbm"
	"repro/internal/compress"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/primitives"
	"repro/internal/storage"
	"repro/internal/vector"
)

// replayLayer ties one span of the layer replay to the module it measures,
// the per-layer metric its median self time is reported as, and its parent
// in the span tree of one query (an index into replayLayers, -1 for the
// root).
type replayLayer struct {
	layer, span, metric string
	parent              int
}

// replayLayers is the call chain of one BM25TCMQ8 query, outermost first.
// Each call is replayed on its own around the exported function named, so
// the chain needs no instrumentation inside the program. GetChunk and
// DecodeRange are both children of Cursor.Read.
var replayLayers = []replayLayer{
	{"repro", "Engine.Search", "self_repro_us", -1},
	{"internal/ir", "ir.Searcher.SearchContext", "self_ir_us", 0},
	{"internal/engine", "engine.Scan.Next", "self_engine_us", 1},
	{"internal/colbm", "colbm.Cursor.Read", "self_colbm_us", 2},
	{"internal/storage", "storage.Manager.GetChunk", "self_storage_us", 3},
	{"internal/compress", "compress.Decoder.DecodeRange", "self_compress_us", 3},
}

// termRange is one query term's posting rows in the TD table.
type termRange struct{ start, end int }

// replayQuery is one query of the replay sample, resolved against the index.
type replayQuery struct {
	terms  []string
	ranges []termRange
	passes int // 1, or 2 when the conjunctive first pass fell short of k
}

// scanColumns are the TD columns the BM25TCMQ8 plan reads: compressed
// docids and 8-bit quantized scores.
var scanColumns = []string{ir.ColDocIDC, ir.ColQScore}

// pieces calls fn for every (chunk, offset in chunk, count) one cursor read
// of n rows at pos touches — more than one only where the vector straddles
// a chunk boundary.
func pieces(col *colbm.Column, pos, n int, fn func(ci, inChunk, n int) error) error {
	chunkLen := col.Chunk(0).N // every chunk but the last is full
	for done := 0; done < n; {
		p := pos + done
		ci := p / chunkLen
		inChunk := p - ci*chunkLen
		take := min(col.Chunk(ci).N-inChunk, n-done)
		if err := fn(ci, inChunk, take); err != nil {
			return err
		}
		done += take
	}
	return nil
}

// fetchChunk is the cursor's chunk fetch made from outside: a buffer-
// manager lookup whose loader reads the chunk's extent from the block store
// and parses it into the cached form.
func fetchChunk(ix *ir.Index, cache colbm.ChunkCache, col *colbm.Column, ci int) (*colbm.CachedChunk, error) {
	return cache.GetChunk(colbm.ChunkKey(col.BlobName(), ci), func() (*colbm.CachedChunk, error) {
		info := col.Chunk(ci)
		raw, err := ix.Store.Read(col.BlobName(), info.Off, info.Size)
		if err != nil {
			return nil, err
		}
		return colbm.ParseCachedChunk(&col.Spec, raw)
	})
}

// replayer replays single layers of the query path over one index.
type replayer struct {
	ix   *ir.Index
	cols []*colbm.Column
	ectx *engine.ExecContext
	vecs []*vector.Vector
	dec  *compress.Decoder
	out  []int64
}

func newReplayer(ix *ir.Index) (*replayer, error) {
	strat, err := ix.Resolve(ir.StrategyDefault)
	if err != nil {
		return nil, err
	}
	if strat != ir.BM25TCMQ8 {
		return nil, fmt.Errorf("layer replay knows the BM25TCMQ8 plan, index resolves to %v", strat)
	}
	r := &replayer{
		ix:   ix,
		ectx: engine.NewContext(),
		dec:  compress.NewDecoder(vector.DefaultSize + compress.EntryStride),
		out:  make([]int64, vector.DefaultSize+compress.EntryStride),
	}
	for _, name := range scanColumns {
		col, err := ix.TD.Column(name)
		if err != nil {
			return nil, err
		}
		r.cols = append(r.cols, col)
		r.vecs = append(r.vecs, vector.New(col.Spec.Type, vector.DefaultSize))
	}
	return r, nil
}

// eachVector visits every vector (term index, position, row count) of the
// query's term ranges, once per pass the real query made, in the order a
// merge join over the ranges consumes them: always the range least far
// through its rows next, since every posting list spans the same docids.
// The order matters on a small pool, where alternating between lists is
// what evicts the chunk the other list needs next.
func (q *replayQuery) eachVector(fn func(term, pos, n int) error) error {
	next := make([]int, len(q.ranges))
	for pass := 0; pass < q.passes; pass++ {
		for i, tr := range q.ranges {
			next[i] = tr.start
		}
		for {
			term, least := -1, 2.0
			for i, tr := range q.ranges {
				if next[i] < tr.end {
					if done := float64(next[i]-tr.start) / float64(tr.end-tr.start); done < least {
						term, least = i, done
					}
				}
			}
			if term < 0 {
				break
			}
			n := min(vector.DefaultSize, q.ranges[term].end-next[term])
			if err := fn(term, next[term], n); err != nil {
				return err
			}
			next[term] += n
		}
	}
	return nil
}

// scan pulls the vectors through one RangeScan per term: the engine
// layer's leaf operator, opened, stepped and closed as a plan would.
func (r *replayer) scan(q *replayQuery) error {
	scans := make([]*engine.Scan, len(q.ranges))
	for pass := 0; pass < q.passes; pass++ {
		for i, tr := range q.ranges {
			op, err := engine.NewRangeScan(r.ix.TD, scanColumns, tr.start, tr.end)
			if err != nil {
				return err
			}
			if err := op.Open(r.ectx); err != nil {
				return err
			}
			scans[i] = op
		}
		one := replayQuery{ranges: q.ranges, passes: 1}
		err := one.eachVector(func(term, _, _ int) error {
			_, err := scans[term].Next()
			return err
		})
		for _, op := range scans {
			op.Close()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// cursors makes the scan's cursor reads: each vector from every column in
// turn. One cursor per column serves the whole query; a cursor keeps no
// position, only decode scratch.
func (r *replayer) cursors(q *replayQuery) error {
	curs := make([]*colbm.Cursor, len(r.cols))
	for i, col := range r.cols {
		curs[i] = colbm.NewCursor(col)
	}
	return q.eachVector(func(_, pos, n int) error {
		for i, cur := range curs {
			if err := cur.Read(r.vecs[i], pos, n); err != nil {
				return err
			}
		}
		return nil
	})
}

// chunks makes the chunk fetches those cursor reads make.
func (r *replayer) chunks(q *replayQuery) error {
	return q.eachVector(func(_, pos, n int) error {
		for _, col := range r.cols {
			err := pieces(col, pos, n, func(ci, _, _ int) error {
				_, err := fetchChunk(r.ix, r.ix.Cache, col, ci)
				return err
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// decodeJob is one block decode a cursor read performs.
type decodeJob struct {
	bl             *compress.Block
	aligned, count int
}

// decodeJobs lists the block decodes of the query (compressed columns
// only); fetching the blocks is not part of the decode layer, so the list
// is built before the decodes are timed.
func (r *replayer) decodeJobs(q *replayQuery) ([]decodeJob, error) {
	var jobs []decodeJob
	err := q.eachVector(func(_, pos, n int) error {
		for _, col := range r.cols {
			err := pieces(col, pos, n, func(ci, inChunk, n int) error {
				ch, err := fetchChunk(r.ix, r.ix.Cache, col, ci)
				if err != nil || ch.Block == nil {
					return err
				}
				// The cursor widens a read to the previous entry point.
				aligned := inChunk - inChunk%compress.EntryStride
				jobs = append(jobs, decodeJob{ch.Block, aligned, inChunk - aligned + n})
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	return jobs, err
}

func (r *replayer) decode(jobs []decodeJob) error {
	for _, j := range jobs {
		if err := r.dec.DecodeRange(j.bl, r.out[:j.count], j.aligned, j.count); err != nil {
			return err
		}
	}
	return nil
}

// timeEach runs fn once per query of the sample and returns the per-query
// durations.
func timeEach(qs []replayQuery, fn func(i int, q *replayQuery) error) ([]time.Duration, error) {
	out := make([]time.Duration, len(qs))
	for i := range qs {
		t0 := time.Now()
		if err := fn(i, &qs[i]); err != nil {
			return nil, fmt.Errorf("query %v: %w", qs[i].terms, err)
		}
		out[i] = time.Since(t0)
	}
	return out, nil
}

// perQuery adapts a replayer method to timeEach.
func perQuery(fn func(q *replayQuery) error) func(int, *replayQuery) error {
	return func(_ int, q *replayQuery) error { return fn(q) }
}

// layerReplay replays the sample layer by layer — the whole sample through
// one layer, then through the next — so that on a pool smaller than the
// working set every layer meets the same churned cache rather than the
// chunks the layer above just loaded for the same query. The per-query span
// tree is then laid out from the measured durations: a child starts where
// its parent starts (a sibling where the previous one ends), so a layer's
// self time is its duration minus the durations beneath it.
func layerReplay(eng *repro.Engine, sample []corpus.Query) ([]span, []replayQuery, error) {
	ix := eng.Index()
	r, err := newReplayer(ix)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	qs := make([]replayQuery, len(sample))
	starts := make([]time.Duration, len(sample))
	for i, q := range sample {
		qs[i] = replayQuery{terms: q.Terms, passes: 1}
		for _, t := range q.Terms {
			if ti, ok := ix.Terms[t]; ok {
				qs[i].ranges = append(qs[i].ranges, termRange{ti.Start, ti.End})
			}
		}
	}

	durs := make([][]time.Duration, len(replayLayers))
	begin := time.Now()
	durs[0], err = timeEach(qs, func(i int, q *replayQuery) error {
		starts[i] = time.Since(begin)
		resp, err := eng.Search(ctx, repro.SearchRequest{Terms: q.terms, K: resultDepth})
		if resp.Stats.SecondPass {
			q.passes = 2
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	searcher := ir.NewSearcher(ix, 0)
	durs[1], err = timeEach(qs, func(_ int, q *replayQuery) error {
		_, _, err := searcher.SearchContext(ctx, q.terms, resultDepth, ir.StrategyDefault)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if durs[2], err = timeEach(qs, perQuery(r.scan)); err != nil {
		return nil, nil, err
	}
	if durs[3], err = timeEach(qs, perQuery(r.cursors)); err != nil {
		return nil, nil, err
	}
	if durs[4], err = timeEach(qs, perQuery(r.chunks)); err != nil {
		return nil, nil, err
	}
	jobs := make([][]decodeJob, len(qs))
	for i := range qs {
		if jobs[i], err = r.decodeJobs(&qs[i]); err != nil {
			return nil, nil, err
		}
	}
	durs[5], err = timeEach(qs, func(i int, _ *replayQuery) error { return r.decode(jobs[i]) })
	if err != nil {
		return nil, nil, err
	}

	spans := make([]span, 0, len(qs)*len(replayLayers))
	for qi := range qs {
		base := len(spans)
		for li, l := range replayLayers {
			s := span{Name: l.span, Query: qi, Parent: -1, Start: starts[qi]}
			if l.parent >= 0 {
				s.Parent = base + l.parent
				s.Start = spans[s.Parent].Start
				if replayLayers[li-1].parent == l.parent { // sibling: follow the previous child
					s.Start = spans[base+li-1].End
				}
			}
			s.End = s.Start + durs[li][qi]
			spans = append(spans, s)
		}
	}
	return spans, qs, nil
}

// tracedRun is the separate traced pass over a monolithic persisted state
// (hot-scan, cold-scan): the layer replay with its trace file and table,
// the kernel measurements of each module on a hot handle of the same
// directory, and — where the pool fits — the cost of the program's own
// tracing. Other workloads have no single index to replay and report
// nothing here.
func tracedRun(e *env, wl *workload, st *state, timedP50 time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	if st.dir == "" {
		return out, nil
	}
	sample := e.queries[:min(e.cfg.traceSample, len(e.queries))]
	spans, qs, err := layerReplay(st.eng, sample)
	if err != nil {
		return nil, err
	}
	rows := layerTable(spans, replayLayers)
	printLayerTable(os.Stderr, wl.name, rows)
	if err := writeTraceFile(e.cfg.outDir, traceFile{Workload: wl.name, Queries: len(qs), Layers: rows, Spans: spans}); err != nil {
		return nil, err
	}
	spanMedian := func(name string) time.Duration {
		var d []time.Duration
		for _, s := range spans {
			if s.Name == name {
				d = append(d, s.duration())
			}
		}
		return medianDuration(d)
	}
	root := spanMedian(replayLayers[0].span)
	var selfSum float64
	for i, l := range replayLayers {
		out[l.metric] = rows[i].SelfMedianUs
		selfSum += rows[i].SelfMedianUs
	}
	out["replay_search_us"] = us(root)
	out["ir_search_us"] = us(spanMedian(replayLayers[1].span))
	out["engine_overhead_us"] = us(root) - out["ir_search_us"]
	out["storage_self_pct"] = rows[4].SharePct
	out["selftime_sum_ratio"] = selfSum / us(root)
	out["harness_trace_overhead_pct"] = 100 * (us(root) - us(timedP50)) / us(timedP50)

	if out["plan_us"], err = planBuild(st.eng.Index(), qs); err != nil {
		return nil, err
	}
	if err := kernels(st.dir, qs, out); err != nil {
		return nil, err
	}
	if st.poolFits {
		if out["trace_overhead_pct"], err = traceOverhead(st.dir, sample, root); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func writeTraceFile(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+tf.Workload+".json"))
	if err != nil {
		return err
	}
	if err := writeJSON(f, tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// planBuild is the median cost of building (and binding) a query's plan
// without running it — ExplainPlan is the exported call that does exactly
// that.
func planBuild(ix *ir.Index, qs []replayQuery) (float64, error) {
	s := ir.NewSearcher(ix, 0)
	d, err := timeEach(qs[:min(200, len(qs))], func(_ int, q *replayQuery) error {
		_, err := s.ExplainPlan(q.terms, resultDepth, ir.StrategyDefault)
		return err
	})
	return us(medianDuration(d)), err
}

// traceOverhead replays the sample on a second engine over the same
// directory with the program's own tracing sampling every request, and
// reports its median against the untraced replay's.
func traceOverhead(dir string, sample []corpus.Query, untraced time.Duration) (float64, error) {
	eng, err := repro.OpenDir(dir, repro.WithSearchers(1), repro.WithTraceSampling(1))
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	search := engineSearch(eng)
	var lats []time.Duration
	for pass := 0; pass < 2; pass++ { // the first pass fills this engine's pool
		lats = lats[:0]
		for _, q := range sample {
			t0 := time.Now()
			if _, err := search(0, q.Terms); err != nil {
				return 0, err
			}
			lats = append(lats, time.Since(t0))
		}
	}
	return 100 * (us(medianDuration(lats)) - us(untraced)) / us(untraced), nil
}

// kernels measures each module's own throughput on a handle of the index
// whose pool holds everything, so the numbers mean the same on hot-scan and
// cold-scan: what the layer costs once its input is resident.
func kernels(dir string, qs []replayQuery, out map[string]float64) error {
	// The timed phase and the replay leave garbage behind (megabytes per
	// query on a small pool); collect it first, or the kernels' own
	// allocations are charged for marking it.
	runtime.GC()
	ix, err := repro.LoadIndex(dir, 0)
	if err != nil {
		return err
	}
	defer ix.Close()
	r, err := newReplayer(ix)
	if err != nil {
		return err
	}
	var tuples float64
	for i := range qs {
		for _, tr := range qs[i].ranges {
			tuples += float64(qs[i].passes * (tr.end - tr.start))
		}
	}
	rate := func(fn func(q *replayQuery) error) (float64, error) {
		if _, err := timeEach(qs, perQuery(fn)); err != nil { // fills the pool
			return 0, err
		}
		d, err := timeEach(qs, perQuery(fn))
		var total time.Duration
		for _, x := range d {
			total += x
		}
		return tuples / total.Seconds() / 1e6, err
	}
	if out["scan_mtuples_s"], err = rate(r.scan); err != nil {
		return err
	}
	// A cursor read moves one value per column per tuple.
	if out["cursor_mvalues_s"], err = rate(r.cursors); err != nil {
		return err
	}
	out["cursor_mvalues_s"] *= float64(len(scanColumns))
	if out["mergejoin_mtuples_s"], err = mergeJoinRate(ix, qs); err != nil {
		return err
	}
	out["bm25_ns_per_value"] = bm25Kernel(ix.Params)

	for _, c := range []struct{ col, rate, exc, bits string }{
		{ir.ColDocIDC, "decode_docid_mvalues_s", "exception_rate_docid", "bits_per_posting_docid"},
		{ir.ColTFC, "decode_tf_mvalues_s", "exception_rate_tf", "bits_per_posting_tf"},
	} {
		col, err := ix.TD.Column(c.col)
		if err != nil {
			return err
		}
		if out[c.rate], out[c.exc], err = decodeRate(ix, col); err != nil {
			return err
		}
		if out[c.bits], err = ix.BitsPerPosting(c.col); err != nil {
			return err
		}
	}
	return storageKernels(ix, r.cols, out)
}

// maxKernelChunks bounds how many chunks of a column a kernel walks.
const maxKernelChunks = 16

// mergeJoinRate drains an inner merge join of the first two term ranges of
// every multi-term query, in input tuples per second.
func mergeJoinRate(ix *ir.Index, qs []replayQuery) (float64, error) {
	ectx := engine.NewContext()
	cols := []string{ir.ColDocIDC}
	var tuples float64
	var total time.Duration
	for i := range qs {
		if len(qs[i].ranges) < 2 {
			continue
		}
		a, b := qs[i].ranges[0], qs[i].ranges[1]
		left, err := engine.NewRangeScan(ix.TD, cols, a.start, a.end)
		if err != nil {
			return 0, err
		}
		right, err := engine.NewRangeScan(ix.TD, cols, b.start, b.end)
		if err != nil {
			return 0, err
		}
		join := engine.NewMergeJoin(left, right, ir.ColDocIDC, ir.ColDocIDC, "l.", "r.")
		t0 := time.Now()
		if err := engine.Drain(join, ectx, nil); err != nil {
			return 0, err
		}
		total += time.Since(t0)
		tuples += float64(a.end - a.start + b.end - b.start)
	}
	if total == 0 {
		return 0, nil
	}
	return tuples / total.Seconds() / 1e6, nil
}

// bm25Kernel times the fused BM25 map primitive at the default vector size.
func bm25Kernel(p primitives.BM25Params) float64 {
	const n, reps = vector.DefaultSize, 20000
	rng := rand.New(rand.NewSource(1))
	tf, doclen, res := make([]int64, n), make([]int64, n), make([]float64, n)
	for i := range tf {
		tf[i] = 1 + int64(rng.Intn(20))
		doclen[i] = 50 + int64(rng.Intn(500))
	}
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		primitives.MapBM25TfLenCol(res, tf, doclen, 1000, p, nil, n)
	}
	return float64(time.Since(t0).Nanoseconds()) / (n * reps)
}

// decodeRate decodes the column's real blocks whole, returning values per
// second (in millions) and the blocks' exception rate.
func decodeRate(ix *ir.Index, col *colbm.Column) (mvalues, excRate float64, err error) {
	var blocks []*compress.Block
	var values, exceptions, largest int
	for ci := 0; ci < min(col.NumChunks(), maxKernelChunks); ci++ {
		ch, err := fetchChunk(ix, ix.Cache, col, ci)
		if err != nil {
			return 0, 0, err
		}
		if ch.Block == nil {
			return 0, 0, fmt.Errorf("column %s chunk %d is not block-encoded", col.Spec.Name, ci)
		}
		blocks = append(blocks, ch.Block)
		values += ch.Block.N
		exceptions += ch.Block.NumExceptions()
		largest = max(largest, ch.Block.N)
	}
	dec := compress.NewDecoder(largest)
	buf := make([]int64, largest)
	const reps = 8
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, bl := range blocks {
			if err := dec.Decode(bl, buf); err != nil {
				return 0, 0, err
			}
		}
	}
	return float64(values*reps) / time.Since(t0).Seconds() / 1e6, float64(exceptions) / float64(values), nil
}

// storageKernels measures the buffer manager and the file store around the
// scan columns' chunks: hit and miss cost of GetChunk, chunk parsing, and
// raw read bandwidth.
func storageKernels(ix *ir.Index, cols []*colbm.Column, out map[string]float64) error {
	type chunkRef struct {
		col *colbm.Column
		ci  int
	}
	var refs []chunkRef
	for _, col := range cols {
		for ci := 0; ci < min(col.NumChunks(), maxKernelChunks); ci++ {
			refs = append(refs, chunkRef{col, ci})
		}
	}

	// Hits: every chunk is resident after one pass.
	const hitLookups = 200000
	for _, ref := range refs {
		if _, err := fetchChunk(ix, ix.Cache, ref.col, ref.ci); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for i := 0; i < hitLookups; i++ {
		ref := refs[i%len(refs)]
		if _, err := fetchChunk(ix, ix.Cache, ref.col, ref.ci); err != nil {
			return err
		}
	}
	out["getchunk_hit_ns"] = float64(time.Since(t0).Nanoseconds()) / hitLookups

	// Misses: a one-byte budget admits each chunk only until the next
	// insert, so cycling over two or more chunks misses every time.
	if len(refs) >= 2 {
		tiny := storage.NewManager(1)
		misses := make([]time.Duration, 0, 8*len(refs))
		for i := 0; i < cap(misses); i++ {
			ref := refs[i%len(refs)]
			t0 := time.Now()
			if _, err := fetchChunk(ix, tiny, ref.col, ref.ci); err != nil {
				return err
			}
			misses = append(misses, time.Since(t0))
		}
		out["getchunk_miss_us"] = us(medianDuration(misses))
	}

	// Raw reads, then parsing the bytes read.
	var bytes int
	var parse []time.Duration
	t0 = time.Now()
	raws := make([][]byte, len(refs))
	for i, ref := range refs {
		info := ref.col.Chunk(ref.ci)
		raw, err := ix.Store.Read(ref.col.BlobName(), info.Off, info.Size)
		if err != nil {
			return err
		}
		raws[i] = raw
		bytes += len(raw)
	}
	out["filestore_read_mb_s"] = float64(bytes) / 1e6 / time.Since(t0).Seconds()
	for i, ref := range refs {
		t0 := time.Now()
		if _, err := colbm.ParseCachedChunk(&ref.col.Spec, raws[i]); err != nil {
			return err
		}
		parse = append(parse, time.Since(t0))
	}
	out["parse_chunk_us"] = us(medianDuration(parse))
	return nil
}
