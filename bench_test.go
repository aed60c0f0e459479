// Benchmarks of paths that cross packages — the Engine API, the Table 2
// and Table 3 runs, persisted storage, live appends — plus the merge join
// over posting lists and the fused-vs-composed BM25 ablation.
// Run everything:
//
//	go test -bench=. -benchmem
//
// Benchmarks of one package's kernels live in that package (the Figure 3
// decoders and the codecs in internal/compress, the buffer manager in
// internal/storage); the gated yardstick is bench/, and cmd/trecbench
// prints the paper's tables.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/primitives"
	"repro/internal/storage"
	"repro/internal/vector"
)

// ---- shared fixtures (built once, reused across benchmarks) ----

var (
	fixOnce sync.Once
	fixColl *corpus.Collection
	fixIx   *ir.Index
	fixEff  []corpus.Query
)

func fixtures(b *testing.B) (*corpus.Collection, *ir.Index, []corpus.Query) {
	b.Helper()
	fixOnce.Do(func() {
		cfg := corpus.DefaultConfig()
		cfg.NumDocs = 12000
		fixColl = corpus.Generate(cfg)
		ix, err := ir.Build(fixColl, ir.DefaultBuildConfig())
		if err != nil {
			panic(err)
		}
		fixIx = ix
		fixEff = fixColl.EfficiencyQueries(512, 1)
		// Warm the pool: the hot-run benchmarks measure CPU, not I/O.
		s := ir.NewSearcher(ix, 0)
		for _, q := range fixEff[:128] {
			for _, strat := range ir.AllStrategies {
				if _, _, err := s.Search(q.Terms, 20, strat); err != nil {
					panic(err)
				}
			}
		}
	})
	return fixColl, fixIx, fixEff
}

// fixtureEngine serves the fixture index from a directory of its own,
// with a GOMAXPROCS-wide searcher pool and the given options.
func fixtureEngine(b *testing.B, opts ...Option) (*Engine, []corpus.Query) {
	b.Helper()
	_, ix, eff := fixtures(b)
	dir := filepath.Join(b.TempDir(), "ix")
	if err := SaveIndex(dir, ix); err != nil {
		b.Fatal(err)
	}
	eng, err := OpenDir(dir, append([]Option{WithSearchers(runtime.GOMAXPROCS(0))}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	return eng, eff
}

// ---- Engine API: concurrent sessioned search ----

// BenchmarkEngineSearchParallel pushes hot queries through the
// concurrency-safe Engine.Search from GOMAXPROCS goroutines — the serving
// path of the redesigned API (searcher pool + context plumbing) versus
// the single-owner Searcher the other Table 2 benchmarks use.
func BenchmarkEngineSearchParallel(b *testing.B) {
	eng, eff := fixtureEngine(b)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := eff[i%len(eff)]
			i++
			if _, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, K: 20, Strategy: BM25TCMQ8}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineSearchParallelTraced is the same workload with tracing
// enabled in its worst steady-state regime: a slow-query threshold far
// above every latency, so EVERY request records a full span tree into a
// pooled arena and the tail-based keep policy then discards it. The
// delta against BenchmarkEngineSearchParallel is the recording overhead
// the observability layer charges the hot path (acceptance bar: <5%).
func BenchmarkEngineSearchParallelTraced(b *testing.B) {
	eng, eff := fixtureEngine(b, WithSlowQueryThreshold(time.Hour))
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := eff[i%len(eff)]
			i++
			if _, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, K: 20, Strategy: BM25TCMQ8}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineSearchMany compares three ways of serving the same
// 64-query batch of hot queries: N sequential Engine.Search calls, one
// Engine.SearchMany (fanned across the searcher pool — on a multi-core
// runner throughput must beat sequential), and SearchMany against a warm
// result cache (served without checking out a searcher at all; the hit
// rate is reported and enforced).
func BenchmarkEngineSearchMany(b *testing.B) {
	_, _, eff := fixtures(b)
	const batch = 64
	reqs := make([]SearchRequest, batch)
	for i := range reqs {
		reqs[i] = SearchRequest{Terms: eff[i%len(eff)].Terms, K: 20, Strategy: BM25TCMQ8}
	}
	ctx := context.Background()
	open := func(b *testing.B, opts ...Option) *Engine {
		eng, _ := fixtureEngine(b, opts...)
		return eng
	}
	b.Run("sequential", func(b *testing.B) {
		eng := open(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				if _, err := eng.Search(ctx, r); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(batch, "queries/op")
	})
	b.Run("batch", func(b *testing.B) {
		eng := open(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, bs, err := eng.SearchMany(ctx, reqs)
			if err != nil {
				b.Fatal(err)
			}
			if bs.Failed > 0 {
				b.Fatalf("%d of %d batched queries failed: %v", bs.Failed, bs.Queries, out)
			}
		}
		b.ReportMetric(batch, "queries/op")
	})
	b.Run("cached", func(b *testing.B) {
		eng := open(b, WithResultCache(2*batch))
		if _, _, err := eng.SearchMany(ctx, reqs); err != nil {
			b.Fatal(err) // prime the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, bs, err := eng.SearchMany(ctx, reqs)
			if err != nil {
				b.Fatal(err)
			}
			if bs.CacheHits != batch {
				b.Fatalf("cache hits %d of %d", bs.CacheHits, batch)
			}
		}
		b.StopTimer()
		st := eng.ResultCacheStats()
		b.ReportMetric(st.HitRate()*100, "hit%")
		b.ReportMetric(batch, "queries/op")
	})
}

// ---- Table 2: the strategy ladder, hot data ----

// BenchmarkTable2HotQueries measures average hot query time per strategy,
// cycling through a realistic workload (avg 2.3 terms per query).
func BenchmarkTable2HotQueries(b *testing.B) {
	_, ix, eff := fixtures(b)
	for _, strat := range ir.AllStrategies {
		b.Run(strat.String(), func(b *testing.B) {
			s := ir.NewSearcher(ix, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := eff[i%len(eff)]
				if _, _, err := s.Search(q.Terms, 20, strat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2ColdQueries measures the cold path: the buffer pool is
// dropped before every query so every posting chunk is re-fetched through
// the simulated disk. Reported ns/op is CPU only (the virtual-clock I/O
// time is reported as a metric, matching how Table 2 separates cold from
// hot).
func BenchmarkTable2ColdQueries(b *testing.B) {
	_, ix, eff := fixtures(b)
	for _, strat := range ir.AllStrategies {
		b.Run(strat.String(), func(b *testing.B) {
			s := ir.NewSearcher(ix, 0)
			var simIO float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Cache.Drop()
				q := eff[i%len(eff)]
				_, st, err := s.Search(q.Terms, 20, strat)
				if err != nil {
					b.Fatal(err)
				}
				simIO += float64(st.SimIO.Nanoseconds())
			}
			b.StopTimer()
			b.ReportMetric(simIO/float64(b.N), "simIOns/op")
			// Restore hot state for later benchmarks.
			warm := ir.NewSearcher(ix, 0)
			for _, q := range eff[:64] {
				if _, _, err := warm.Search(q.Terms, 20, strat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table 3: distributed runs ----

var (
	clusterOnce sync.Once
	cluster     *dist.Cluster
	clusterEff  []corpus.Query
)

func clusterFixture(b *testing.B) (*dist.Cluster, []corpus.Query) {
	b.Helper()
	coll, _, eff := fixtures(b)
	clusterOnce.Do(func() {
		cl, err := dist.StartCluster(coll, 4)
		if err != nil {
			panic(err)
		}
		if err := cl.WarmAll(ir.BM25TCMQ8, eff[:64], 20); err != nil {
			panic(err)
		}
		cluster = cl
		clusterEff = eff
	})
	return cluster, clusterEff
}

// BenchmarkTable3Streams measures amortized per-query time on a 4-server
// loopback cluster under increasing stream concurrency — the throughput
// scaling of Table 3's lower half.
func BenchmarkTable3Streams(b *testing.B) {
	cl, eff := clusterFixture(b)
	for _, streams := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			b.ResetTimer()
			batch := eff
			ran := 0
			for ran < b.N {
				n := b.N - ran
				if n > len(batch) {
					n = len(batch)
				}
				if _, err := cl.RunStreams(batch[:n], streams, 20, ir.BM25TCMQ8); err != nil {
					b.Fatal(err)
				}
				ran += n
			}
		})
	}
}

// BenchmarkTable3ServerScaling measures per-query latency as queries span
// 1..4 of the partition servers (fixed partition size, Table 3's middle
// section).
func BenchmarkTable3ServerScaling(b *testing.B) {
	cl, eff := clusterFixture(b)
	for n := 1; n <= 4; n *= 2 {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			sub := cl.Sub(n)
			brk, err := sub.NewBroker()
			if err != nil {
				b.Fatal(err)
			}
			defer brk.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := eff[i%len(eff)]
				if _, _, err := brk.Search(q.Terms, 20, ir.BM25TCMQ8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- §3.3 compression ratios (reported as metrics) ----

// BenchmarkCompressionRatio reports the stored bits per posting for each
// physical column, next to the encode throughput.
func BenchmarkCompressionRatio(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 1 << 18
	docids := make([]int64, n)
	cur := int64(0)
	for i := range docids {
		cur += int64(1 + rng.Intn(30))
		docids[i] = cur
	}
	tfs := make([]int64, n)
	for i := range tfs {
		tfs[i] = 1 + int64(rng.Intn(12))
	}
	b.Run("docid/PFOR-DELTA-8", func(b *testing.B) {
		var bl *compress.Block
		b.SetBytes(int64(n) * 8)
		for i := 0; i < b.N; i++ {
			var err error
			bl, err = compress.EncodePFORDelta(docids, 8, 0, compress.Patched)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(bl.BitsPerValue(), "bits/value")
	})
	b.Run("tf/PFOR-8", func(b *testing.B) {
		var bl *compress.Block
		b.SetBytes(int64(n) * 8)
		for i := 0; i < b.N; i++ {
			var err error
			bl, err = compress.EncodePFOR(tfs, 8, 0, compress.Patched)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(bl.BitsPerValue(), "bits/value")
	})
}

// ---- §4 ablation: vector size ----

// BenchmarkVectorSize sweeps the vector size of the execution pipeline
// over hot ranked queries: size 1 degenerates to tuple-at-a-time
// processing (interpretation overhead per value), oversized vectors spill
// the CPU cache.
func BenchmarkVectorSize(b *testing.B) {
	_, ix, eff := fixtures(b)
	for _, vs := range []int{1, 16, 256, 1024, 4096, 65536} {
		b.Run(fmt.Sprintf("size=%d", vs), func(b *testing.B) {
			s := ir.NewSearcher(ix, vs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := eff[i%len(eff)]
				if _, _, err := s.Search(q.Terms, 20, ir.BM25TC); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- merge join over posting lists ----

// BenchmarkJoinAblation intersects two realistic posting lists with the
// ordered MergeJoin, which exploits the (term,docid) storage order.
func BenchmarkJoinAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	mk := func(n int) ([]int64, []int64) {
		keys := make([]int64, n)
		vals := make([]int64, n)
		cur := int64(0)
		for i := range keys {
			cur += int64(1 + rng.Intn(20))
			keys[i] = cur
			vals[i] = int64(1 + rng.Intn(12))
		}
		return keys, vals
	}
	lk, lv := mk(200000)
	rk, rv := mk(150000)
	run := func(b *testing.B, mkOp func() engine.Operator) {
		ctx := engine.NewContext()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := mkOp()
			if err := engine.Drain(op, ctx, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	values := func(k, v []int64) engine.Operator {
		op, err := engine.NewValues([]string{"docid", "tf"},
			[]*vector.Vector{vector.NewInt64(k), vector.NewInt64(v)})
		if err != nil {
			b.Fatal(err)
		}
		return op
	}
	b.Run("MergeJoin", func(b *testing.B) {
		run(b, func() engine.Operator {
			return engine.NewMergeJoin(values(lk, lv), values(rk, rv), "docid", "docid", "l.", "r.")
		})
	})
}

// ---- ablation: fused vs composed BM25 expression ----

// BenchmarkBM25Expression compares the fused BM25 map primitive against
// the equivalent tree of generic arithmetic primitives a naive query
// compiler would emit.
func BenchmarkBM25Expression(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	n := 1 << 20
	tf := make([]int64, n)
	doclen := make([]int64, n)
	for i := range tf {
		tf[i] = 1 + int64(rng.Intn(20))
		doclen[i] = 50 + int64(rng.Intn(500))
	}
	params := primitives.BM25Params{K1: 1.2, B: 0.75, NumDocs: 25e6, AvgDocLn: 300}
	mkValues := func() engine.Operator {
		op, err := engine.NewValues([]string{"tf", "len"},
			[]*vector.Vector{vector.NewInt64(tf), vector.NewInt64(doclen)})
		if err != nil {
			b.Fatal(err)
		}
		return op
	}
	run := func(b *testing.B, expr func() engine.Expr) {
		ctx := engine.NewContext()
		b.SetBytes(int64(n) * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			proj := engine.NewProject(mkValues(), []engine.Projection{{Name: "w", Expr: expr()}})
			if err := engine.Drain(proj, ctx, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Fused", func(b *testing.B) {
		run(b, func() engine.Expr {
			return &engine.BM25{
				TF: engine.NewColRef("tf"), DocLen: engine.NewColRef("len"),
				Ftd: 775000, Params: params,
			}
		})
	})
	b.Run("Composed", func(b *testing.B) {
		run(b, func() engine.Expr {
			return engine.BM25Composed(
				engine.NewColRef("tf"), engine.NewColRef("len"), 775000, params)
		})
	})
}

// ---- ablation: buffer-pool capacity (cold/hot continuum) ----

// BenchmarkPoolCapacity sweeps the buffer-pool size from "nothing fits"
// to "everything fits", exposing the cold/hot continuum between the two
// columns of Table 2: simulated I/O time per query is reported as a
// metric next to measured CPU time.
func BenchmarkPoolCapacity(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 8000
	coll := corpus.Generate(cfg)
	eff := coll.EfficiencyQueries(256, 2)
	for _, capBytes := range []int64{1 << 16, 1 << 20, 1 << 24, 0} {
		name := fmt.Sprintf("pool=%dKiB", capBytes/1024)
		if capBytes == 0 {
			name = "pool=unbounded"
		}
		b.Run(name, func(b *testing.B) {
			bc := ir.DefaultBuildConfig()
			bc.PoolBytes = capBytes
			ix, err := ir.Build(coll, bc)
			if err != nil {
				b.Fatal(err)
			}
			s := ir.NewSearcher(ix, 0)
			var simIO float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := eff[i%len(eff)]
				_, st, err := s.Search(q.Terms, 20, ir.BM25TC)
				if err != nil {
					b.Fatal(err)
				}
				simIO += float64(st.SimIO.Nanoseconds())
			}
			b.ReportMetric(simIO/float64(b.N), "simIOns/op")
		})
	}
}

// BenchmarkPersistedStorage measures the storage subsystem end to end:
// one iteration is the full TREC batch against an index persisted in the
// on-disk format and served over FileStore through the buffer manager.
// The cold variant drops the manager before every batch (every chunk pays
// real file I/O); the warm variant keeps it hot and reports the measured
// hit rate — the acceptance bar is a warm hit rate above 90% on repeated
// batches.
func BenchmarkPersistedStorage(b *testing.B) {
	_, ix, eff := fixtures(b)
	dir := b.TempDir()
	if err := SaveIndex(dir, ix); err != nil {
		b.Fatal(err)
	}
	pix, err := LoadIndex(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer pix.Store.Close()
	queries := eff[:128]
	s := ir.NewSearcher(pix, 0)
	runBatch := func() {
		for _, q := range queries {
			if _, _, err := s.Search(q.Terms, 20, ir.BM25TCMQ8); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pix.Cache.Drop()
			runBatch()
		}
		b.ReportMetric(float64(len(queries)), "queries/op")
	})
	b.Run("warm", func(b *testing.B) {
		runBatch() // populate
		pix.Cache.ResetStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runBatch()
		}
		b.StopTimer()
		st := pix.Cache.Stats()
		b.ReportMetric(st.HitRate()*100, "hit%")
		if st.HitRate() <= 0.9 {
			b.Fatalf("warm hit rate %.3f, want > 0.9", st.HitRate())
		}
	})
}

// ---- PR 4: segmented index — live appends, multi-segment search, merge ----

// BenchmarkSegmentedLiveAppend measures the incremental-update loop the
// segmented architecture exists for: each iteration Adds a fresh document
// batch as one immutable segment (commit + refresh, no rebuild of prior
// segments) and serves a hot query burst across the segment set. The
// background merger runs concurrently, bounding the segment count; merge
// totals are reported as metrics.
func BenchmarkSegmentedLiveAppend(b *testing.B) {
	coll, _, eff := fixtures(b)
	const batchDocs = 200
	docs, err := coll.Docs(0, len(coll.DocLens)/2)
	if err != nil {
		b.Fatal(err)
	}
	first, err := coll.Slice(0, len(coll.DocLens)/2)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	eng, err := Open(first, WithStorageDir(dir), WithAutoMerge(6),
		WithSearchers(runtime.GOMAXPROCS(0)))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-ingest a rolling window of existing docs as the "live" batch
		// (names get a nonce so the workload stays append-only in spirit).
		lo := (i * batchDocs) % (len(docs) - batchDocs)
		batch := make([]Doc, batchDocs)
		for j := range batch {
			src := docs[lo+j]
			batch[j] = Doc{Name: fmt.Sprintf("%s+%d", src.Name, i), Tokens: src.Tokens}
		}
		if err := eng.Add(ctx, batch); err != nil {
			b.Fatal(err)
		}
		for q := 0; q < 8; q++ {
			qq := eff[(i*8+q)%len(eff)]
			if _, err := eng.Search(ctx, SearchRequest{Terms: qq.Terms, K: 20}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	st := eng.SegmentStats()
	b.ReportMetric(float64(st.Segments), "segments")
	b.ReportMetric(float64(st.Merges), "merges")
}

// BenchmarkEngineAdd measures one 500-document Engine.Add onto a seed
// segment plus N appended ones, with no merger — how an Add's cost grows
// with the segments beside it. Each op opens the directory at the same
// generation (N-1 appended segments), makes one untimed Add, which folds
// the collection statistics as an engine's first commit does and brings
// the directory to N, and times the next Add; Close sweeps both.
func BenchmarkEngineAdd(b *testing.B) {
	const seedDocs, batchDocs, maxN = 8000, 500, 16
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = seedDocs + (maxN+1)*batchDocs
	cfg.Vocab = 20000
	cfg.AvgDocLen = 100
	coll := corpus.Generate(cfg)
	slice := func(i int) *corpus.Collection { // the i-th batch after the seed
		c, err := coll.Slice(seedDocs+i*batchDocs, seedDocs+(i+1)*batchDocs)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	base := filepath.Join(b.TempDir(), "segix")
	seed, err := coll.Slice(0, seedDocs)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := storage.AppendSegment(base, seed, nil); err != nil {
		b.Fatal(err)
	}
	// gens[n] is the committed SEGMENTS.json holding n appended segments.
	gens := make([][]byte, maxN)
	var st storage.RunningStats
	for n := range gens {
		raw, _, err := storage.ReadSegmentsRaw(base)
		if err != nil {
			b.Fatal(err)
		}
		gens[n] = raw
		if n+1 < maxN {
			if _, err := storage.AppendSegment(base, slice(n), &st); err != nil {
				b.Fatal(err)
			}
		}
	}
	docs := func(i int) []Doc {
		d, err := coll.Docs(seedDocs+i*batchDocs, seedDocs+(i+1)*batchDocs)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	warm, timed := docs(maxN-1), docs(maxN)
	ctx := context.Background()
	for _, n := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("segments=%d", n), func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "segix")
			if err := storage.CopyDir(base, dir); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := storage.WriteFileAtomic(dir, ".segments-*", filepath.Join(dir, storage.SegmentsManifestName), gens[n-1]); err != nil {
					b.Fatal(err)
				}
				eng, err := OpenDir(dir, WithSearchers(1))
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Add(ctx, warm); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := eng.Add(ctx, timed); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
