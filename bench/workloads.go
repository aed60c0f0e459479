package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/ir"
)

// Fixed shape of the workloads. These are constants of the benchmark, not
// options: both sides of any comparison must run the same values. (The
// config fields of the same names exist so the smoke test can scale down.)
const (
	coldPoolFrac    = 0.02 // cold-scan: buffer pool as a share of the on-disk bytes
	distPartitions  = 2    // dist-fanout: partitions x 1 replica
	autoMergeBound  = 4    // ingest-mix: WithAutoMerge
	ingestBatchDocs = 500  // ingest-mix: documents per Engine.Add
	warmQueries     = 500  // searches of the warm-up that ends set-up
	setupReps       = 5    // set-ups of an untraced run; the median is setup_s
	traceSample     = 1000 // queries of the layer replay
	countQueries    = 500  // queries of the pass that counts candidates
	settleTimeout   = 30 * time.Second
)

// workload is one named set of inputs. setup takes the collection in memory
// to a state ready for its first query (warm-up excluded — the caller runs
// it, so every workload warms the same way).
type workload struct {
	name, why string
	setup     func(e *env, dir string) (*state, error)
	// ingest marks the workload whose timed phase runs a writer beside the
	// readers and whose correctness gate therefore runs afterwards.
	ingest bool
}

var workloads = []workload{
	{
		name:  "hot-scan",
		why:   "persisted index, buffer pool holds everything: all time is plan, operators, decode, allocator; storage changes must not show",
		setup: setupHot,
	},
	{
		name:  "cold-scan",
		why:   "same index, pool = 2% of on-disk bytes: buffer-manager miss/evict, file reads and chunk parsing do the work",
		setup: setupCold,
	},
	{
		name:  "dist-fanout",
		why:   "2 partitions over loopback TCP behind a broker: wire, fan-out, wait-for-slowest and top-k merge appear",
		setup: setupDist,
	},
	{
		name:   "ingest-mix",
		why:    "one writer replays a fixed script of 500-doc Add batches beside the readers, who stop when it ends: append, segment build, merge, epoch swap, multi-segment search",
		setup:  setupIngest,
		ingest: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// env is what every workload of one command shares: the configuration and
// the inputs generated from the seed.
type env struct {
	cfg     config
	coll    *corpus.Collection
	queries []corpus.Query // timed-phase and warm-up queries
	gate    []corpus.Query // correctness-gate queries
	genTime time.Duration
	// refs holds the reference answers to the gate queries, by the number of
	// leading documents of the collection they were computed over.
	refs map[int][][]ir.Result
}

// storageCounters are the chunk-cache and file-read counters per-layer
// metrics take deltas of.
type storageCounters struct {
	hits, misses, shared, evictions int64
	fileReads, fileBytes            int64
}

// state is a workload ready to serve.
type state struct {
	search   searchFunc
	close    func() error
	counters func() storageCounters

	// Space: bytes in the workload's own index directory and the postings
	// they hold, taken when set-up completes.
	diskBytes int64
	postings  int
	// Write path of set-up: documents made searchable and the seconds the
	// build+persist took (the read-only workloads' add_docs_per_s).
	writeDocs    int
	writeSeconds float64

	eng *repro.Engine // nil on dist-fanout
	// dir is the monolithic index directory of the scan workloads ("" on
	// the others); poolFits says its buffer pool holds the whole index.
	dir      string
	poolFits bool
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

func indexCounters(ixs ...*ir.Index) storageCounters {
	var c storageCounters
	for _, ix := range ixs {
		cs, ds := ix.Cache.Stats(), ix.Store.Stats()
		c.hits += cs.Hits
		c.misses += cs.Misses
		c.shared += cs.Shared
		c.evictions += cs.Evictions
		c.fileReads += ds.Reads
		c.fileBytes += ds.BytesRead
	}
	return c
}

func engineSearch(eng *repro.Engine) searchFunc {
	ctx := context.Background()
	return func(_ int, terms []string) (reply, error) {
		resp, err := eng.Search(ctx, repro.SearchRequest{Terms: terms, K: resultDepth})
		if err != nil {
			return reply{}, err
		}
		return reply{hits: resp.Hits, candidates: resp.Stats.Candidates, secondPass: resp.Stats.SecondPass}, nil
	}
}

// persistIndex is the write path of the scan workloads: build the index
// from the collection and persist it into dir.
func persistIndex(e *env, dir string, st *state) error {
	t0 := time.Now()
	ix, err := repro.BuildIndex(e.coll, repro.DefaultIndexConfig())
	if err != nil {
		return err
	}
	if err := repro.SaveIndex(dir, ix); err != nil {
		return err
	}
	st.writeSeconds = time.Since(t0).Seconds()
	st.writeDocs = len(e.coll.DocLens)
	st.postings = ix.NumPostings()
	st.diskBytes, err = dirSize(dir)
	return err
}

// setupScan persists the collection and serves it with repro.OpenDir
// through a buffer pool of poolFrac x the on-disk bytes (0 = unbounded, so
// the working set fits).
func setupScan(e *env, dir string, poolFrac float64) (*state, error) {
	st := &state{dir: dir, poolFits: poolFrac == 0}
	if err := persistIndex(e, dir, st); err != nil {
		return nil, err
	}
	opts := []repro.Option{repro.WithSearchers(e.cfg.clients)}
	if poolFrac > 0 {
		opts = append(opts, repro.WithBufferPoolBytes(int64(poolFrac*float64(st.diskBytes))))
	}
	eng, err := repro.OpenDir(dir, opts...)
	if err != nil {
		return nil, err
	}
	st.eng = eng
	st.search = engineSearch(eng)
	st.close = eng.Close
	st.counters = func() storageCounters { return indexCounters(eng.Index()) }
	return st, nil
}

func setupHot(e *env, dir string) (*state, error)  { return setupScan(e, dir, 0) }
func setupCold(e *env, dir string) (*state, error) { return setupScan(e, dir, e.cfg.coldPoolFrac) }

// setupDist builds global-statistics partitions, serves each from its
// directory (pool fits), and dials one broker per client: a broker holds
// one connection per server, so callers that each wait for their own reply
// are callers with their own broker.
func setupDist(e *env, dir string) (*state, error) {
	st := &state{writeDocs: len(e.coll.DocLens), postings: e.coll.NumPostings()}
	t0 := time.Now()
	dirs, err := dist.BuildPartitions(e.coll, distPartitions, ir.DefaultBuildConfig(), dir)
	if err != nil {
		return nil, err
	}
	st.writeSeconds = time.Since(t0).Seconds()
	if st.diskBytes, err = dirSize(dir); err != nil {
		return nil, err
	}
	cl, err := dist.StartClusterFromDirs(dirs, 0)
	if err != nil {
		return nil, err
	}
	brokers := make([]*dist.Broker, e.cfg.clients)
	closeAll := func() error {
		for _, b := range brokers {
			if b != nil {
				b.Close()
			}
		}
		return cl.Close()
	}
	for i := range brokers {
		if brokers[i], err = cl.NewBroker(); err != nil {
			closeAll()
			return nil, err
		}
	}
	ctx := context.Background()
	st.search = func(client int, terms []string) (reply, error) {
		hits, tm, err := brokers[client].SearchContext(ctx, terms, resultDepth, ir.StrategyDefault)
		if err != nil {
			return reply{}, err
		}
		r := reply{hits: hits, candidates: tm.Stats.Candidates, secondPass: tm.Stats.SecondPass,
			brokerTotal: tm.Total, hedged: tm.Hedged, retried: tm.Retried}
		for _, d := range tm.PerServer {
			r.serverMax = max(r.serverMax, d)
		}
		return r, nil
	}
	st.close = closeAll
	st.counters = func() storageCounters {
		ixs := make([]*ir.Index, cl.Partitions())
		for p := range ixs {
			ixs[p] = cl.Replica(p, 0).Index()
		}
		return indexCounters(ixs...)
	}
	return st, nil
}

// ingestSeedDocs is how many documents ingest-mix opens with: the first
// half of the collection.
func ingestSeedDocs(e *env) int { return len(e.coll.DocLens) / 2 }

// ingestScript is the writer's fixed script, documents [from, to) of the
// collection: one ingestBatchDocs batch per second of --seconds (at most the
// second half of the collection). It depends on the command's settings only,
// never on how fast the writer is, so every run ingests the same documents
// and ends on the same index. On the reference box a batch takes about
// 0.6 s beside the readers, so the script fills six tenths of --seconds.
func ingestScript(e *env) (from, to int) {
	from = ingestSeedDocs(e)
	batches := max(1, int(math.Round(e.cfg.seconds)))
	return from, min(from+batches*ingestBatchDocs, len(e.coll.DocLens))
}

// setupIngest opens the first half of the collection as a segmented live
// index with a background merger.
func setupIngest(e *env, dir string) (*state, error) {
	first, err := e.coll.Slice(0, ingestSeedDocs(e))
	if err != nil {
		return nil, err
	}
	st := &state{postings: first.NumPostings()}
	eng, err := repro.Open(first, repro.WithStorageDir(dir), repro.WithSegments(),
		repro.WithAutoMerge(autoMergeBound), repro.WithSearchers(e.cfg.clients))
	if err != nil {
		return nil, err
	}
	if st.diskBytes, err = dirSize(dir); err != nil {
		eng.Close()
		return nil, err
	}
	st.eng = eng
	st.search = engineSearch(eng)
	st.close = eng.Close
	st.counters = func() storageCounters {
		cs := eng.MetricsSnapshot().Storage
		return storageCounters{hits: cs.Hits, misses: cs.Misses, shared: cs.Shared, evictions: cs.Evictions}
	}
	return st, nil
}

// ingestRun is the writer's side of ingest-mix.
type ingestRun struct {
	docs    int             // documents acknowledged
	batches []time.Duration // per-Add latency
	active  time.Duration   // first Add started -> last Add acknowledged
	err     error
}

// replayScript is the ingest-mix writer: it replays the whole script —
// documents [from, to) as ingestBatchDocs-sized Engine.Add batches, back to
// back, same order every run.
func replayScript(eng *repro.Engine, coll *corpus.Collection, from, to int) ingestRun {
	var run ingestRun
	ctx := context.Background()
	start := time.Now()
	for lo := from; lo < to; lo += ingestBatchDocs {
		docs, err := coll.Docs(lo, min(lo+ingestBatchDocs, to))
		if err != nil {
			run.err = err
			return run
		}
		t0 := time.Now()
		if err := eng.Add(ctx, docs); err != nil {
			run.err = fmt.Errorf("add of docs [%d,%d): %w", lo, lo+len(docs), err)
			return run
		}
		run.batches = append(run.batches, time.Since(t0))
		run.docs += len(docs)
		run.active = time.Since(start)
	}
	return run
}

// settle refreshes the engine and waits until the background merger has
// brought the segment count under its bound and stopped moving.
func settle(eng *repro.Engine) error {
	if err := eng.Refresh(context.Background()); err != nil {
		return err
	}
	deadline := time.Now().Add(settleTimeout)
	prev := eng.SegmentStats()
	for {
		time.Sleep(50 * time.Millisecond)
		cur := eng.SegmentStats()
		if cur == prev && cur.Segments <= autoMergeBound {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("merger did not settle within %v: %+v", settleTimeout, cur)
		}
		prev = cur
	}
}
