package topology

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/storage"
)

func testCollection(t *testing.T) *corpus.Collection {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 3000
	cfg.Vocab = 4000
	cfg.AvgDocLen = 90
	cfg.NumTopics = 25
	return corpus.Generate(cfg)
}

// liveBatches cuts docs [lo, hi) of the collection into batches of the
// given size for replay through Broker.Add.
func liveBatches(t *testing.T, c *corpus.Collection, lo, hi, size int) [][]dist.Doc {
	t.Helper()
	var out [][]dist.Doc
	for at := lo; at < hi; at += size {
		end := at + size
		if end > hi {
			end = hi
		}
		docs, err := c.Docs(at, end)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, docs)
	}
	return out
}

func spec(rev uint64, parts ...PartitionSpec) *Spec {
	return &Spec{Magic: SpecMagic, Version: SpecFormatVersion, Revision: rev, Partitions: parts}
}

// checkNoOrphans asserts every directory under the cluster's base
// directory is referenced by a live slot — the install-verification
// invariant's directory-level counterpart: reconciles, however they were
// interrupted, leave no unreferenced partition copies behind.
func checkNoOrphans(t *testing.T, cl *dist.Cluster, baseDir string) {
	t.Helper()
	lay, err := cl.Layout()
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, p := range lay {
		for _, r := range p.Replicas {
			live[filepath.Base(r.Dir)] = true
		}
	}
	entries, err := os.ReadDir(baseDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !live[e.Name()] {
			t.Errorf("orphan directory %q under %s (live: %v)", e.Name(), baseDir, live)
		}
	}
}

// TestReconciledClusterMatchesCentralized is the control plane's
// acceptance property: while a scripted reconcile walks the cluster
// through add replica -> move replica -> retire replica, with live ingest
// streaming and concurrent query workers running throughout, every
// query's merged ranking stays bit-identical (docids and scores) to a
// centralized shadow engine at that query's pinned generation. One
// partition keeps partition-local statistics exactly global, so the
// shadow fed the same batches commits byte-for-byte the generations the
// cluster serves.
//
// Run with -race: the point is that reconcile steps, commits, shipping,
// retargets, and concurrent searches interleave safely.
func TestReconciledClusterMatchesCentralized(t *testing.T) {
	c := testCollection(t)
	const seedDocs, streamEnd, batchSize = 1500, 3000, 150
	seed, err := c.Slice(0, seedDocs)
	if err != nil {
		t.Fatal(err)
	}

	liveBase := filepath.Join(t.TempDir(), "live")
	dirs, err := dist.BuildLivePartitions(seed, 1, liveBase)
	if err != nil {
		t.Fatal(err)
	}
	shadowDirs, err := dist.BuildLivePartitions(seed, 1, filepath.Join(t.TempDir(), "shadow"))
	if err != nil {
		t.Fatal(err)
	}
	shadow := shadowDirs[0]

	cl, err := dist.StartClusterFromDirs(dirs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	rec := NewReconciler(cl, brk)
	ctx := context.Background()

	// Efficiency queries too: their conjunctive yield often falls short
	// of k, so their two rounds must read one generation.
	queries := append(c.PrecisionQueries(6, 31), c.EfficiencyQueries(10, 31)...)
	const k = 10

	// expected[g] is the centralized ranking of every query at shadow
	// generation g; the shadow commits each batch before the cluster does.
	expected := make(map[uint64][][]ir.Result)
	var expMu sync.RWMutex
	snapshotExpected := func(gen uint64) {
		snap, err := storage.OpenSegmented(shadow, colbm.NewManager(0))
		if err != nil {
			t.Fatalf("open shadow at generation %d: %v", gen, err)
		}
		defer snap.Close()
		if snap.Gen() != gen {
			t.Fatalf("shadow at generation %d, want %d", snap.Gen(), gen)
		}
		s := ir.NewSnapshotSearcher(snap, 0)
		rankings := make([][]ir.Result, len(queries))
		for qi, q := range queries {
			res, _, err := s.Search(q.Terms, k, ir.BM25TCMQ8)
			if err != nil {
				t.Fatalf("shadow query %v at generation %d: %v", q.Terms, gen, err)
			}
			rankings[qi] = res
		}
		expMu.Lock()
		expected[gen] = rankings
		expMu.Unlock()
	}
	snapshotExpected(1) // the seeded generation

	// Concurrent query load across the whole stream and every reconcile
	// step. Every answer must be bit-identical to the centralized ranking
	// at the generation it reports.
	var (
		stop     atomic.Bool
		qwg      sync.WaitGroup
		gensSeen sync.Map
	)
	checkErr := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case checkErr <- fmt.Errorf(format, args...):
		default:
		}
	}
	for w := 0; w < 3; w++ {
		qwg.Add(1)
		go func(w int) {
			defer qwg.Done()
			var lastGen uint64
			for i := w; !stop.Load(); i++ {
				q := queries[i%len(queries)]
				res, timing, err := brk.Search(q.Terms, k, ir.BM25TCMQ8)
				if err != nil {
					report("worker %d query %v: %v", w, q.Terms, err)
					return
				}
				gen := timing.Gens[0]
				if gen < lastGen {
					report("worker %d: generation ran backwards %d -> %d", w, lastGen, gen)
					return
				}
				lastGen = gen
				gensSeen.Store(gen, true)
				expMu.RLock()
				want, ok := expected[gen]
				expMu.RUnlock()
				if !ok {
					report("worker %d: answered at generation %d with no shadow expectation", w, gen)
					return
				}
				wantRes := want[i%len(queries)]
				if len(res) != len(wantRes) {
					report("worker %d query %v at generation %d: %d results, centralized has %d",
						w, q.Terms, gen, len(res), len(wantRes))
					return
				}
				for ri := range wantRes {
					if res[ri].DocID != wantRes[ri].DocID || res[ri].Score != wantRes[ri].Score {
						report("worker %d query %v at generation %d rank %d: (%d, %v) != centralized (%d, %v)",
							w, q.Terms, gen, ri, res[ri].DocID, res[ri].Score, wantRes[ri].DocID, wantRes[ri].Score)
						return
					}
				}
			}
		}(w)
	}

	// The scripted reconcile, applied concurrently with the ingest stream:
	// grow to two replicas, move the second onto another host, retire it.
	specs := []*Spec{
		spec(1, PartitionSpec{Lo: 0, Replicas: 2}),
		spec(2, PartitionSpec{Lo: 0, Replicas: 2, Hosts: []string{"h0", "h2"}}),
		spec(3, PartitionSpec{Lo: 0, Replicas: 1}),
	}
	specCh := make(chan *Spec, len(specs))
	recDone := make(chan struct{})
	var afterApply []*Spec // layout observed after each successful Apply
	recErr := make(chan error, 1)
	go func() {
		defer close(recDone)
		for sp := range specCh {
			if err := rec.Apply(ctx, sp); err != nil {
				select {
				case recErr <- fmt.Errorf("apply revision %d: %w", sp.Revision, err):
				default:
				}
				return
			}
			obs, err := Observe(cl)
			if err != nil {
				select {
				case recErr <- err:
				default:
				}
				return
			}
			afterApply = append(afterApply, obs)
		}
	}()

	// The ingest stream: shadow first, then the cluster; reconcile steps
	// are triggered a third, halfway, and four fifths of the way in.
	batches := liveBatches(t, c, seedDocs, streamEnd, batchSize)
	triggers := map[int]*Spec{
		len(batches) / 3:     specs[0],
		len(batches) / 2:     specs[1],
		4 * len(batches) / 5: specs[2],
	}
	for bi, batch := range batches {
		if sp, ok := triggers[bi]; ok {
			specCh <- sp
		}
		bcoll, err := corpus.FromDocs(batch)
		if err != nil {
			t.Fatal(err)
		}
		shadowGen, err := storage.AppendSegment(shadow, bcoll, nil)
		if err != nil {
			t.Fatal(err)
		}
		snapshotExpected(shadowGen)
		st, err := brk.Add(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		if st.Gen != shadowGen {
			t.Fatalf("cluster committed generation %d, shadow %d — streams diverged", st.Gen, shadowGen)
		}
	}
	close(specCh)
	<-recDone
	select {
	case err := <-recErr:
		t.Fatal(err)
	default:
	}

	wctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := brk.WaitConverged(wctx); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	qwg.Wait()
	select {
	case err := <-checkErr:
		t.Fatal(err)
	default:
	}

	// The script actually reshaped the cluster: two replicas after the
	// first spec, the second on host h2 after the move, one replica again
	// after the retire.
	if len(afterApply) != len(specs) {
		t.Fatalf("reconciler applied %d specs, want %d", len(afterApply), len(specs))
	}
	if got := afterApply[0].Partitions[0]; got.Replicas != 2 {
		t.Errorf("after add spec: %+v, want 2 replicas", got)
	}
	if got := afterApply[1].Partitions[0]; got.Replicas != 2 ||
		len(got.Hosts) != 2 || got.Hosts[0] != "h0" || got.Hosts[1] != "h2" {
		t.Errorf("after move spec: %+v, want hosts [h0 h2]", got)
	}
	if got := afterApply[2].Partitions[0]; got.Replicas != 1 || got.Hosts[0] != "h0" {
		t.Errorf("after retire spec: %+v, want 1 replica on h0", got)
	}
	if st := rec.Status(); !st.Converged || st.Revision != 3 {
		t.Errorf("final reconciler status %+v, want converged at revision 3", st)
	}

	// Generations and document counts converged on the final single
	// replica; the retired replicas' directories are gone.
	finalGen := brk.PartitionGens()[0]
	if want := uint64(1 + len(batches)); finalGen != want {
		t.Errorf("final generation %d, want %d", finalGen, want)
	}
	if got := cl.Replica(0, 0).Snapshot().NumDocs(); got != streamEnd {
		t.Errorf("final replica serves %d docs, want %d", got, streamEnd)
	}
	checkNoOrphans(t, cl, liveBase)

	// Mid-stream generations were served under load while the reconcile
	// ran — the serving-continuity half of the guarantee.
	distinct := 0
	gensSeen.Range(func(_, _ any) bool { distinct++; return true })
	if distinct < 3 {
		t.Errorf("queries observed only %d distinct generations; serving was not continuous", distinct)
	}
}

// TestReconcilerChaosMidMoveConverges kills the reconciler mid-step —
// the ship loop's context is canceled between shipped chunks, before any
// manifest install — once during a replica add and once during a move,
// and asserts the crash discipline: the cluster's layout and rankings are
// untouched, nothing half-shipped ever serves (no committed manifest in
// the partial directory), and re-running the same spec converges with no
// orphan directories and no stale generations.
func TestReconcilerChaosMidMoveConverges(t *testing.T) {
	c := testCollection(t)
	seed, err := c.Slice(0, 800)
	if err != nil {
		t.Fatal(err)
	}
	liveBase := filepath.Join(t.TempDir(), "live")
	dirs, err := dist.BuildLivePartitions(seed, 1, liveBase)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dist.StartClusterFromDirs(dirs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	rec := NewReconciler(cl, brk)

	query := c.PrecisionQueries(1, 7)[0]
	baseline, _, err := brk.Search(query.Terms, 10, ir.BM25TCMQ8)
	if err != nil {
		t.Fatal(err)
	}
	checkRanking := func(when string) {
		t.Helper()
		res, _, err := brk.Search(query.Terms, 10, ir.BM25TCMQ8)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if len(res) != len(baseline) {
			t.Fatalf("%s: %d results, want %d", when, len(res), len(baseline))
		}
		for i := range baseline {
			if res[i].DocID != baseline[i].DocID || res[i].Score != baseline[i].Score {
				t.Fatalf("%s: rank %d = (%d, %v), want (%d, %v)",
					when, i, res[i].DocID, res[i].Score, baseline[i].DocID, baseline[i].Score)
			}
		}
	}

	// crashAfter arms the ship hook to cancel the reconcile's context after
	// n shipped chunks — the "kill between ship and install" point.
	crashAfter := func(n int64, cancel context.CancelFunc, ctx context.Context) {
		var chunks atomic.Int64
		cl.SetShipHook(func(seg, file string, off int64) error {
			if chunks.Add(1) > n {
				cancel()
				return ctx.Err()
			}
			return nil
		})
	}
	expectLayout := func(when string, hosts ...string) {
		t.Helper()
		obs, err := Observe(cl)
		if err != nil {
			t.Fatal(err)
		}
		if len(obs.Partitions) != 1 {
			t.Fatalf("%s: %d partitions, want 1", when, len(obs.Partitions))
		}
		p := obs.Partitions[0]
		if p.Replicas != len(hosts) {
			t.Fatalf("%s: %d replicas on %v, want %v", when, p.Replicas, p.Hosts, hosts)
		}
		for i, h := range hosts {
			if p.Hosts[i] != h {
				t.Fatalf("%s: hosts %v, want %v", when, p.Hosts, hosts)
			}
		}
	}

	// Chaos 1: die mid-ship while growing to two replicas.
	addSpec := spec(1, PartitionSpec{Lo: 0, Replicas: 2, Hosts: []string{"h0", "hb"}})
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	crashAfter(2, cancel1, ctx1)
	if err := rec.Apply(ctx1, addSpec); err == nil {
		t.Fatal("Apply survived a mid-ship crash")
	}
	if st := rec.Status(); st.Converged || st.LastError == "" {
		t.Errorf("status after crash %+v, want unconverged with an error", st)
	}
	expectLayout("after mid-add crash", "h0")
	checkRanking("after mid-add crash")
	// The half-shipped directory never committed a manifest: nothing
	// half-installed can ever serve (the install verifies every file).
	partial := filepath.Join(liveBase, "elastic-lo0-hb")
	if _, err := storage.ReadSegments(partial); err == nil {
		t.Errorf("%s has a committed manifest after a mid-ship crash", partial)
	}

	// Re-run with the chaos cleared: converges into the same deterministic
	// directory.
	cl.SetShipHook(nil)
	if err := rec.Apply(context.Background(), addSpec); err != nil {
		t.Fatalf("re-run after crash: %v", err)
	}
	expectLayout("after re-run", "h0", "hb")
	checkRanking("after re-run")

	// Chaos 2: die mid-ship during the add half of a move.
	moveSpec := spec(2, PartitionSpec{Lo: 0, Replicas: 2, Hosts: []string{"h0", "hc"}})
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	crashAfter(2, cancel2, ctx2)
	if err := rec.Apply(ctx2, moveSpec); err == nil {
		t.Fatal("Apply survived a mid-move crash")
	}
	expectLayout("after mid-move crash", "h0", "hb") // the move never retired hb
	checkRanking("after mid-move crash")

	cl.SetShipHook(nil)
	if err := rec.Apply(context.Background(), moveSpec); err != nil {
		t.Fatalf("re-run of move after crash: %v", err)
	}
	expectLayout("after move re-run", "h0", "hc")
	checkRanking("after move re-run")

	// No stale generations: every live replica serves the same generation.
	if g0, g1 := cl.Replica(0, 0).Gen(), cl.Replica(0, 1).Gen(); g0 != g1 {
		t.Errorf("replica generations diverged: %d vs %d", g0, g1)
	}
	// No orphan directories: the abandoned move target (hb) is gone, only
	// the seed directory and the live elastic copy remain.
	checkNoOrphans(t, cl, liveBase)

	// A final Apply of the same spec is a no-op.
	if err := rec.Apply(context.Background(), moveSpec); err != nil {
		t.Fatal(err)
	}
	if st := rec.Status(); !st.Converged || st.Applied != 0 {
		t.Errorf("status after no-op apply %+v, want converged with 0 steps", st)
	}
}

// TestSplitMergeReconcileRoundTrip drives online range surgery through
// the reconciler — split one live partition at a segment boundary, then
// merge it back — under a concurrent query worker, and asserts the round
// trip is lossless: document counts and range starts are exact at every
// stage, and the post-merge rankings are bit-identical (names and scores)
// to the pre-split ones under the materialized-score and the quantized
// strategy. The cluster uses the default (quantized) layout: each range
// change re-derives the quantization bounds of the ranges it leaves, so
// the merged partition quantizes exactly as it did before the split.
func TestSplitMergeReconcileRoundTrip(t *testing.T) {
	c := testCollection(t)
	const seedDocs, streamEnd, batchSize = 1200, 1800, 200
	seed, err := c.Slice(0, seedDocs)
	if err != nil {
		t.Fatal(err)
	}

	liveBase := filepath.Join(t.TempDir(), "live")
	dirs, err := dist.BuildLivePartitions(seed, 1, liveBase)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dist.StartClusterFromDirs(dirs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	rec := NewReconciler(cl, brk)
	ctx := context.Background()

	// Appends create the segment boundaries a split needs: segments now
	// start at 0, 1200, 1400, 1600.
	for _, batch := range liveBatches(t, c, seedDocs, streamEnd, batchSize) {
		if _, err := brk.Add(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	const splitAt = 1400

	queries := c.PrecisionQueries(6, 17)
	const k = 10
	strategies := []ir.Strategy{ir.BM25TCM, ir.BM25TCMQ8}
	type nameScore struct {
		Name  string
		Score float64
	}
	search := func(stage string) [][]nameScore {
		t.Helper()
		out := make([][]nameScore, len(strategies)*len(queries))
		for si, strat := range strategies {
			for qi, q := range queries {
				res, _, err := brk.Search(q.Terms, k, strat)
				if err != nil {
					t.Fatalf("%s %v query %v: %v", stage, strat, q.Terms, err)
				}
				for _, r := range res {
					out[si*len(queries)+qi] = append(out[si*len(queries)+qi], nameScore{r.Name, r.Score})
				}
			}
		}
		return out
	}
	before := search("pre-split")

	// Query load across both range changes: every answer must come back
	// error-free and full — a seal parks queries, it never drops them.
	var stop atomic.Bool
	var qwg sync.WaitGroup
	qerr := make(chan error, 1)
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		for i := 0; !stop.Load(); i++ {
			q, strat := queries[i%len(queries)], strategies[i%len(strategies)]
			res, _, err := brk.Search(q.Terms, k, strat)
			if err != nil {
				select {
				case qerr <- fmt.Errorf("mid-reshape %v query %v: %v", strat, q.Terms, err):
				default:
				}
				return
			}
			if len(res) == 0 {
				select {
				case qerr <- fmt.Errorf("mid-reshape query %v returned nothing", q.Terms):
				default:
				}
				return
			}
		}
	}()

	// Split.
	if err := rec.Apply(ctx, spec(1,
		PartitionSpec{Lo: 0, Replicas: 1},
		PartitionSpec{Lo: splitAt, Replicas: 1})); err != nil {
		t.Fatalf("split reconcile: %v", err)
	}
	obs, err := Observe(cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.Partitions) != 2 || obs.Partitions[0].Lo != 0 || obs.Partitions[1].Lo != splitAt {
		t.Fatalf("post-split layout %+v, want ranges [0 %d]", obs.Partitions, splitAt)
	}
	if got := cl.Replica(0, 0).Snapshot().NumDocs(); got != splitAt {
		t.Errorf("left partition serves %d docs, want %d", got, splitAt)
	}
	if got := cl.Replica(1, 0).Snapshot().NumDocs(); got != streamEnd-splitAt {
		t.Errorf("right partition serves %d docs, want %d", got, streamEnd-splitAt)
	}
	search("post-split") // serves without error from both ranges

	// Merge back.
	if err := rec.Apply(ctx, spec(2, PartitionSpec{Lo: 0, Replicas: 1})); err != nil {
		t.Fatalf("merge reconcile: %v", err)
	}
	stop.Store(true)
	qwg.Wait()
	select {
	case err := <-qerr:
		t.Fatal(err)
	default:
	}
	obs, err = Observe(cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.Partitions) != 1 || obs.Partitions[0].Lo != 0 {
		t.Fatalf("post-merge layout %+v, want one range at 0", obs.Partitions)
	}
	if got := cl.Replica(0, 0).Snapshot().NumDocs(); got != streamEnd {
		t.Errorf("merged partition serves %d docs, want %d", got, streamEnd)
	}
	checkNoOrphans(t, cl, liveBase)

	// The round trip is lossless: post-merge rankings equal pre-split
	// rankings exactly, name by name and score by score. (Docids are
	// compared by name: the absorb rebases the upper range's docids.)
	after := search("post-merge")
	for i := range before {
		strat, q := strategies[i/len(queries)], queries[i%len(queries)]
		if len(after[i]) != len(before[i]) {
			t.Fatalf("%v query %v: %d results after round trip, want %d",
				strat, q.Terms, len(after[i]), len(before[i]))
		}
		for ri := range before[i] {
			if after[i][ri] != before[i][ri] {
				t.Errorf("%v query %v rank %d: %+v after round trip, want %+v",
					strat, q.Terms, ri, after[i][ri], before[i][ri])
			}
		}
	}
}
