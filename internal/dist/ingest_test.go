package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/storage"
)

// liveBatches cuts docs [lo, hi) of the collection into token-bag
// batches of the given size for replay through Broker.Add.
func liveBatches(t *testing.T, c *corpus.Collection, lo, hi, size int) [][]Doc {
	t.Helper()
	var out [][]Doc
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

// TestLiveIngestRoutingAndConvergence drives the distributed ingest
// surface end to end on a 2-partition × 2-replica cluster: Adds route to
// the least-loaded partition, every replica of an owning group converges
// to the committed generation, the broker's generation table ratchets,
// and queries after ingest see documents from both partitions' strided
// docid ranges.
func TestLiveIngestRoutingAndConvergence(t *testing.T) {
	c := testCollection(t)
	seed, err := c.Slice(0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := BuildLivePartitions(seed, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartClusterFromDirs(dirs, 0, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	ctx := context.Background()

	added := 0
	perPartition := make(map[int]int)
	for _, batch := range liveBatches(t, c, 2000, 2600, 100) {
		st, err := brk.Add(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		if st.Replicated != 2 || st.Lagging != 0 {
			t.Fatalf("add: replicated %d lagging %d, want 2/0 (stats %+v)", st.Replicated, st.Lagging, st)
		}
		if st.ShippedBytes == 0 || st.ShippedFiles == 0 {
			t.Fatalf("add shipped nothing (stats %+v)", st)
		}
		perPartition[st.Partition]++
		added += st.Docs
	}
	if len(perPartition) != 2 {
		t.Errorf("adds all routed to one partition: %v", perPartition)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := brk.WaitConverged(wctx); err != nil {
		t.Fatal(err)
	}
	for _, gen := range brk.PartitionGens() {
		if gen < 2 {
			t.Errorf("partition generation %d after ingest, want >= 2 (table %v)", gen, brk.PartitionGens())
		}
	}

	// Every server of each group serves the same generation and the same
	// document count; the cluster's total includes every added doc.
	total := 0
	for p := 0; p < cl.Partitions(); p++ {
		g0 := cl.Replica(p, 0)
		for r := 1; r < cl.Replicas(); r++ {
			if got, want := cl.Replica(p, r).Gen(), g0.Gen(); got != want {
				t.Errorf("partition %d replica %d at generation %d, replica 0 at %d", p, r, got, want)
			}
			if got, want := cl.Replica(p, r).Snapshot().NumDocs(), g0.Snapshot().NumDocs(); got != want {
				t.Errorf("partition %d replica %d has %d docs, replica 0 has %d", p, r, got, want)
			}
		}
		total += g0.Snapshot().NumDocs()
	}
	if want := 2000 + added; total != want {
		t.Errorf("cluster serves %d docs, want %d", total, want)
	}

	// Queries after ingest must reach both partitions' strided ranges.
	sawHigh := false
	for _, q := range c.PrecisionQueries(6, 29) {
		res, timing, err := brk.Search(q.Terms, 10, ir.BM25TCMQ8)
		if err != nil {
			t.Fatal(err)
		}
		if len(timing.Gens) != 2 {
			t.Fatalf("timing.Gens = %v", timing.Gens)
		}
		for _, r := range res {
			if r.DocID >= LiveDocIDStride {
				sawHigh = true
			}
			if r.Name == "" {
				t.Errorf("query %v: unresolved name for doc %d", q.Terms, r.DocID)
			}
		}
	}
	if !sawHigh {
		t.Error("no query result came from partition 1's docid range")
	}

	// With every partition frozen for a range operation, Add reports the
	// freeze, not a statistics refusal.
	if err := brk.freeze(ctx, []bool{true, true}); err != nil {
		t.Fatal(err)
	}
	if _, err := brk.Add(ctx, liveBatches(t, c, 2600, 2650, 50)[0]); err == nil || errors.Is(err, storage.ErrExternalStats) {
		t.Errorf("Add with every partition frozen: %v, want the freeze refusal", err)
	}
	if err := brk.freeze(ctx, nil); err != nil {
		t.Fatal(err)
	}

	// Adding through a broker over global-statistics partitions fails with
	// the storage refusal those directories carry.
	plainDirs, err := BuildSegmentedPartitions(seed, 1, 2, ir.DefaultBuildConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plainCl, err := StartClusterFromDirs(plainDirs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer plainCl.Close()
	plainBrk, err := plainCl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer plainBrk.Close()
	if _, err := plainBrk.Add(ctx, liveBatches(t, c, 2600, 2650, 50)[0]); !errors.Is(err, storage.ErrExternalStats) {
		t.Errorf("Add on global-statistics partitions: %v, want storage.ErrExternalStats", err)
	}
}

// TestPinnedGenerationMatchesCentralized is the tentpole acceptance
// property: on a replicated cluster ingesting live — with one replica
// killed and revived mid-stream — every query's merged ranking is
// bit-identical to a centralized engine at that query's pinned
// generation. One partition, three replicas: partition-local statistics
// are then exactly global, so a shadow directory fed the same batches in
// the same order commits byte-for-byte the generations the cluster
// serves, and rankings must match exactly — docids and scores.
//
// Run with -race: the point is that commits, refreshes, shipping,
// failover, and concurrent searches interleave safely.
func TestPinnedGenerationMatchesCentralized(t *testing.T) {
	c := testCollection(t)
	const seedDocs, streamEnd, batchSize = 1500, 3000, 150
	seed, err := c.Slice(0, seedDocs)
	if err != nil {
		t.Fatal(err)
	}

	dirs, err := BuildLivePartitions(seed, 1, filepath.Join(t.TempDir(), "live"))
	if err != nil {
		t.Fatal(err)
	}
	shadowDirs, err := BuildLivePartitions(seed, 1, filepath.Join(t.TempDir(), "shadow"))
	if err != nil {
		t.Fatal(err)
	}
	shadow := shadowDirs[0]

	cl, err := StartClusterFromDirs(dirs, 0, WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	ctx := context.Background()

	// Efficiency queries too: their conjunctive yield often falls short
	// of k, so their two rounds must read one generation.
	queries := append(c.PrecisionQueries(6, 31), c.EfficiencyQueries(10, 31)...)
	const k = 10

	// expected[g] is the centralized ranking of every query at shadow
	// generation g. The shadow commits each batch BEFORE the cluster
	// does, so by the time any replica can answer at generation g the
	// expectation exists.
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

	// Concurrent query load for the whole ingest stream. Every answer is
	// checked bit-identical against the centralized ranking at the
	// generation it reports; generations must never run backwards per
	// goroutine (the broker pin ratchets).
	var (
		stop     atomic.Bool
		qwg      sync.WaitGroup
		gensSeen sync.Map // gen -> true, to prove mid-ingest generations served
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

	// The ingest stream: shadow first, then the cluster; kill replica 1
	// a third of the way in, revive it two thirds in, and let the
	// remaining Adds catch it up by shipping what it missed.
	batches := liveBatches(t, c, seedDocs, streamEnd, batchSize)
	killAt, reviveAt := len(batches)/3, 2*len(batches)/3
	sawLagging := false
	for bi, batch := range batches {
		if bi == killAt {
			if err := cl.KillReplica(0, 1); err != nil {
				t.Errorf("kill replica: %v", err)
			}
		}
		if bi == reviveAt {
			if err := cl.ReviveReplica(0, 1); err != nil {
				t.Fatalf("revive replica: %v", err)
			}
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
		if st.Lagging > 0 {
			sawLagging = true
		}
	}
	if !sawLagging {
		t.Error("no Add reported a lagging replica while one was down")
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

	// The revived replica converged to the final generation with the full
	// document count.
	finalGen := brk.PartitionGens()[0]
	if want := uint64(1 + len(batches)); finalGen != want {
		t.Errorf("final generation %d, want %d", finalGen, want)
	}
	for r := 0; r < cl.Replicas(); r++ {
		if got := cl.Replica(0, r).Gen(); got != finalGen {
			t.Errorf("replica %d at generation %d, want %d", r, got, finalGen)
		}
		if got := cl.Replica(0, r).Snapshot().NumDocs(); got != streamEnd {
			t.Errorf("replica %d serves %d docs, want %d", r, got, streamEnd)
		}
	}

	// Mid-ingest generations were actually served under load (not just
	// the first and last): the freshness half of the guarantee.
	distinct := 0
	gensSeen.Range(func(_, _ any) bool { distinct++; return true })
	if distinct < 3 {
		t.Errorf("queries observed only %d distinct generations; ingest was not live under load", distinct)
	}
}

// TestReplicaCloseKeepsPeerBuild: the replicas of a directory-backed
// partition never share a directory, so one replica's sweeps (at Close,
// after an install) cannot remove a segment another replica is still
// building. A segment directory allocated — not yet committed — in replica
// 0's directory must survive replica 1's death, revival and install.
func TestReplicaCloseKeepsPeerBuild(t *testing.T) {
	c := testCollection(t)
	seed, err := c.Slice(0, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := BuildLivePartitions(seed, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartClusterFromDirs(dirs, 0, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	layout, err := cl.Layout()
	if err != nil {
		t.Fatal(err)
	}
	reps := layout[0].Replicas
	if len(reps) != 2 || reps[0].Dir == "" || reps[0].Dir == reps[1].Dir {
		t.Fatalf("replica directories %+v, want two distinct ones", reps)
	}

	building, err := storage.AllocSegmentDir(reps[0].Dir)
	if err != nil {
		t.Fatal(err)
	}
	survives := func(when string) {
		t.Helper()
		if _, err := os.Stat(filepath.Join(reps[0].Dir, building)); err != nil {
			t.Fatalf("replica 0's uncommitted segment %s gone %s: %v", building, when, err)
		}
	}
	if err := cl.KillReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	survives("after replica 1 closed")
	if err := cl.ReviveReplica(0, 1); err != nil {
		t.Fatal(err)
	}

	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	st, err := brk.Add(context.Background(), liveBatches(t, c, 1500, 1600, 100)[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Replicated != 2 || st.Lagging != 0 {
		t.Fatalf("add: replicated %d lagging %d, want 2/0 (stats %+v)", st.Replicated, st.Lagging, st)
	}
	survives("after an Add replicated to replica 1")
}

// shadowRankings ranks the queries against the committed generation of a
// directory opened on its own — the centralized answer a 1-partition
// cluster fed the same batches must reproduce exactly.
func shadowRankings(t *testing.T, dir string, queries []corpus.Query, k int) [][]ir.Result {
	t.Helper()
	snap, err := storage.OpenSegmented(dir, colbm.NewManager(0))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	s := ir.NewSnapshotSearcher(snap, 0)
	want := make([][]ir.Result, len(queries))
	for i, q := range queries {
		if want[i], _, err = s.Search(q.Terms, k, ir.BM25TCMQ8); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestAddReplicationCutMidShipCatchesUp: the cluster's ship hook reaches
// the pulls that replicate a Broker.Add, not only AddReplica's. With every
// chunk cut, an Add commits on its primary alone; the lagging replicas
// refuse queries pinned at the new generation as Stale and the broker
// fails over, so answers still match a centralized index at that
// generation. Once the hook clears, the next Add brings every replica
// current.
func TestAddReplicationCutMidShipCatchesUp(t *testing.T) {
	c := testCollection(t)
	seed, err := c.Slice(0, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := BuildLivePartitions(seed, 1, filepath.Join(t.TempDir(), "live"))
	if err != nil {
		t.Fatal(err)
	}
	shadowDirs, err := BuildLivePartitions(seed, 1, filepath.Join(t.TempDir(), "shadow"))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartClusterFromDirs(dirs, 0, WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	ctx := context.Background()

	const k = 10
	queries := c.PrecisionQueries(6, 41)
	reqs := make([]Request, len(queries))
	for i, q := range queries {
		reqs[i] = Request{Terms: q.Terms, K: k, Strategy: ir.BM25TCMQ8}
	}
	add := func(batch []Doc) (AddStats, [][]ir.Result) {
		t.Helper()
		bcoll, err := corpus.FromDocs(batch)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := storage.AppendSegment(shadowDirs[0], bcoll, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := brk.Add(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		if st.Gen != gen {
			t.Fatalf("cluster committed generation %d, shadow %d", st.Gen, gen)
		}
		return st, shadowRankings(t, shadowDirs[0], queries, k)
	}
	batches := liveBatches(t, c, 1500, 1700, 100)

	var cut atomic.Int64
	cl.SetShipHook(func(seg, file string, off int64) error {
		cut.Add(1)
		return errors.New("replication cut")
	})
	st, want := add(batches[0])
	if st.Replicated != 1 || st.Lagging != 2 {
		t.Fatalf("cut add: replicated %d lagging %d, want 1/2 (stats %+v)", st.Replicated, st.Lagging, st)
	}
	if n := cut.Load(); n != 2 {
		t.Errorf("hook cut %d chunks, want one per lagging replica", n)
	}
	behind := 0
	for r := 0; r < cl.GroupSize(0); r++ {
		if cl.Replica(0, r).Gen() < st.Gen {
			behind++
		}
	}
	if behind != 2 {
		t.Fatalf("%d replicas behind generation %d, want 2", behind, st.Gen)
	}
	// Round-robin makes each replica the first one tried once.
	for round := 0; round < cl.GroupSize(0); round++ {
		res, timing, err := brk.SearchMany(ctx, reqs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if timing.Gens[0] != st.Gen {
			t.Fatalf("round %d answered at generation %d, want %d", round, timing.Gens[0], st.Gen)
		}
		assertRankingsEqual(t, fmt.Sprintf("cut round %d", round), res, want)
	}

	cl.SetShipHook(nil)
	st, want = add(batches[1])
	if st.Replicated != 3 || st.Lagging != 0 {
		t.Fatalf("add after the cut: replicated %d lagging %d, want 3/0 (stats %+v)", st.Replicated, st.Lagging, st)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := brk.WaitConverged(wctx); err != nil {
		t.Fatal(err)
	}
	res, _, err := brk.SearchMany(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	assertRankingsEqual(t, "after catch-up", res, want)
}

// TestConcurrentPullsRunOneAtATime: two brokers can ask one replica to
// pull at the same time. The replica runs the pulls one after the other —
// otherwise the first install's sweep could delete a segment the second
// is still writing — so with the first pull parked mid-ship the second
// waits, and both then report the source's generation over a directory
// that reads and opens.
func TestConcurrentPullsRunOneAtATime(t *testing.T) {
	c := testCollection(t)
	seed, err := c.Slice(0, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := BuildLivePartitions(seed, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartClusterFromDirs(dirs, 0, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	ctx := context.Background()

	// Leave replica 1 one segment behind.
	cl.SetShipHook(func(string, string, int64) error { return errors.New("replication cut") })
	st, err := brk.Add(ctx, liveBatches(t, c, 1500, 1600, 100)[0])
	if err != nil || st.Lagging != 1 {
		t.Fatalf("cut add: %v (stats %+v)", err, st)
	}

	var started, holding, overlap atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	cl.SetShipHook(func(string, string, int64) error {
		if started.CompareAndSwap(false, true) {
			holding.Store(true)
			close(parked)
			<-release
			holding.Store(false)
		} else if holding.Load() {
			overlap.Store(true)
		}
		return nil
	})
	replica := cl.Replica(0, 1)
	type reply struct {
		resp wireResponse
		err  error
	}
	replies := make(chan reply, 2)
	pullReq := wireRequest{Verb: verbPull, Pull: &wirePull{From: cl.Replica(0, 0).Addr()}}
	send := func() {
		sc := &srvConn{addr: replica.Addr()}
		defer sc.close()
		resp, err := sc.roundTrip(ctx, pullReq)
		replies <- reply{resp, err}
	}
	go send()
	<-parked
	go send()
	// Release the first pull once the second request is in the replica too.
	for replica.inflight.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.resp.Pull == nil || r.resp.Pull.Gen != st.Gen {
			t.Fatalf("pull answered %+v, want generation %d", r.resp.Pull, st.Gen)
		}
	}
	if overlap.Load() {
		t.Error("the second pull shipped while the first was parked")
	}

	dir := dirs[0] + "-r1"
	sm, err := storage.ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Generation != st.Gen {
		t.Errorf("replica directory at generation %d, want %d", sm.Generation, st.Gen)
	}
	snap, err := storage.OpenSegmented(dir, colbm.NewManager(0))
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
}

// TestPullRefusedBeforeDialing: a server whose directory takes no commits
// — an External directory (BuildPartitions' global statistics) — refuses a
// pull with the ErrExternalStats refusal before it dials the source.
func TestPullRefusedBeforeDialing(t *testing.T) {
	c := testCollection(t)
	src, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepts atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := src.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			conn.Close()
		}
	}()

	dirs, err := BuildPartitions(c, 1, ir.DefaultBuildConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ext, err := serveSegmentedDir(dirs[0], "127.0.0.1:0", colbm.NewManager(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sc := &srvConn{addr: ext.Addr()}
	_, err = sc.roundTrip(ctx, wireRequest{Verb: verbPull, Pull: &wirePull{From: src.Addr().String()}})
	sc.close()
	if err == nil || !strings.Contains(err.Error(), storage.ErrExternalStats.Error()) {
		t.Errorf("external server answered a pull with %v, want the ErrExternalStats refusal", err)
	}
	src.Close()
	<-done
	if n := accepts.Load(); n != 0 {
		t.Errorf("the pull source saw %d connections, want none", n)
	}
}

// TestLaggingReplicaRefusesAppend: an append is pinned like a query. With
// replica 0 dead and replica 1 one generation behind (its pull of the last
// Add was cut), an Add must fail rather than commit on replica 1: that
// would acknowledge a second batch under the generation and segment name
// replica 0 already holds, and no later pull, which compares segment
// names, would ever repair the fork. Once replica 0 is back, the next Add
// lands and both replicas rank exactly like a centralized directory fed
// the acknowledged batches.
func TestLaggingReplicaRefusesAppend(t *testing.T) {
	c := testCollection(t)
	seed, err := c.Slice(0, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := BuildLivePartitions(seed, 1, filepath.Join(t.TempDir(), "live"))
	if err != nil {
		t.Fatal(err)
	}
	shadowDirs, err := BuildLivePartitions(seed, 1, filepath.Join(t.TempDir(), "shadow"))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartClusterFromDirs(dirs, 0, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	ctx := context.Background()

	acked := func(batch []Doc, gen uint64) {
		t.Helper()
		bcoll, err := corpus.FromDocs(batch)
		if err != nil {
			t.Fatal(err)
		}
		shadowGen, err := storage.AppendSegment(shadowDirs[0], bcoll, nil)
		if err != nil {
			t.Fatal(err)
		}
		if shadowGen != gen {
			t.Fatalf("cluster committed generation %d, shadow %d", gen, shadowGen)
		}
	}
	batches := liveBatches(t, c, 1500, 1800, 100)

	cl.SetShipHook(func(string, string, int64) error { return errors.New("replication cut") })
	st, err := brk.Add(ctx, batches[0])
	if err != nil || st.Lagging != 1 {
		t.Fatalf("cut add: %v (stats %+v)", err, st)
	}
	acked(batches[0], st.Gen)
	cl.SetShipHook(nil)

	if err := cl.KillReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dirs[0]+"-r1", storage.SegmentsManifestName)
	before, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := brk.Add(ctx, batches[1]); err == nil {
		t.Fatalf("Add acknowledged on a replica behind the pinned generation (stats %+v)", st)
	}
	after, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("the refused append changed the lagging replica's SEGMENTS.json")
	}

	if err := cl.ReviveReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	st, err = brk.Add(ctx, batches[2])
	if err != nil {
		t.Fatal(err)
	}
	acked(batches[2], st.Gen)
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := brk.WaitConverged(wctx); err != nil {
		t.Fatal(err)
	}

	const k = 100
	queries := c.EfficiencyQueries(100, 3)
	reqs := make([]Request, len(queries))
	for i, q := range queries {
		reqs[i] = Request{Terms: q.Terms, K: k, Strategy: ir.BM25TCMQ8}
	}
	want := shadowRankings(t, shadowDirs[0], queries, k)
	for r := 0; r < cl.GroupSize(0); r++ {
		one, err := DialGroups([][]string{{cl.Replica(0, r).Addr()}})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := one.SearchMany(ctx, reqs)
		one.Close()
		if err != nil {
			t.Fatal(err)
		}
		assertRankingsEqual(t, fmt.Sprintf("replica %d", r), res, want)
	}
}

// TestIngestVerbsFeedReplicaHealth: status probes, appends and pulls go
// through the same call path as queries, so a replica an Add cannot reach
// is cooled down for queries too, while the Add's round trips leave every
// replica's search latency estimate alone.
func TestIngestVerbsFeedReplicaHealth(t *testing.T) {
	c := testCollection(t)
	seed, err := c.Slice(0, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := BuildLivePartitions(seed, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartClusterFromDirs(dirs, 0, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	if err := cl.KillReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	st, err := brk.Add(context.Background(), liveBatches(t, c, 1500, 1600, 100)[0])
	if err != nil || st.Lagging != 1 {
		t.Fatalf("add: %v (stats %+v)", err, st)
	}
	reps := brk.Replicas()[0]
	if reps[1].Fails < 1 || reps[1].Healthy {
		t.Errorf("dead replica after an Add: %+v, want failures and a cooldown", reps[1])
	}
	if reps[0].EWMA != 0 || reps[0].Fails != 0 || !reps[0].Healthy {
		t.Errorf("primary after an Add and no search: %+v, want healthy with no latency estimate", reps[0])
	}
}
