package dist

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ir"
	"repro/internal/storage"
)

// TestShippedMergeDropsReplacedSegmentChunks: when a replica installs a
// shipped generation that replaced segments by a merge, the sweep that
// deletes the dead segment directories must also release their chunks
// from the replica's long-lived buffer manager — under the default
// unbounded pool nothing else ever would.
func TestShippedMergeDropsReplacedSegmentChunks(t *testing.T) {
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
	batches := liveBatches(t, c, 1500, 1800, 100)
	for _, batch := range batches[:2] {
		if st, err := brk.Add(ctx, batch); err != nil || st.Replicated != 2 {
			t.Fatalf("add: %v (stats %+v)", err, st)
		}
	}

	// Warm the replica so its manager holds chunks of every current segment.
	replica, replicaDir := cl.Replica(0, 1), dirs[0]+"-r1"
	if err := replica.Warm(ir.BM25TCMQ8, c.PrecisionQueries(8, 31), 10); err != nil {
		t.Fatal(err)
	}
	chunks, ok := replica.Index().Cache.(interface{ DropPrefix(string) int64 })
	if !ok {
		t.Fatalf("replica chunk cache %T cannot drop by prefix", replica.Index().Cache)
	}
	if replica.Index().Cache.Stats().Used == 0 {
		t.Fatal("warmed replica holds no chunks")
	}
	before, err := storage.ReadSegments(replicaDir)
	if err != nil {
		t.Fatal(err)
	}

	// Merge the primary's directory down to one segment out of band; the
	// next Add commits on top of the merged generation and ships it.
	sm, err := storage.ReadSegments(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	names := sm.PlanMerge(1)
	if len(names) < 2 {
		t.Fatalf("nothing to merge in %v", sm.Names())
	}
	into, err := storage.AllocSegmentDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := storage.BuildMergedSegment(dirs[0], names, into, func() bool { return false }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storage.CommitMerge(dirs[0], names, into, epoch, nil); err != nil {
		t.Fatal(err)
	}
	if st, err := brk.Add(ctx, batches[2]); err != nil || st.Replicated != 2 {
		t.Fatalf("add after merge: %v (stats %+v)", err, st)
	}

	after, err := storage.ReadSegments(replicaDir)
	if err != nil {
		t.Fatal(err)
	}
	kept := make(map[string]bool)
	for _, name := range after.Names() {
		kept[name] = true
	}
	removed := 0
	for _, name := range before.Names() {
		if kept[name] {
			continue
		}
		removed++
		if _, err := os.Stat(filepath.Join(replicaDir, name)); !os.IsNotExist(err) {
			t.Errorf("replaced segment %s survived the install sweep (stat: %v)", name, err)
		}
		if freed := chunks.DropPrefix(name + "."); freed != 0 {
			t.Errorf("replica manager still held %d bytes of removed segment %s", freed, name)
		}
	}
	if removed == 0 {
		t.Fatalf("install replaced no segments: before %v, after %v", before.Names(), after.Names())
	}
}

// TestServerMetrics: every partition server reports the serving core's
// metrics — after n broker searches each server of a 2-partition cluster
// has observed exactly n queries, on the generation it reports serving.
func TestServerMetrics(t *testing.T) {
	c := testCollection(t)
	dirs, err := BuildSegmentedPartitions(c, 2, 2, ir.DefaultBuildConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartClusterFromDirs(dirs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()
	queries := c.PrecisionQueries(7, 37)
	for _, q := range queries {
		if _, _, err := brk.Search(q.Terms, 10, ir.BM25TCMQ8); err != nil {
			t.Fatal(err)
		}
	}
	for i, srv := range cl.servers() {
		m := srv.Metrics()
		if m.Queries.Count != int64(len(queries)) || m.PoolWait.Count != int64(len(queries)) {
			t.Errorf("server %d: %d queries, %d pool waits, want %d each",
				i, m.Queries.Count, m.PoolWait.Count, len(queries))
		}
		if m.Gen == 0 || m.Gen != srv.Gen() {
			t.Errorf("server %d: metrics generation %d, serving %d", i, m.Gen, srv.Gen())
		}
		if m.Inflight != 0 || m.Storage.Hits+m.Storage.Misses == 0 {
			t.Errorf("server %d: inflight %d, storage %+v", i, m.Inflight, m.Storage)
		}
	}
}
