package dist

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/ir"
)

// TestInMemoryPartitionsRefuseReshape: the operations that need a
// partition directory refuse an in-memory (StartCluster) partition with an
// error naming it, while retiring a replica — which needs no directory —
// still works.
func TestInMemoryPartitionsRefuseReshape(t *testing.T) {
	c := testCollection(t)
	cl, err := StartCluster(c, 2, ir.DefaultBuildConfig(), WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	for _, tc := range []struct {
		name string
		op   func() error
		want string
	}{
		{"AddReplica", func() error { return cl.AddReplica(ctx, 1, "") }, "partition 1 "},
		{"SplitPartition", func() error { return cl.SplitPartition(ctx, 1, 1) }, "partition 1 "},
		{"MergePartitions", func() error { return cl.MergePartitions(ctx, 0) }, "partition 0 "},
		{"ReviveReplica", func() error { return cl.ReviveReplica(1, 1) }, "partition 1 "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.op()
			if err == nil {
				t.Fatal("succeeded on an in-memory partition")
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "memory") {
				t.Errorf("error does not name in-memory %q: %v", tc.want, err)
			}
		})
	}

	if err := cl.RetireReplica(ctx, 1, 1); err != nil {
		t.Fatalf("RetireReplica on an in-memory partition: %v", err)
	}
	if n := cl.GroupSize(1); n != 1 {
		t.Errorf("partition 1 has %d replicas after a retire, want 1", n)
	}
}

// TestWarmAllDuringAddReplica runs WarmAll while AddReplica grows the
// cluster; under -race it pins that WarmAll walks a snapshot of the slot
// table instead of reading it while a reshape rewrites it.
func TestWarmAllDuringAddReplica(t *testing.T) {
	c := testCollection(t)
	dirs, err := BuildLivePartitions(c, 1, ir.DefaultBuildConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := StartClusterFromDirs(dirs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := c.EfficiencyQueries(4, 3)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := cl.WarmAll(ir.BM25TCMQ8, queries, 10); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 2; i++ {
		if err := cl.AddReplica(context.Background(), 0, ""); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if n := cl.GroupSize(0); n != 3 {
		t.Errorf("partition 0 has %d replicas, want 3", n)
	}
	if err := cl.WarmAll(ir.BM25TCMQ8, queries, 10); err != nil {
		t.Fatal(err)
	}
}
