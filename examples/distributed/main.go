// Distributed: a replicated retrieval cluster on loopback TCP — partition
// the collection, serve every partition range with a replica group of two
// servers, fan queries out through a group-aware broker under a per-query
// deadline, and merge local top-k lists into the global ranking (§3.4 of
// the paper). Because every partition index is built with the
// collection-wide statistics (idf and quantization bounds), the merged
// ranking equals the centralized one — and because replicas of a
// partition serve the same index, the broker may freely hedge a slow
// partition's work onto another replica (WithHedging) or fail over
// when a replica dies, without changing a single ranked result.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro"
)

func main() {
	ctx := context.Background()

	cfg := repro.DefaultCollectionConfig()
	cfg.NumDocs = 8000
	coll := repro.GenerateCollection(cfg)
	fmt.Printf("collection: %d documents\n", cfg.NumDocs)

	// 4 partition ranges x 2 replicas = 8 servers. Replicas build the same
	// partition index, so which replica answers never matters.
	cluster, err := repro.StartCluster(coll, 4, repro.WithClusterReplicas(2))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("cluster: %d partitions x %d replicas on %v\n\n",
		cluster.Partitions(), cluster.Replicas(), cluster.CurrentGroups())

	// The group-aware broker: one connection per replica, hedging armed.
	// A partition whose primary has not answered within 4x its recent
	// median has its work re-issued to the other replica; the first
	// answer wins.
	broker, err := cluster.NewBroker(repro.WithHedging())
	if err != nil {
		log.Fatal(err)
	}
	defer broker.Close()

	for _, q := range coll.PrecisionQueries(3, 99) {
		// Each fan-out runs under a deadline; the broker forwards the
		// remaining budget to every server so nobody keeps working for a
		// caller that has given up.
		qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		results, timing, err := broker.SearchContext(qctx, q.Terms, 10, repro.BM25TCMQ8)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %q: %.2f ms total\n", strings.Join(q.Terms, " "),
			float64(timing.Total.Microseconds())/1000)
		for i, d := range timing.PerServer {
			fmt.Printf("  partition %d answered in %.2f ms\n", i, float64(d.Microseconds())/1000)
		}
		for i, r := range results {
			if i >= 5 {
				break
			}
			fmt.Printf("  %d. %-22s score=%.4f\n", i+1, r.Name, r.Score)
		}
		fmt.Println()
	}

	// Failure injection: kill one replica of partition 0 outright. The
	// broker retries the slice on the surviving replica — same ranking,
	// Retried counts the re-issue, and the health view records the death.
	fmt.Println("killing partition 0, replica 0 ...")
	cluster.Replica(0, 0).Close()
	// Two queries: primary duty round-robins across the group, so at least
	// one of them is routed at the dead replica and must be retried.
	q := coll.PrecisionQueries(1, 42)[0]
	retried, hedged := 0, 0
	var results []repro.Result
	for i := 0; i < 2; i++ {
		var timing repro.ClusterTiming
		var err error
		results, timing, err = broker.SearchContext(ctx, q.Terms, 5, repro.BM25TCMQ8)
		if err != nil {
			log.Fatal(err)
		}
		retried += timing.Retried
		hedged += timing.Hedged
	}
	fmt.Printf("query %q survived: %d results (retried %d, hedged %d)\n",
		strings.Join(q.Terms, " "), len(results), retried, hedged)
	for gi, g := range broker.Replicas() {
		for ri, r := range g {
			fmt.Printf("  partition %d replica %d (%s): healthy=%v fails=%d est=%.2f ms\n",
				gi, ri, r.Addr, r.Healthy, r.Fails, float64(r.EWMA.Microseconds())/1000)
		}
	}
	// One call snapshots everything the broker observed: call count and
	// latency quantiles, hedges, retries, failovers, per-group histograms.
	bm := broker.MetricsSnapshot()
	fmt.Printf("broker metrics: %d calls, p50 %.2f ms, p99 %.2f ms, hedged %d, failovers %d\n",
		bm.Calls, float64(bm.Latency.P50.Microseconds())/1000,
		float64(bm.Latency.P99.Microseconds())/1000, bm.Hedged, bm.Retried)
	fmt.Println()

	// Throughput under concurrent query streams (the Table 3 protocol):
	// amortized per-query time keeps falling as streams are added even
	// though absolute latency tracks the slowest server.
	queries := coll.EfficiencyQueries(200, 7)
	for _, streams := range []int{1, 2, 4} {
		st, err := cluster.RunStreams(queries, streams, 10, repro.BM25TCMQ8)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d stream(s): %.2f ms/query absolute, %.2f ms/query amortized (partition min/avg/max %.2f/%.2f/%.2f ms, retried %d)\n",
			streams,
			float64(st.Absolute.Microseconds())/1000,
			float64(st.Amortized.Microseconds())/1000,
			float64(st.MinServer.Microseconds())/1000,
			float64(st.AvgServer.Microseconds())/1000,
			float64(st.MaxServer.Microseconds())/1000,
			st.Retried)
	}

	// Persisted deployment: build the partitions once (offline), then
	// serve them from disk with a replica group per directory — a
	// restarted fleet opens its directories and answers, with zero corpus
	// re-parsing and the same global-statistics guarantee, so the merged
	// ranking is still the centralized one. The second replica of each
	// partition serves its own hardlinked copy of the directory, with its
	// own file handles and buffer manager.
	base, err := os.MkdirTemp("", "dist-partitions-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)
	dirs, err := repro.BuildPartitions(coll, 4, base)
	if err != nil {
		log.Fatal(err)
	}
	cluster2, err := repro.StartClusterFromDirs(dirs, 64<<20,
		repro.WithClusterReplicas(2))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster2.Close()
	// This broker opts into the QoS surface: hedging (each group's budget
	// follows its own observed median; no constant to tune), and a whole
	// replica group going dark degrades the answer instead of failing it.
	broker2, err := cluster2.NewBroker(
		repro.WithHedging(),
		repro.WithPartialResults())
	if err != nil {
		log.Fatal(err)
	}
	defer broker2.Close()
	q = coll.PrecisionQueries(1, 99)[0]
	fromDisk, _, err := broker2.SearchContext(ctx, q.Terms, 3, repro.BM25TCMQ8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npersisted cluster (%d partition dirs x %d replicas) answers %q:\n",
		len(dirs), cluster2.Replicas(), strings.Join(q.Terms, " "))
	for i, r := range fromDisk {
		fmt.Printf("  %d. %-22s score=%.4f\n", i+1, r.Name, r.Score)
	}

	// End-to-end tracing: a request that opts in (Trace: true) gets the
	// whole fan-out back as ONE stitched span tree — the broker root, one
	// group span per partition, each attempt (hedges and retries marked,
	// the winner flagged), the server-side subtree each winner carried
	// home (pool wait, execution, per-operator breakdown), and the global
	// merge — every offset re-anchored onto the broker's timeline. The
	// same trees land in broker2.SlowQueries() for calls over
	// WithBrokerSlowQueryThreshold, and /debug/slow renders them when
	// WithBrokerOpsServer is on.
	_, ttiming, err := broker2.SearchMany(ctx, []repro.ClusterRequest{
		{Terms: q.Terms, K: 3, Strategy: repro.BM25TCMQ8, Trace: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstitched trace of that call:\n%s", ttiming.Trace.Render())

	// Partial results: kill BOTH replicas of the last partition — a whole
	// group outage, beyond what failover can mask. A strict broker would
	// fail the query; this one answers from the survivors and flags the
	// result Degraded so the caller knows the ranking may be missing the
	// dead range's documents.
	last := cluster2.Partitions() - 1
	fmt.Printf("\nkilling both replicas of partition %d ...\n", last)
	cluster2.Replica(last, 0).Close()
	cluster2.Replica(last, 1).Close()
	reqs := []repro.ClusterRequest{{Terms: q.Terms, K: 3, Strategy: repro.BM25TCMQ8}}
	out, timing, err := broker2.SearchMany(ctx, reqs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degraded answer (%d group(s) down, degraded=%v):\n",
		timing.DegradedGroups, out[0].Degraded)
	for i, r := range out[0].Results {
		fmt.Printf("  %d. %-22s score=%.4f\n", i+1, r.Name, r.Score)
	}

	// Distributed live ingest: a cluster whose partition directories own
	// their statistics (BuildLivePartitions) accepts document batches while
	// serving. Broker.Add routes each
	// batch to the partition with the most room, the primary commits it
	// as a new segment generation, and the other replicas pull the
	// committed files straight from the primary — queries never wait on
	// an install, and the broker pins every query at the newest
	// generation it has seen, so an Add is visible to the very next
	// search through this broker (read-your-writes).
	liveBase, err := os.MkdirTemp("", "dist-live-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(liveBase)
	liveDirs, err := repro.BuildLivePartitions(coll, 2, liveBase)
	if err != nil {
		log.Fatal(err)
	}
	live, err := repro.StartClusterFromDirs(liveDirs, 0, repro.WithClusterReplicas(2))
	if err != nil {
		log.Fatal(err)
	}
	defer live.Close()
	lbroker, err := live.NewBroker()
	if err != nil {
		log.Fatal(err)
	}
	defer lbroker.Close()

	fmt.Println("\nlive ingest: adding fresh documents to the serving cluster ...")
	st, err := lbroker.Add(ctx, []repro.Doc{
		{Name: "breaking-1", Tokens: []string{"vectorized", "execution", "ingest"}},
		{Name: "breaking-2", Tokens: []string{"column", "store", "ingest"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("add: partition %d committed gen %d (%d docs, %d replicas current, %d KB shipped)\n",
		st.Partition, st.Gen, st.Docs, st.Replicated, st.ShippedBytes/1024)

	// The next query through this broker pins at least generation st.Gen,
	// so the fresh documents are already searchable.
	liveRes, _, err := lbroker.SearchContext(ctx, []string{"ingest"}, 3, repro.BM25TCMQ8)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range liveRes {
		fmt.Printf("  %d. %-22s score=%.4f\n", i+1, r.Name, r.Score)
	}
	fmt.Printf("partition generations seen by the broker: %v\n", lbroker.PartitionGens())
}
