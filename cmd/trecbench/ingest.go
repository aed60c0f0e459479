package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/loadgen"
)

// ingestExperiment measures distributed live ingest: a replicated
// cluster keeps serving queries while Broker.Add streams new document
// batches into it. The cluster is seeded with half the collection via
// BuildLivePartitions; the other half arrives as a sequence of Add
// calls, each of which indexes a new segment on the owning partition's
// primary, from which the other replicas pull the committed files.
//
// The claim under test (servePhases asserts it) is that live ingest is a
// background activity: segment installs swap atomically under the
// servers' epoch-refcounted refresh instead of blocking searches.
func ingestExperiment(p params) error {
	header("Distributed live ingest: Broker.Add while serving")
	docs := p.docs
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = docs
	cfg.Seed = p.seed
	c := corpus.Generate(cfg)
	queries := c.EfficiencyQueries(min(p.queries, 1000), p.seed+23)
	strat := ir.BM25TCMQ8
	ctx := context.Background()

	seedDocs := docs / 2
	seedColl, err := c.Slice(0, seedDocs)
	if err != nil {
		return err
	}
	baseDir, err := os.MkdirTemp("", "trecbench-ingest-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(baseDir)

	const partitions, replicas = 2, 2
	fmt.Printf("seeding %d partitions x %d replicas with %d of %d docs ...\n",
		partitions, replicas, seedDocs, docs)
	dirs, err := dist.BuildLivePartitions(seedColl, partitions, baseDir)
	if err != nil {
		return err
	}
	cl, err := dist.StartClusterFromDirs(dirs, 0, dist.WithReplicas(replicas))
	if err != nil {
		return err
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		return err
	}
	defer brk.Close()
	for _, q := range queries[:min(len(queries), 100)] {
		if _, _, err := brk.SearchContext(ctx, q.Terms, 20, strat); err != nil {
			return err
		}
	}

	// The disturbance: the second half of the collection through Broker.Add
	// in two dozen paced batches (think time after each keeps the ingest
	// duty cycle near 25% instead of hammering back-to-back appends).
	addStream := func() error {
		const nBatches = 24
		batch := (docs - seedDocs + nBatches - 1) / nBatches
		var addLats []time.Duration
		var added, shippedFiles, lagging int
		var shippedBytes int64
		partsHit := map[int]int{}
		for lo := seedDocs; lo < docs; lo += batch {
			ds, err := c.Docs(lo, min(lo+batch, docs))
			if err != nil {
				return err
			}
			t0 := time.Now()
			st, err := brk.Add(ctx, ds)
			if err != nil {
				return fmt.Errorf("add of docs [%d,%d): %w", lo, lo+len(ds), err)
			}
			addLat := time.Since(t0)
			addLats = append(addLats, addLat)
			time.Sleep(3 * addLat)
			added += st.Docs
			shippedFiles += st.ShippedFiles
			shippedBytes += st.ShippedBytes
			lagging += st.Lagging
			partsHit[st.Partition]++
		}
		fmt.Printf("%d adds (%d docs) across %d partitions: add p50 %.2f ms, p99 %.2f ms\n",
			len(addLats), added, len(partsHit), loadgen.Ms(loadgen.Percentile(addLats, 50)), loadgen.Ms(loadgen.Percentile(addLats, 99)))
		fmt.Printf("shipped %d files / %.2f MB to replicas, %d lagging pulls, gens %v\n",
			shippedFiles, float64(shippedBytes)/(1<<20), lagging, brk.PartitionGens())
		return nil
	}
	if err := servePhases(ctx, brk, queries, strat, "during-ingest", addStream); err != nil {
		return err
	}
	fmt.Println("\n(shape: during-ingest p99 tracks quiesced-after p99 — segment installs")
	fmt.Println(" swap under the epoch-refcounted refresh, so a search never waits on an")
	fmt.Println(" install; a replica pulls from the primary on a connection of its own, so")
	fmt.Println(" bulk transfer never queues behind or ahead of a query round trip)")
	return nil
}
