package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/topology"
)

// rebalanceExperiment measures online rebalancing: the topology
// reconciler walks a cluster through a scripted reconfiguration — add a
// replica to partition 0, move that replica to a different host, retire
// it again — while closed-loop query load runs against the broker the
// whole time.
//
// The claim under test (servePhases asserts it) is that reconciliation is
// a background activity: a new replica pulls segments from a live peer
// on a connection of its own and installs them under the epoch-refcounted
// refresh, retirement drains in-flight requests before closing, and the
// broker retargets between steps.
func rebalanceExperiment(p params) error {
	header("Online rebalancing: topology reconcile while serving")
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = p.docs
	cfg.Seed = p.seed
	c := corpus.Generate(cfg)
	queries := c.EfficiencyQueries(min(p.queries, 1000), p.seed+29)
	strat := ir.BM25TCMQ8
	ctx := context.Background()

	baseDir, err := os.MkdirTemp("", "trecbench-rebalance-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(baseDir)

	const partitions = 2
	fmt.Printf("seeding %d single-replica partitions with %d docs ...\n", partitions, p.docs)
	dirs, err := dist.BuildLivePartitions(c, partitions, baseDir)
	if err != nil {
		return err
	}
	cl, err := dist.StartClusterFromDirs(dirs, 0)
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

	rec := topology.NewReconciler(cl, brk)
	base, err := topology.Observe(cl)
	if err != nil {
		return err
	}
	// Freshly bootstrapped replicas warm against the experiment's own query
	// sample before the broker is retargeted onto them, so the during phase
	// measures steady-state serving, not one replica's cold start.
	warmQs := queries[:min(len(queries), 50)]
	cl.SetReplicaWarmer(func(srv *dist.Server) error { return srv.Warm(strat, warmQs, 20) })
	defer cl.SetReplicaWarmer(nil)

	// The scripted reconcile: each spec clones the observed base shape and
	// reshapes partition 0 only, so partition 1 serves untouched throughout.
	reshape := func(rev uint64, replicas int, hosts []string) *topology.Spec {
		s := &topology.Spec{Magic: topology.SpecMagic, Version: topology.SpecFormatVersion, Revision: rev}
		s.Partitions = append([]topology.PartitionSpec(nil), base.Partitions...)
		s.Partitions[0].Replicas = replicas
		s.Partitions[0].Hosts = hosts
		return s
	}
	specs := []struct {
		name string
		spec *topology.Spec
	}{
		{"add-replica", reshape(1, 2, nil)},
		{"move-replica", reshape(2, 2, []string{base.Partitions[0].Hosts[0], "h9"})},
		{"retire-replica", reshape(3, 1, nil)},
	}

	reconcile := func() error {
		for _, sp := range specs {
			t0 := time.Now()
			if err := rec.Apply(ctx, sp.spec); err != nil {
				return fmt.Errorf("reconcile %s: %w", sp.name, err)
			}
			st := rec.Status()
			fmt.Printf("reconcile %-14s rev %d: %d steps in %.2f s\n",
				sp.name, st.Revision, st.Applied, time.Since(t0).Seconds())
			// Pace the script the way a production rollout would: the cluster
			// serves between steps, and the during-reconcile window collects
			// enough samples for its p99 to be a distribution, not a max.
			time.Sleep(phaseDur / 3)
		}
		return nil
	}
	if err := servePhases(ctx, brk, queries, strat, "during-reconcile", reconcile); err != nil {
		return err
	}
	if !rec.Status().Converged {
		return fmt.Errorf("reconciler did not converge: %+v", rec.Status())
	}
	final, err := topology.Observe(cl)
	if err != nil {
		return err
	}
	fmt.Printf("final layout")
	for _, part := range final.Partitions {
		fmt.Printf(" [lo=%d x%d %v]", part.Lo, part.Replicas, part.Hosts)
	}
	fmt.Println("\n\n(shape: during-reconcile p99 tracks quiesced p99 — a new replica pulls")
	fmt.Println(" from a peer on a connection of its own and installs under the epoch-refcounted")
	fmt.Println(" refresh, retirement drains before closing, and the broker retargets")
	fmt.Println(" between steps, so a search never waits on a reconfiguration)")
	return nil
}
