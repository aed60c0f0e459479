package dist

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/loadgen"
)

// TestPartialResultsDegradedRanking: with WithPartialResults, killing a
// whole replica group must not fail the batch — the survivors answer,
// every result carries the Degraded flag, and the ranking equals what a
// broker dialed over only the surviving partitions would produce.
func TestPartialResultsDegradedRanking(t *testing.T) {
	c := testCollection(t)
	queries := c.PrecisionQueries(6, 59)
	reqs := make([]Request, len(queries))
	for i, q := range queries {
		reqs[i] = Request{Terms: q.Terms, K: 10, Strategy: ir.BM25TCMQ8}
	}

	cl, err := StartCluster(c, 3, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker(WithPartialResults())
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	// Healthy cluster: partial-results mode must be invisible.
	out, timing, err := brk.SearchMany(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if timing.DegradedGroups != 0 {
		t.Fatalf("healthy cluster reported %d degraded groups", timing.DegradedGroups)
	}
	for qi, r := range out {
		if r.Degraded {
			t.Fatalf("healthy cluster flagged query %d degraded", qi)
		}
	}
	assertRankingsEqual(t, "partial/healthy", out, centralizedRankings(t, c, queries, 10))

	// Kill the whole of partition 2's replica group.
	cl.Replica(2, 0).Close()
	cl.Replica(2, 1).Close()

	out, timing, err = brk.SearchMany(context.Background(), reqs)
	if err != nil {
		t.Fatalf("partial-results broker failed with survivors available: %v", err)
	}
	if timing.DegradedGroups != 1 {
		t.Errorf("DegradedGroups = %d, want 1", timing.DegradedGroups)
	}
	for qi, r := range out {
		if r.Err != nil {
			t.Fatalf("query %d: %v", qi, r.Err)
		}
		if !r.Degraded {
			t.Errorf("query %d not flagged degraded with a group down", qi)
		}
	}

	// The degraded ranking must equal a broker serving only the survivors.
	sbrk, err := DialGroups(cl.CurrentGroups()[:2])
	if err != nil {
		t.Fatal(err)
	}
	defer sbrk.Close()
	want, _, err := sbrk.SearchMany(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range want {
		if len(out[qi].Results) != len(want[qi].Results) {
			t.Fatalf("query %d: %d results, survivors give %d",
				qi, len(out[qi].Results), len(want[qi].Results))
		}
		for ri := range want[qi].Results {
			if out[qi].Results[ri].DocID != want[qi].Results[ri].DocID {
				t.Errorf("query %d rank %d: docid %d != survivors' %d",
					qi, ri, out[qi].Results[ri].DocID, want[qi].Results[ri].DocID)
			}
		}
	}

	// MetricsSnapshot records the outage.
	if m := brk.MetricsSnapshot(); m.DegradedGroups == 0 {
		t.Error("broker metrics did not count the degraded group")
	}

	// Without the option the same outage is still a hard error (pinned by
	// TestDeadReplicaGroupError; re-checked here against this cluster).
	hbrk, err := cl.NewBroker()
	if err == nil {
		defer hbrk.Close()
		if _, _, err := hbrk.SearchMany(context.Background(), reqs); err == nil {
			t.Error("strict broker succeeded with a whole replica group down")
		}
	}
}

// TestFaultErrorPropagates: FaultError answers queries with an
// application-level error over a healthy transport, so it must surface as
// a per-query error — not trigger failover, not kill the connection.
func TestFaultErrorPropagates(t *testing.T) {
	c := testCollection(t)
	cl, err := StartCluster(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	q := c.EfficiencyQueries(1, 61)[0]
	cl.Replica(0, 0).SetFault(2, FaultError, 0)
	var faulted, ok int
	for i := 0; i < 10; i++ {
		_, _, err := brk.Search(q.Terms, 10, ir.BM25TCMQ8)
		switch {
		case err == nil:
			ok++
		case strings.Contains(err.Error(), "injected fault"):
			faulted++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if faulted == 0 || ok == 0 {
		t.Fatalf("every-2nd-request fault: %d faulted, %d ok", faulted, ok)
	}

	// FaultNone must clear any mode.
	cl.Replica(0, 0).SetFault(0, FaultNone, 0)
	if _, _, err := brk.Search(q.Terms, 10, ir.BM25TCMQ8); err != nil {
		t.Fatalf("fault cleared but search failed: %v", err)
	}
}

// TestBrokerConcurrentKillRevive hammers one broker from several
// goroutines while replicas are dropped and revived underneath it and
// health/metrics snapshots are read concurrently — the race detector is
// the real assertion; liveness (queries keep succeeding, since at most
// one replica per group is down at a time) is the secondary one.
func TestBrokerConcurrentKillRevive(t *testing.T) {
	c := testCollection(t)
	queries := c.EfficiencyQueries(16, 67)
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = Request{Terms: queries[i].Terms, K: 10, Strategy: ir.BM25TCMQ8}
	}

	cl, err := StartCluster(c, 3, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	brk, err := cl.NewBroker(WithHedging(), WithPartialResults())
	if err != nil {
		t.Fatal(err)
	}
	defer brk.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var okCalls, errCalls atomic.Int64

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := brk.SearchMany(context.Background(), reqs); err != nil {
					errCalls.Add(1)
				} else {
					okCalls.Add(1)
				}
			}
		}(g)
	}
	// Fault toggler: alternately drop replica 0 and replica 1 of every
	// partition — never both, so failover always has a survivor.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := i % 2
			for p := 0; p < cl.Partitions(); p++ {
				cl.Replica(p, r).SetFault(1, FaultDrop, 0)
			}
			time.Sleep(30 * time.Millisecond)
			for p := 0; p < cl.Partitions(); p++ {
				cl.Replica(p, r).SetFault(0, FaultNone, 0)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	// Observers: health and metrics snapshots race against the toggling.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			brk.Replicas()
			brk.MetricsSnapshot()
			time.Sleep(5 * time.Millisecond)
		}
	}()

	time.Sleep(700 * time.Millisecond)
	close(stop)
	wg.Wait()

	if okCalls.Load() == 0 {
		t.Fatalf("no SearchMany call succeeded under kill/revive (%d errors)", errCalls.Load())
	}
	t.Logf("kill/revive: %d ok, %d errored", okCalls.Load(), errCalls.Load())
}

// TestAdmissionShedsAtSaturation: at 2x the (stall-throttled) capacity,
// an admission-controlled broker must reject the excess with
// qos.ErrOverloaded and keep the p99 of what it does serve bounded near
// the deadline, while the uncontrolled broker's open-loop queue pushes
// its p99 to a multiple of the SLO.
func TestAdmissionShedsAtSaturation(t *testing.T) {
	c := testCollection(t)
	queries := c.EfficiencyQueries(32, 71)
	cl, err := StartCluster(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Every request stalls 5ms: capacity ~200 q/s on the single serialized
	// connection, independent of host speed.
	cl.Replica(0, 0).SetFault(1, FaultStall, 5*time.Millisecond)

	const (
		rate = 400 // 2x the stall-bound capacity
		slo  = 40 * time.Millisecond
		dur  = 600 * time.Millisecond
	)

	run := func(brk *Broker, deadline time.Duration) loadgen.Stats {
		t.Helper()
		st, err := loadgen.Run(context.Background(), loadgen.Config{
			Rate:       rate,
			Duration:   dur,
			NumQueries: len(queries),
			SLO:        slo,
			Deadline:   deadline,
			Seed:       7,
		}, func(ctx context.Context, qi int) error {
			_, _, err := brk.SearchContext(ctx, queries[qi].Terms, 10, ir.BM25TCMQ8)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	plain, err := cl.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	pst := run(plain, 0) // no deadline: the queue grows for the whole run
	plain.Close()

	shed, err := cl.NewBroker(WithAdmission(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	sst := run(shed, slo)
	m := shed.MetricsSnapshot()
	shed.Close()

	if pst.P99 < 3*slo {
		t.Errorf("uncontrolled broker p99 %v should exceed 3x the %v SLO at 2x load", pst.P99, slo)
	}
	if sst.Shed == 0 {
		t.Error("admission-controlled broker shed nothing at 2x load")
	}
	if m.Shed == 0 {
		t.Error("broker metrics did not count the shed calls")
	}
	if sst.Completed == 0 {
		t.Fatal("admission-controlled broker completed nothing")
	}
	if sst.P99 > 2*slo {
		t.Errorf("admitted p99 %v exceeds 2x the %v SLO", sst.P99, slo)
	}
	// Note sst.Shed > 0 already proves the rejection error is typed: the
	// load generator classifies a request as shed only when its error
	// matches errors.Is(err, qos.ErrOverloaded).
}
