package dist

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/serving"
	"repro/internal/trace"
)

// Timing reports one call's fan-out: the end-to-end total and each
// partition group's response time (request written to the winning
// replica's response decoded, summed over the call's rounds). The
// max-vs-min spread across PerServer is the Table 3 story: per-query
// latency tracks the slowest partition.
type Timing struct {
	Total     time.Duration
	PerServer []time.Duration
	// Hedged counts hedge requests this call issued (primary exceeded the
	// hedge budget, slice re-sent to another replica); Retried counts
	// failover re-issues after a replica failed mid-query.
	Hedged  int
	Retried int
	// DegradedGroups counts replica groups that were entirely down for
	// this call and skipped under WithPartialResults (always 0 without
	// it — a down group is then an error instead).
	DegradedGroups int
	// Stats are the query stats merged across servers for single-query
	// Search: Wall is the slowest server's per round (latency tracks max),
	// Candidates are summed, SecondPass is set when the broker sent the
	// query to round 2, the disjunctive pass. SearchMany reports stats per
	// query in its BatchResults instead and leaves this zero.
	Stats ir.QueryStats
	// Trace is the stitched span tree of the whole distributed call —
	// broker fan-out, per-group attempts (hedges and retries included,
	// winner marked), each winning server's own subtree, and the global
	// merge — present when any request in the batch set Request.Trace.
	Trace *trace.Span
	// Gens reports, per partition group, the generation the winning
	// replica answered at (0 for groups that failed). On an ingesting cluster
	// this is the consistency evidence: the merged ranking reflects
	// exactly these generations, each at least the broker's pinned
	// generation for its partition.
	Gens []uint64
}

// ReplicaStatus is one replica's broker-side view: its address, whether it
// is currently considered healthy (not in a failure cooldown), the moving
// response-time estimate steering hedge/retry target order, and the count
// of consecutive failures.
type ReplicaStatus struct {
	Addr    string
	Healthy bool
	EWMA    time.Duration
	Fails   int
}

// BrokerOption tunes a Broker at dial time.
type BrokerOption func(*brokerConfig)

type brokerConfig struct {
	hedging bool // WithHedging given

	partial bool // WithPartialResults given

	admitLimit int // WithAdmission: concurrent batches at full rate (0 = off)
	admitQueue int // WithAdmission: waiters beyond the limit (0 = no hard cap)

	slowQuery time.Duration // WithSlowQueryThreshold: keep traces of calls over this
	traceRate float64       // WithTraceSampling: fraction of calls traced regardless
	opsAddr   string        // WithOpsServer: HTTP ops endpoint listen address
}

// WithHedging arms hedged fan-out: when a partition's primary replica
// has not answered within the group's hedge budget, the broker re-issues
// that partition's batch slice to the next-best replica of the group and
// takes whichever answer lands first, canceling the loser. Each group
// sets its own budget at 4x the median of its recent wins in a sliding
// window — "slower than expected" at whatever latency the group runs
// at, with nothing to tune. A group stays unhedged until it has 32
// samples, and a 5% hedge-rate cap bounds the duplicated work even when
// the distribution degrades: a group whose every request turns slow gets
// at most 5% extra load, not a doubling. Partitions with a single
// replica never hedge.
func WithHedging() BrokerOption {
	return func(c *brokerConfig) { c.hedging = true }
}

// WithPartialResults opts the broker into degraded answers: when an
// entire replica group is down (every member failed), the batch is
// answered from the surviving partitions with each result flagged
// Degraded, instead of failing outright. The ranking is correct over
// the partitions that answered — partitions hold disjoint documents, so
// survivors' scores are unaffected — but documents on the dead
// partitions are missing. Without this option a fully-down group fails
// the batch (the default, and the right call when completeness matters
// more than availability).
func WithPartialResults() BrokerOption {
	return func(c *brokerConfig) { c.partial = true }
}

// WithAdmission turns on broker-side load shedding: at most limit
// concurrent SearchMany calls are served at full rate; beyond that, a
// call whose estimated queue wait exceeds its context deadline — or that
// finds more than maxQueue calls already waiting (0 = no hard cap) — is
// rejected immediately with an error matching qos.ErrOverloaded. The
// limit should reflect the call parallelism the cluster actually
// sustains through this broker (its per-replica connections serialize,
// so replicas-per-group is the natural ceiling).
func WithAdmission(limit, maxQueue int) BrokerOption {
	return func(c *brokerConfig) {
		c.admitLimit = limit
		c.admitQueue = maxQueue
	}
}

// WithSlowQueryThreshold arms the broker's slow-query log: every
// SearchMany call records a stitched distributed trace (fan-out,
// per-group attempts with hedges and retries, each winning server's own
// span subtree), and calls that finish at or over d are kept —
// Broker.SlowQueries returns the worst recent ones, and the ops
// endpoint (WithOpsServer) renders them at /debug/slow. 0 disables; a
// trace can still be requested per call via Request.Trace.
func WithSlowQueryThreshold(d time.Duration) BrokerOption {
	return func(c *brokerConfig) { c.slowQuery = d }
}

// WithTraceSampling keeps a random fraction of call traces regardless of
// duration; sampled traces land in the same log SlowQueries reads.
// rate is clamped to [0, 1].
func WithTraceSampling(rate float64) BrokerOption {
	return func(c *brokerConfig) {
		if rate < 0 {
			rate = 0
		}
		if rate > 1 {
			rate = 1
		}
		c.traceRate = rate
	}
}

// WithOpsServer starts an HTTP ops endpoint on addr (host:port; port 0
// picks a free port, see Broker.OpsAddr) serving Prometheus text-format
// metrics at /metrics (every BrokerMetrics counter plus per-group and
// per-replica state), pprof at /debug/pprof/*, cluster health at
// /health, and rendered slow traces at /debug/slow. Close shuts it
// down.
func WithOpsServer(addr string) BrokerOption {
	return func(c *brokerConfig) { c.opsAddr = addr }
}

// Broker fans query batches out to one replica per partition group and
// merges the local top-k lists into the global ranking, hedging and
// failing over inside each group. It keeps one persistent query
// connection per replica, plus an ingest connection for Adds; it is safe
// for concurrent use — requests to the same replica serialize on that
// connection while different replicas proceed in parallel. For
// independent throughput streams (Table 3), use one Broker per stream so
// streams do not share connections.
type Broker struct {
	// mem is the broker's current view of the cluster shape — replica
	// groups and pinned generations — behind one atomic pointer so the
	// elastic control plane can swap the whole layout under live traffic.
	// Every call acquires the membership for its duration (refcounted,
	// validate-after-increment like serving.Core.Acquire); a topology change publishes
	// a new membership and drains the old one. memMu serializes swaps.
	memMu sync.Mutex
	mem   atomic.Pointer[membership]

	cfg     brokerConfig // kept for rebuilding groups on retarget
	partial bool
	admit   *qos.Controller // nil unless WithAdmission
	tracer  *trace.Tracer
	ops     *obs.Server // nil unless WithOpsServer

	// healthExtra, when set (SetHealthExtra), is folded into the ops
	// endpoint's /health document — the reconciler publishes its live
	// progress through it.
	healthMu    sync.Mutex
	healthExtra func() any

	// Cumulative serving counters behind MetricsSnapshot.
	calls    metrics.Counter // SearchMany invocations (admitted)
	queries  metrics.Counter // requests across admitted batches
	shed     metrics.Counter // SearchMany invocations rejected by admission
	hedged   metrics.Counter // hedge requests issued
	retried  metrics.Counter // failover re-issues
	degraded metrics.Counter // whole-group outages answered around (partial mode)
	latency  *metrics.Histogram
}

// membership is one immutable cluster layout: the replica groups and,
// per group, the generation-pinning entry. gens[gi] is the highest
// generation the broker has seen partition gi commit (an Add it routed)
// or answer at; every search pins it (wireRequest.PinGen) so a replica
// that has not caught up refuses rather than answering with missing
// documents, and failover absorbs the skew. Gens are *pointers* so a
// partition's pin survives membership swaps — the pointer is the
// partition's identity across reconfigurations.
//
// A membership with a non-nil sealed channel is a commit barrier: no
// call may acquire it — acquirers block until the channel closes, then
// re-load whatever final membership the sealer published. The elastic
// control plane seals around the commit point of a split or merge so
// every query either completes against the old layout or starts against
// the new one, never against a half-committed range.
type membership struct {
	groups []*group
	gens   []*atomic.Uint64
	sealed chan struct{} // non-nil: transitional, acquires block until closed
	refs   atomic.Int64
}

// acquireMem pins the current membership for one call. Blocks while a
// sealed (transitional) membership is published; validate-after-
// increment detects a swap racing the acquire.
func (b *Broker) acquireMem(ctx context.Context) (*membership, error) {
	for {
		m := b.mem.Load()
		if m == nil {
			return nil, errors.New("dist: broker closed")
		}
		if m.sealed != nil {
			select {
			case <-m.sealed:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		m.refs.Add(1)
		if b.mem.Load() == m {
			return m, nil
		}
		m.refs.Add(-1)
	}
}

func (m *membership) release() { m.refs.Add(-1) }

// drain waits until no call holds the membership — the barrier a swap
// uses before retiring connections or committing a range change the old
// layout must not observe.
func (m *membership) drain(ctx context.Context) error {
	for m.refs.Load() != 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}

// newMembership dials one replica group per address list, building the
// next membership. Replicas whose address already exists in old are
// adopted — connections, latency estimate, and cooldown state carry over
// — so a reconfiguration never cold-starts the surviving fleet. gens
// supplies each partition's pinning entry (nil entries get a fresh
// zero); a carried-over pointer also carries the group's hedge
// tracker, since pointer identity marks "same partition, new shape".
// frozen, when non-nil, marks per-group Add-routing freezes.
//
// Dial failures follow the DialGroups rule: a dead replica starts in
// cooldown as long as its group keeps one live member; a fully dead
// group fails the build (newly dialed connections are closed, adopted
// ones are left alone).
func (b *Broker) newMembership(lists [][]string, old *membership, gens []*atomic.Uint64, frozen []bool) (*membership, error) {
	if len(lists) == 0 {
		return nil, errors.New("dist: membership with no groups")
	}
	adopt := make(map[string]*replica)
	oldHedger := make(map[*atomic.Uint64]*qos.Hedger)
	if old != nil {
		for gi, g := range old.groups {
			for _, r := range g.replicas {
				adopt[r.conn.addr] = r
			}
			if gi < len(old.gens) {
				oldHedger[old.gens[gi]] = g.hedger
			}
		}
	}
	m := &membership{
		groups: make([]*group, len(lists)),
		gens:   make([]*atomic.Uint64, len(lists)),
	}
	var dialed []*srvConn
	fail := func(err error) (*membership, error) {
		for _, sc := range dialed {
			sc.close()
		}
		return nil, err
	}
	for gi, addrs := range lists {
		if len(addrs) == 0 {
			return fail(fmt.Errorf("dist: partition %d has no replica addresses", gi))
		}
		gen := (*atomic.Uint64)(nil)
		if gens != nil && gi < len(gens) {
			gen = gens[gi]
		}
		if gen == nil {
			gen = &atomic.Uint64{}
		}
		m.gens[gi] = gen
		g := &group{replicas: make([]*replica, len(addrs))}
		if frozen != nil && gi < len(frozen) {
			g.frozen = frozen[gi]
		}
		if h, ok := oldHedger[gen]; ok && h != nil {
			g.hedger = h
		} else if b.cfg.hedging {
			g.hedger = qos.NewHedger()
		}
		live := 0
		var dialErr error
		for ri, addr := range addrs {
			if r, ok := adopt[addr]; ok {
				g.replicas[ri] = r
				live++
				continue
			}
			sc := &srvConn{addr: addr}
			r := &replica{conn: sc, ingest: &srvConn{addr: addr}}
			if err := sc.dial(); err != nil {
				dialErr = err
				r.observeFailure(time.Now())
			} else {
				dialed = append(dialed, sc)
				live++
			}
			g.replicas[ri] = r
		}
		if live == 0 {
			return fail(fmt.Errorf("dist: partition %d: replica group unreachable (all %d replicas failed): %w",
				gi, len(addrs), dialErr))
		}
		m.groups[gi] = g
	}
	return m, nil
}

// Retarget rebinds the broker to a changed replica layout with the same
// partition ranges: groups[p] is partition p's new address list,
// index-aligned with the current membership so every pinned generation
// carries over. Surviving replicas keep their connections and state;
// removed replicas' connections close once every in-flight call drains.
// This is the reconfiguration step behind replica adds, retires, and
// moves — queries and Adds keep flowing throughout (no seal: the
// partition ranges are unchanged, so old-layout and new-layout answers
// are equally correct).
func (b *Broker) Retarget(groups [][]string) error {
	b.memMu.Lock()
	defer b.memMu.Unlock()
	old := b.mem.Load()
	if old == nil {
		return errors.New("dist: broker closed")
	}
	if len(groups) != len(old.groups) {
		return fmt.Errorf("dist: Retarget with %d groups, broker serves %d (range changes go through the reconciler)",
			len(groups), len(old.groups))
	}
	next, err := b.newMembership(groups, old, old.gens, nil)
	if err != nil {
		return err
	}
	b.mem.Store(next)
	if err := old.drain(context.Background()); err != nil {
		return err
	}
	closeRetired(old, next)
	return nil
}

// seal swaps in a sealed barrier membership and drains the current one:
// after seal returns, no call holds the old layout and every new
// SearchMany/Add parks until unseal. This brackets the commit point of a
// range operation (split or merge) — the instant the partition set
// changes on disk, no query can be mid-flight against either layout.
// Returns the drained membership for unseal to build the successor from.
func (b *Broker) seal(ctx context.Context) (*membership, error) {
	b.memMu.Lock()
	defer b.memMu.Unlock()
	old := b.mem.Load()
	if old == nil {
		return nil, errors.New("dist: broker closed")
	}
	if old.sealed != nil {
		return nil, errors.New("dist: broker already sealed")
	}
	barrier := &membership{groups: old.groups, gens: old.gens, sealed: make(chan struct{})}
	b.mem.Store(barrier)
	if err := old.drain(ctx); err != nil {
		b.mem.Store(old)
		close(barrier.sealed)
		return nil, err
	}
	return old, nil
}

// unseal publishes next (nil reverts to old — the abort path) and
// releases every caller parked on the seal; they re-acquire and get the
// published layout. Connections retired by the new layout close here —
// old drained during seal, so nothing is using them.
func (b *Broker) unseal(old, next *membership) {
	b.memMu.Lock()
	defer b.memMu.Unlock()
	cur := b.mem.Load()
	if next == nil {
		next = old
	}
	b.mem.Store(next)
	if cur != nil && cur.sealed != nil {
		close(cur.sealed)
	}
	if next != old {
		closeRetired(old, next)
	}
}

// freeze republishes the current layout with the given per-partition
// Add-routing freeze flags (index-aligned; short slices leave the rest
// unfrozen) and drains the old view, so once freeze returns no in-flight
// Add can commit on a newly frozen partition. Queries are unaffected.
func (b *Broker) freeze(ctx context.Context, frozen []bool) error {
	b.memMu.Lock()
	defer b.memMu.Unlock()
	old := b.mem.Load()
	if old == nil {
		return errors.New("dist: broker closed")
	}
	next := &membership{groups: make([]*group, len(old.groups)), gens: old.gens}
	for gi, g := range old.groups {
		next.groups[gi] = &group{replicas: g.replicas, hedger: g.hedger,
			frozen: gi < len(frozen) && frozen[gi]}
	}
	b.mem.Store(next)
	return old.drain(ctx)
}

// closeRetired closes connections that appear in old but not in next —
// only safe after old has drained.
func closeRetired(old, next *membership) {
	kept := make(map[string]bool)
	for _, g := range next.groups {
		for _, r := range g.replicas {
			kept[r.conn.addr] = true
		}
	}
	for _, g := range old.groups {
		for _, r := range g.replicas {
			if !kept[r.conn.addr] {
				r.close()
			}
		}
	}
}

// DialGroups connects a broker to a replicated cluster: groups[p] lists
// the addresses of partition p's replica group. Every replica of a group
// must serve the same partition index — the broker freely re-issues a
// partition's work to any member when hedging or failing over.
//
// A replica that cannot be dialed does not fail the broker as long as its
// group has at least one reachable member: the dead replica starts in a
// failure cooldown and is lazily redialed when next tried, so brokers can
// come up while part of the fleet is down. Only a fully unreachable group
// is an error.
func DialGroups(groups [][]string, opts ...BrokerOption) (*Broker, error) {
	if len(groups) == 0 {
		return nil, errors.New("dist: DialGroups with no groups")
	}
	var cfg brokerConfig
	for _, o := range opts {
		o(&cfg)
	}
	b := &Broker{
		cfg:     cfg,
		partial: cfg.partial,
		tracer:  trace.NewTracer(cfg.slowQuery, cfg.traceRate, 0),
		latency: metrics.NewHistogram(2*time.Minute, 8),
	}
	if cfg.admitLimit > 0 {
		b.admit = qos.NewController(cfg.admitLimit, cfg.admitQueue)
	}
	m, err := b.newMembership(groups, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	b.mem.Store(m)
	if cfg.opsAddr != "" {
		srv, err := obs.Start(cfg.opsAddr, brokerOps{b})
		if err != nil {
			b.Close()
			return nil, err
		}
		b.ops = srv
	}
	return b, nil
}

// Close stops the ops endpoint (if any) and closes every replica
// connection.
func (b *Broker) Close() error {
	b.ops.Close()
	m := b.mem.Swap(nil)
	if m == nil {
		return nil
	}
	for _, g := range m.groups {
		if g == nil {
			continue
		}
		for _, r := range g.replicas {
			if r != nil {
				r.close()
			}
		}
	}
	return nil
}

// Replicas reports the broker's current per-replica view, one slice per
// partition group: health, consecutive failures, and the moving latency
// estimate. Observability for operators and the failure-injection tests.
func (b *Broker) Replicas() [][]ReplicaStatus {
	m := b.mem.Load()
	if m == nil {
		return nil
	}
	now := time.Now()
	out := make([][]ReplicaStatus, len(m.groups))
	for gi, g := range m.groups {
		out[gi] = make([]ReplicaStatus, len(g.replicas))
		for ri, r := range g.replicas {
			out[gi][ri] = r.status(now)
		}
	}
	return out
}

// SetHealthExtra installs a provider whose value is embedded in the ops
// endpoint's /health document under "reconcile" — how a live reconciler
// publishes its progress to operators. Pass nil to clear.
func (b *Broker) SetHealthExtra(fn func() any) {
	b.healthMu.Lock()
	b.healthExtra = fn
	b.healthMu.Unlock()
}

func (b *Broker) healthExtraValue() any {
	b.healthMu.Lock()
	fn := b.healthExtra
	b.healthMu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// Search broadcasts a query and merges the per-server top-k lists.
func (b *Broker) Search(terms []string, k int, strat ir.Strategy) ([]ir.Result, Timing, error) {
	return b.SearchContext(context.Background(), terms, k, strat)
}

// SearchContext is Search under a context: cancellation and deadlines
// apply to every server round-trip, and the remaining deadline is
// forwarded so servers stop working for callers that gave up. It is a
// batch of one: the returned Timing carries the per-partition response
// times, hedge/retry counts, and the cross-server merged stats.
func (b *Broker) SearchContext(ctx context.Context, terms []string, k int, strat ir.Strategy) ([]ir.Result, Timing, error) {
	res, timing, err := b.SearchMany(ctx, []Request{{Terms: terms, K: k, Strategy: strat}})
	if err != nil {
		return nil, timing, err
	}
	if res[0].Err != nil {
		return nil, timing, res[0].Err
	}
	timing.Stats = res[0].Stats
	return res[0].Results, timing, nil
}

// SearchMany fans a whole batch of queries out in ONE round trip per
// partition — each server executes its slice of work concurrently through
// its searcher pool — and merges every query's per-server top-k lists into
// the global rankings; the two-pass queries whose conjunctive yield over
// the whole collection falls short of k take a second round trip, the
// disjunctive round, which hedges, fails over and pins like the first.
// Within each replica group the broker picks a primary (round-robin over
// healthy replicas), hedges when the primary exceeds the group's hedge
// budget, and fails over to the remaining replicas when a connection
// breaks or a reply does not fit its request; a query errors at the
// transport level only when a whole replica group is down — unless
// WithPartialResults is on, in which case the survivors answer and every
// result is flagged Degraded. With WithAdmission, a call that would miss
// its deadline just queueing is rejected with qos.ErrOverloaded before
// any work is fanned out. Results are returned in request order with
// per-request errors; the error return is reserved for transport-level
// failure (and admission rejection).
func (b *Broker) SearchMany(ctx context.Context, reqs []Request) ([]BatchResult, Timing, error) {
	// Pin the membership for the whole call: the layout (and each
	// partition's pinned generation) stays coherent even while the
	// reconciler swaps the cluster shape underneath. A sealed membership
	// (a range-op commit window) parks the call here until the new layout
	// is published.
	m, err := b.acquireMem(ctx)
	if err != nil {
		return nil, Timing{}, err
	}
	defer m.release()
	timing := Timing{
		PerServer: make([]time.Duration, len(m.groups)),
		Gens:      make([]uint64, len(m.groups)),
	}
	if len(reqs) == 0 {
		return []BatchResult{}, timing, nil
	}
	if b.admit != nil {
		if err := b.admit.Admit(ctx); err != nil {
			b.shed.Inc()
			return nil, timing, err
		}
	}
	b.calls.Inc()
	b.queries.Add(int64(len(reqs)))
	force := false
	for i := range reqs {
		force = force || reqs[i].Trace
	}
	t := b.tracer.Begin("broker.search", force)
	t.SetAttr(trace.Root, "queries", int64(len(reqs)))
	t.SetAttr(trace.Root, "groups", int64(len(m.groups)))
	finish := func(tm *Timing, callErr error) {
		if t == nil {
			return
		}
		if callErr != nil {
			t.SetAttrStr(trace.Root, "error", callErr.Error())
		}
		root := b.tracer.Finish(t)
		if force && root != nil {
			tm.Trace = root
		}
	}
	// K is resolved before fan-out: each server would turn K = 0 into
	// DefaultK alike, but the merge cuts the union of their lists to K. A
	// negative K goes out as it came, for every server to refuse.
	reqs = slices.Clone(reqs)
	for i := range reqs {
		if k, err := serving.ResolveK(reqs[i].K); err == nil {
			reqs[i].K = k
		}
	}
	start := time.Now()
	defer func() {
		d := time.Since(start)
		b.latency.Observe(d)
		if b.admit != nil {
			// One batch is the admission unit; its full fan-out time is the
			// service sample the wait estimator runs on.
			b.admit.Done(d)
		}
	}()

	fail := func(err error) ([]BatchResult, Timing, error) {
		timing.Total = time.Since(start)
		finish(&timing, err)
		return nil, timing, err
	}
	rootStart := start
	if t != nil {
		rootStart = t.StartTime()
	}
	// The paper's two-pass top-k, gated over the whole collection: round 1
	// asks every partition for each query's first pass, and ir.Gate
	// decides over all of their conjunctive answers which two-pass queries
	// are done; the rest go out as round 2, the disjunctive pass, whose
	// merge is their answer. Both rounds of a query must read the same
	// generation of every partition, so a query whose round 2 met another
	// generation than its round 1 reruns from round 1.
	out := make([]BatchResult, len(reqs))
	down := make([]bool, len(m.groups))
	todo := make([]int, len(reqs))
	for i := range todo {
		todo[i] = i
	}
	for span := ""; len(todo) > 0; span = "rerun" {
		reps1 := b.fanOut(ctx, m, t, span, wireRound(reqs, todo, false, t), rootStart, &timing)
		if err := b.settle(ctx, reps1, down); err != nil {
			return fail(err)
		}
		ms := t.Begin("merge")
		var again []int
		for j, qi := range todo {
			out[qi].Results, out[qi].Err = nil, nil
			round, err := answers(reps1, j, &out[qi].Stats)
			switch {
			case err != nil:
				out[qi].Err = err
			case !reqs[qi].Strategy.TwoPass():
				out[qi].Results = ir.MergeTopK(round, reqs[qi].K)
			default:
				top, disjunctive := ir.Gate(round, reqs[qi].K)
				if disjunctive {
					again = append(again, qi)
				} else {
					out[qi].Results = top
				}
			}
		}
		t.End(ms)
		if len(again) == 0 {
			break
		}
		reps2 := b.fanOut(ctx, m, t, "round2", wireRound(reqs, again, true, t), rootStart, &timing)
		if err := b.settle(ctx, reps2, down); err != nil {
			return fail(err)
		}
		ms = t.Begin("merge")
		for j, qi := range again {
			out[qi].Stats.SecondPass = true
			round, err := answers(reps2, j, &out[qi].Stats)
			out[qi].Results, out[qi].Err = ir.MergeTopK(round, reqs[qi].K), err
		}
		t.End(ms)
		todo = nil
		for gi := range reps2 {
			if reps1[gi].err == nil && reps2[gi].err == nil && reps1[gi].resp.Gen != reps2[gi].resp.Gen {
				todo = again
				break
			}
		}
	}
	// Under WithPartialResults a down group is routed around as long as one
	// survives (settle): the batch answers degraded instead of failing.
	for _, d := range down {
		if d {
			timing.DegradedGroups++
		}
	}
	if timing.DegradedGroups > 0 {
		b.degraded.Add(int64(timing.DegradedGroups))
		for qi := range out {
			out[qi].Degraded = true
		}
	}
	timing.Total = time.Since(start)
	finish(&timing, nil)
	return out, timing, nil
}

// wireRound is the wire request of one round for the queries qs of reqs:
// in round 1 the conjunctive pass of a two-pass strategy and the whole of
// any other, in round 2 the disjunctive pass.
func wireRound(reqs []Request, qs []int, round2 bool, t *trace.Trace) wireRequest {
	wreq := wireRequest{Queries: make([]wireQuery, len(qs))}
	for j, qi := range qs {
		r := &reqs[qi]
		pass := ir.PassBoth
		switch {
		case round2:
			pass = ir.PassDisjunctive
		case r.Strategy.TwoPass():
			pass = ir.PassConjunctive
		}
		wreq.Queries[j] = wireQuery{Terms: r.Terms, K: r.K, Strategy: int(r.Strategy), Pass: int(pass)}
	}
	if t != nil {
		wreq.TraceID = t.ID()
		wreq.TraceSampled = true
	}
	return wreq
}

// fanOut sends one round's request to every partition group at once and
// returns their replies in partition order. Each group's span is grafted
// under the trace root, or under a span of its own for a round with a
// name, and its round trip, hedges, retries and answered generation land
// in tm.
func (b *Broker) fanOut(ctx context.Context, m *membership, t *trace.Trace, name string, wreq wireRequest, root time.Time, tm *Timing) []groupReply {
	parent := trace.Root
	if name != "" {
		parent = t.Begin(name)
		t.SetAttr(parent, "queries", int64(len(wreq.Queries)))
		defer t.End(parent)
	}
	replies := make(chan groupReply, len(m.groups))
	for gi := range m.groups {
		go func(gi int) {
			t0 := time.Now()
			rep := call(ctx, m, gi, wreq, callPolicy{search: true, pin: true, root: root})
			rep.gi = gi
			tm.PerServer[gi] += time.Since(t0)
			replies <- rep
		}(gi)
	}
	reps := make([]groupReply, len(m.groups))
	for range m.groups {
		r := <-replies
		if r.span != nil {
			t.Graft(parent, *r.span)
		}
		tm.Hedged += r.hedged
		tm.Retried += r.retried
		b.hedged.Add(int64(r.hedged))
		b.retried.Add(int64(r.retried))
		tm.Gens[r.gi] = r.resp.Gen
		reps[r.gi] = r
	}
	return reps
}

// settle marks the groups that failed a round down and decides whether the
// call goes on without them: only under WithPartialResults, only while one
// group answered, and never once the caller itself gave up (a context
// error is not an outage). Otherwise it returns the call's error — the
// context's, or the first failure in partition order.
func (b *Broker) settle(ctx context.Context, reps []groupReply, down []bool) error {
	var firstErr error
	failed := 0
	for _, r := range reps {
		if r.err == nil {
			continue
		}
		down[r.gi] = true
		failed++
		if firstErr == nil {
			firstErr = fmt.Errorf("dist: partition %d: %w", r.gi, r.err)
		}
	}
	if firstErr == nil || b.partial && ctx.Err() == nil && failed < len(reps) {
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return firstErr
}

// answers collects query j's answers from one round's replies, one shard
// per group that answered, and folds their stats into st: the slowest
// server's wall adds to the query's, and candidates add up. A per-query
// error from any group fails the query (the first in partition order).
func answers(reps []groupReply, j int, st *ir.QueryStats) ([]ir.Shard, error) {
	round := make([]ir.Shard, 0, len(reps))
	var wall time.Duration
	for _, r := range reps {
		if r.err != nil {
			continue
		}
		a := &r.resp.Queries[j]
		if a.Err != "" {
			return nil, fmt.Errorf("dist: partition %d: %s", r.gi, a.Err)
		}
		var hits []ir.Result
		for _, wr := range a.Results {
			hits = append(hits, ir.Result{DocID: wr.DocID, Name: wr.Name, Score: wr.Score})
		}
		round = append(round, ir.Shard{Hits: hits, Mask: a.Mask})
		wall = max(wall, time.Duration(a.WallNanos))
		st.Candidates += a.Candidates
	}
	st.Wall += wall
	return round, nil
}

// GroupMetrics is one partition group's slice of a BrokerMetrics
// snapshot.
type GroupMetrics struct {
	// HedgeBudget is the delay the group's next hedge timer would arm
	// (0 = hedging off or the group still cold); HedgeCalls and Hedges
	// are the windowed counters the hedge-rate cap is enforced against.
	HedgeBudget time.Duration
	HedgeCalls  int64
	Hedges      int64
	// Replicas is the per-replica health/latency view (same data as
	// Broker.Replicas, one consistent read).
	Replicas []ReplicaStatus
}

// BrokerMetrics is one coherent snapshot of a broker's serving metrics:
// call/query counters, shed and degraded counts, hedge/failover
// activity, the call-latency distribution, and the per-group hedge and
// replica state.
type BrokerMetrics struct {
	Calls   int64 // SearchMany invocations admitted
	Queries int64 // requests across admitted batches
	Shed    int64 // invocations rejected by admission control
	Hedged  int64 // hedge requests issued
	Retried int64 // failover re-issues
	// DegradedGroups counts whole-group outages answered around under
	// WithPartialResults (one per down group per call).
	DegradedGroups int64
	// Inflight is the number of currently admitted calls (0 without
	// WithAdmission).
	Inflight int64
	// Latency is the SearchMany end-to-end latency distribution over
	// roughly the trailing two minutes.
	Latency metrics.HistSnapshot
	Groups  []GroupMetrics
}

// MetricsSnapshot returns the broker's serving metrics. Safe for
// concurrent use and cheap enough to poll.
func (b *Broker) MetricsSnapshot() BrokerMetrics {
	m := BrokerMetrics{
		Calls:          b.calls.Load(),
		Queries:        b.queries.Load(),
		Shed:           b.shed.Load(),
		Hedged:         b.hedged.Load(),
		Retried:        b.retried.Load(),
		DegradedGroups: b.degraded.Load(),
		Latency:        b.latency.Snapshot(),
	}
	if b.admit != nil {
		m.Inflight = b.admit.Inflight()
	}
	mem := b.mem.Load()
	if mem == nil {
		return m
	}
	m.Groups = make([]GroupMetrics, len(mem.groups))
	now := time.Now()
	for gi, g := range mem.groups {
		gm := &m.Groups[gi]
		if g.hedger != nil {
			st := g.hedger.Stats()
			gm.HedgeBudget, gm.HedgeCalls, gm.Hedges = st.Budget, st.Calls, st.Hedges
		}
		gm.Replicas = make([]ReplicaStatus, len(g.replicas))
		for ri, r := range g.replicas {
			gm.Replicas[ri] = r.status(now)
		}
	}
	return m
}
