package dist

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/qos"
	"repro/internal/trace"
)

// Failure cooldown: after n consecutive failures a replica is parked for
// min(n, maxBackoffShifts) doublings of replicaBackoff, so a dead server
// stops being everyone's first choice while still being retried as a last
// resort (cooling replicas stay in the candidate order, after healthy
// ones).
const (
	replicaBackoff   = 250 * time.Millisecond
	maxBackoffShifts = 5 // caps the cooldown at 8s
)

// replica is one server's two connections plus the broker-side
// accounting that steers primary selection, hedge targets, and failover
// order. Queries ride conn; every other verb rides ingest. A round trip
// holds its connection end to end, and an append or a pull lasts as long
// as the segment build or transfer behind it, so sharing one connection
// would stall searches behind ingest.
type replica struct {
	conn   *srvConn
	ingest *srvConn

	mu        sync.Mutex
	ewma      time.Duration // moving search response-time estimate; 0 = unmeasured
	fails     int           // consecutive failures, any verb
	downUntil time.Time     // cooldown deadline while failing
}

// observeSuccess clears any failure state and folds a search's response
// time d into the moving estimate; other verbs pass 0 and leave the
// estimate alone, so a long append never reorders query primaries.
func (r *replica) observeSuccess(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails = 0
	r.downUntil = time.Time{}
	switch {
	case d == 0:
	case r.ewma == 0:
		r.ewma = d
	default:
		r.ewma = (3*r.ewma + d) / 4
	}
}

// observeFailure opens (or extends) the failure cooldown.
func (r *replica) observeFailure(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails++
	shift := r.fails - 1
	if shift > maxBackoffShifts {
		shift = maxBackoffShifts
	}
	r.downUntil = now.Add(replicaBackoff << shift)
}

// snapshot reads the replica's accounting once, under one lock: the
// exported status plus the cooldown deadline candidate ordering needs.
func (r *replica) snapshot(now time.Time) (ReplicaStatus, time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicaStatus{
		Addr:    r.conn.addr,
		Healthy: !now.Before(r.downUntil) || r.fails == 0,
		EWMA:    r.ewma,
		Fails:   r.fails,
	}, r.downUntil
}

func (r *replica) status(now time.Time) ReplicaStatus {
	st, _ := r.snapshot(now)
	return st
}

func (r *replica) close() {
	r.conn.close()
	r.ingest.close()
}

// group is one partition's replica set plus the round-robin cursor that
// spreads primary duty across healthy replicas and, when hedging is on,
// the group's hedge-budget source.
type group struct {
	replicas []*replica
	rr       uint32
	hedger   *qos.Hedger // nil = hedging off
	// frozen marks a partition undergoing a range operation (split or
	// merge prepare): queries keep serving, but Add routing skips it so
	// no commit lands between the reconciler's prepare and its commit.
	frozen bool
	// addMu serializes Adds routed to this partition (Adds to different
	// partitions proceed in parallel; two Adds to the same primary would
	// just contend on the storage writer lock anyway).
	addMu sync.Mutex
}

// candidates returns the replicas in attempt order for one call: the
// round-robin primary first, then the remaining healthy replicas by
// ascending latency estimate (unmeasured ones first, so every replica
// gets measured), then cooling-down replicas by soonest recovery — they
// are retries of last resort, never skipped entirely, because a group
// must exhaust every member before a query is failed.
func (g *group) candidates(now time.Time) []*replica {
	if len(g.replicas) == 1 {
		return g.replicas
	}
	// One consistent snapshot per replica; sorting must not re-read state
	// that observeSuccess/observeFailure may be changing under it.
	type cand struct {
		r    *replica
		ewma time.Duration
		down time.Time
	}
	var healthy, cooling []cand
	for _, r := range g.replicas {
		st, down := r.snapshot(now)
		if st.Healthy {
			healthy = append(healthy, cand{r: r, ewma: st.EWMA})
		} else {
			cooling = append(cooling, cand{r: r, down: down})
		}
	}
	order := make([]*replica, 0, len(g.replicas))
	if len(healthy) > 0 {
		pi := int((atomic.AddUint32(&g.rr, 1) - 1) % uint32(len(healthy)))
		order = append(order, healthy[pi].r)
		rest := append(append([]cand{}, healthy[:pi]...), healthy[pi+1:]...)
		sort.SliceStable(rest, func(i, j int) bool { return rest[i].ewma < rest[j].ewma })
		for _, c := range rest {
			order = append(order, c.r)
		}
	}
	sort.SliceStable(cooling, func(i, j int) bool { return cooling[i].down.Before(cooling[j].down) })
	for _, c := range cooling {
		order = append(order, c.r)
	}
	return order
}

// srvConn is one persistent server connection. A broken connection (I/O
// error, cancellation mid-round-trip) is closed and lazily redialed on
// next use, so a canceled query does not poison the broker.
type srvConn struct {
	addr string

	mu  sync.Mutex
	c   net.Conn
	enc *gob.Encoder
	dec *gob.Decoder
	seq uint64
}

func (sc *srvConn) dial() error {
	c, err := net.Dial("tcp", sc.addr)
	if err != nil {
		return fmt.Errorf("dist: dial %s: %w", sc.addr, err)
	}
	sc.c = c
	sc.enc = gob.NewEncoder(c)
	sc.dec = gob.NewDecoder(c)
	return nil
}

func (sc *srvConn) close() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.c != nil {
		sc.c.Close()
		sc.c = nil
	}
}

// roundTrip sends one request and decodes the reply, honoring ctx: a
// deadline bounds the socket I/O and is forwarded to the server, and a
// cancel unblocks the wait by expiring the connection. The reply must
// echo the request's sequence number; a mismatch (a desynchronized stream
// serving some earlier request's answer) drops the connection and fails
// the call, which the caller treats like any replica failure. A reply
// whose Err field is set comes back as an error too (the connection is
// fine and stays open), so callers handle transport and application
// failures uniformly.
func (sc *srvConn) roundTrip(ctx context.Context, req wireRequest) (wireResponse, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var resp wireResponse
	if sc.c == nil {
		if err := sc.dial(); err != nil {
			return resp, err
		}
	}
	sc.seq++
	req.Seq = sc.seq
	if d, ok := ctx.Deadline(); ok {
		req.TimeoutNanos = time.Until(d).Nanoseconds()
		if req.TimeoutNanos <= 0 {
			return resp, context.DeadlineExceeded
		}
		sc.c.SetDeadline(d)
	} else {
		sc.c.SetDeadline(time.Time{})
	}
	// A cancel must unblock the blocking gob I/O: expire the connection.
	stop := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-ctx.Done():
			sc.c.SetDeadline(time.Unix(1, 0))
		case <-stop:
		}
	}()
	err := sc.enc.Encode(req)
	if err == nil {
		err = sc.dec.Decode(&resp)
	}
	if err == nil && resp.Seq != req.Seq {
		err = fmt.Errorf("reply for request %d to request %d", resp.Seq, req.Seq)
	}
	close(stop)
	<-watchDone
	if err != nil {
		// The stream may hold a half-read reply; drop the connection and
		// redial on next use.
		sc.c.Close()
		sc.c = nil
		if ctxErr := ctx.Err(); ctxErr != nil {
			return resp, ctxErr
		}
		return resp, fmt.Errorf("dist: %s: %w", sc.addr, err)
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("dist: %s: %s", sc.addr, resp.Err)
	}
	return resp, nil
}

// ratchetGen folds an observed generation into the partition's table
// entry, monotonically: generations only grow, so a late answer from an
// older generation can never move pinning backwards.
func ratchetGen(gen *atomic.Uint64, v uint64) {
	for {
		cur := gen.Load()
		if v <= cur || gen.CompareAndSwap(cur, v) {
			return
		}
	}
}

// callPolicy says how one broker round trip uses a partition's replica
// group.
type callPolicy struct {
	// search marks a query batch: it rides the replicas' query
	// connections, may be hedged, and its response time feeds the latency
	// estimate and the hedger. Every other verb rides the ingest
	// connections and leaves latency alone.
	search bool
	// pin stamps the partition's pinned generation on the request: a
	// replica behind it refuses with Stale, which is a failed attempt.
	pin bool
	// order lists the replicas to try, in order; nil means the group's
	// candidates.
	order []*replica
	// root is the trace root a traced call's attempt spans are offset
	// from.
	root time.Time
}

// groupReply is one partition group's outcome for one call.
type groupReply struct {
	gi      int
	resp    wireResponse
	err     error
	r       *replica // the replica that answered (nil on failure)
	hedged  int
	retried int
	// span is the group's fan-out subtree (attempts, hedges, server
	// subtrees) when the call is traced. It is built entirely inside
	// call's goroutine and handed over by the channel send, so the
	// collecting goroutine may graft it without synchronization.
	span *trace.Span
}

// attemptRec is the trace-side record of one replica attempt. It is
// created and mutated only by call's select loop — the attempt goroutine
// reports through the channel, never by touching the record — so
// building the group's span tree needs no locking.
type attemptRec struct {
	addr  string
	start time.Duration // offset from the call's trace root
	end   time.Duration // zero until the attempt reports back
	hedge bool
	retry bool
	win   bool
	err   string
	subs  []trace.Span // the winner's server subtrees, root-shifted
}

// call is every broker round trip to partition gi's replica group: the
// first replica of pol's order gets req, a hedge re-issue follows if the
// group's hedge budget (a multiple of its live median) expires before a
// search's answer lands, and failover re-issues follow as attempts fail.
// The first successful answer wins and outstanding attempts are canceled.
// The call errors only when every replica in the order has been tried and
// failed. Every attempt feeds its replica's health; a Stale refusal of a
// pinned request counts as a failure. When the request is traced
// (req.TraceSampled), every attempt — the winner, the stalled hedge
// victim, failed retries — becomes a span in the reply's span, with
// offsets relative to pol.root.
func call(ctx context.Context, m *membership, gi int, req wireRequest, pol callPolicy) groupReply {
	g := m.groups[gi]
	if pol.pin {
		// Pin the highest generation this broker has seen the partition
		// at: a replica still behind it (replication skew, or freshly
		// revived) answers Stale, which the failure path below absorbs
		// like any other failed attempt. req is this call's copy.
		req.PinGen = m.gens[gi].Load()
	}
	traced := req.TraceSampled
	groupStart := time.Since(pol.root)
	order := pol.order
	if order == nil {
		order = g.candidates(time.Now())
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the losers of a hedge race

	var budget time.Duration // hedging is off without a hedger
	if pol.search && g.hedger != nil {
		budget = g.hedger.Budget() // 0 while the group is still cold
	}

	type attempt struct {
		ai   int // index into recs
		resp wireResponse
		err  error
		r    *replica
		d    time.Duration
	}
	ch := make(chan attempt, len(order))
	var recs []*attemptRec
	next := 0
	launch := func(hedge, retry bool) {
		r := order[next]
		next++
		ai := len(recs)
		if traced {
			recs = append(recs, &attemptRec{
				addr:  r.conn.addr,
				start: time.Since(pol.root),
				hedge: hedge,
				retry: retry,
			})
		}
		sc := r.ingest
		if pol.search {
			sc = r.conn
		}
		go func(r *replica, sc *srvConn) {
			t0 := time.Now()
			resp, err := sc.roundTrip(gctx, req)
			ch <- attempt{ai: ai, resp: resp, err: err, r: r, d: time.Since(t0)}
		}(r, sc)
	}
	launch(false, false)
	inflight := 1

	var rep groupReply
	// done builds the group span from the attempt records on every exit
	// path; attempts still in flight (a stalled primary losing a hedge
	// race, outstanding retries) appear with canceled=1 and a duration
	// running to the group's end — exactly the spans that explain where a
	// hedge saved the call.
	done := func(rep groupReply) groupReply {
		if traced {
			rep.span = buildGroupSpan(gi, groupStart, time.Since(pol.root), recs)
		}
		return rep
	}
	var hedgeC <-chan time.Time
	if budget > 0 && len(order) > 1 {
		t := time.NewTimer(budget)
		defer t.Stop()
		hedgeC = t.C
	}
	var firstErr error
	for {
		select {
		case a := <-ch:
			inflight--
			if a.err == nil && a.resp.Stale {
				// A refused answer is a failed attempt: cool the replica down
				// and re-issue elsewhere. (Its reported generation is older
				// than the pin by definition, so there is nothing to ratchet.)
				a.err = fmt.Errorf("dist: %s: replica at generation %d, behind pinned %d",
					a.r.conn.addr, a.resp.Gen, req.PinGen)
			}
			if a.err == nil && pol.search {
				if err := checkAnswers(&req, &a.resp); err != nil {
					a.err = fmt.Errorf("dist: %s: %w", a.r.conn.addr, err)
				}
			}
			if traced {
				rec := recs[a.ai]
				rec.end = rec.start + a.d
				if a.err != nil {
					rec.err = a.err.Error()
				}
			}
			if a.err == nil {
				ratchetGen(m.gens[gi], a.resp.Gen)
				if pol.search {
					a.r.observeSuccess(a.d)
					if g.hedger != nil {
						g.hedger.Observe(a.d)
					}
				} else {
					a.r.observeSuccess(0)
				}
				if traced {
					rec := recs[a.ai]
					rec.win = true
					// Server subtrees arrive with server-local offsets; shift
					// them onto the call timeline under this attempt.
					for qi := range a.resp.Queries {
						for _, sp := range a.resp.Queries[qi].Trace {
							sp.Shift(rec.start)
							rec.subs = append(rec.subs, sp)
						}
					}
				}
				rep.resp = a.resp
				rep.r = a.r
				return done(rep)
			}
			if ctxErr := ctx.Err(); ctxErr != nil {
				rep.err = ctxErr
				return done(rep)
			}
			a.r.observeFailure(time.Now())
			if firstErr == nil {
				firstErr = a.err
			}
			if next < len(order) {
				launch(false, true)
				rep.retried++
				inflight++
			} else if inflight == 0 {
				rep.err = firstErr
				if len(order) > 1 {
					rep.err = fmt.Errorf("all %d replicas tried failed: %w", len(order), firstErr)
				}
				return done(rep)
			}
		case <-hedgeC:
			hedgeC = nil // one hedge per partition per call
			// The hedger may veto the hedge: past the rate cap the slow
			// attempt rides unhedged, bounding duplicated work at the cap
			// even when the whole group turns slow.
			if next < len(order) && g.hedger.TryHedge() {
				launch(true, false)
				rep.hedged++
				inflight++
			}
		case <-ctx.Done():
			rep.err = ctx.Err()
			return done(rep)
		}
	}
}

// checkAnswers validates a search reply against its request before the
// broker reads it: one answer per query and, for each query answered
// without an error, at most k hits and, when it named a pass, a mask of
// one entry per term. A reply that fails is a failed attempt, like a
// dropped connection.
func checkAnswers(req *wireRequest, resp *wireResponse) error {
	if len(resp.Queries) != len(req.Queries) {
		return fmt.Errorf("answered %d of %d queries", len(resp.Queries), len(req.Queries))
	}
	for i := range resp.Queries {
		a, q := &resp.Queries[i], &req.Queries[i]
		switch {
		case a.Err != "":
		case len(a.Results) > q.K:
			return fmt.Errorf("query %d: %d hits for k=%d", i, len(a.Results), q.K)
		case q.Pass != int(ir.PassBoth) && len(a.Mask) != len(q.Terms):
			return fmt.Errorf("query %d: mask of %d terms for a query of %d", i, len(a.Mask), len(q.Terms))
		}
	}
	return nil
}

// buildGroupSpan converts a group's attempt records into its span
// subtree: group → attempt... → server subtrees under the winner.
func buildGroupSpan(gi int, start, end time.Duration, recs []*attemptRec) *trace.Span {
	gs := &trace.Span{
		Name:     "group",
		Start:    start,
		Duration: end - start,
		Attrs:    []trace.Attr{{Key: "partition", Val: int64(gi)}},
	}
	for _, rec := range recs {
		as := trace.Span{
			Name:  "attempt",
			Start: rec.start,
			Attrs: []trace.Attr{{Key: "addr", Str: rec.addr}},
		}
		if rec.end > 0 {
			as.Duration = rec.end - rec.start
		} else {
			// Never reported back: canceled when the group finished.
			as.Duration = end - rec.start
			as.Attrs = append(as.Attrs, trace.Attr{Key: "canceled", Val: 1})
		}
		if rec.hedge {
			as.Attrs = append(as.Attrs, trace.Attr{Key: "hedge", Val: 1})
		}
		if rec.retry {
			as.Attrs = append(as.Attrs, trace.Attr{Key: "retry", Val: 1})
		}
		if rec.win {
			as.Attrs = append(as.Attrs, trace.Attr{Key: "winner", Val: 1})
		}
		if rec.err != "" {
			as.Attrs = append(as.Attrs, trace.Attr{Key: "error", Str: rec.err})
		}
		as.Children = append(as.Children, rec.subs...)
		gs.Children = append(gs.Children, as)
	}
	return gs
}
