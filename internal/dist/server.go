package dist

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/serving"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Server is one partition node: a serving core (internal/serving — the
// same generation registry, searcher pool, query pipeline and metrics a
// repro.Engine wraps) over the partition directory it owns, plus what only
// a network node needs: a TCP accept loop, gob framing, fault injection,
// Drain, and the ingest verbs. Every connection is served by its own
// goroutine and every query runs through the core's pipeline, so one
// server handles concurrent query streams with bounded parallelism — the
// Table 3 multi-stream regime.
//
// Every server (serveSegmentedDir) answers the ingest verbs: it can append
// a document batch as a new committed generation, serve its committed
// segments to peers, and pull the segments its own directory lacks from a
// peer and install that peer's manifest — all through the core's
// Commit/Refresh/Sweep, so in-flight searches are never dropped and
// replaced segments are reclaimed once no generation reads them. A
// directory that does not own its statistics (External) serves the reads
// and refuses the appends and pulls.
type Server struct {
	core *serving.Core
	ln   net.Listener
	// hook is the cluster's ship hook, consulted by every pull this
	// server runs (nil outside a cluster).
	hook *shipHook

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	// ctx bounds every pull; Close cancels it, so a pull blocked on its
	// source cannot hold Close up.
	ctx    context.Context
	cancel context.CancelFunc

	// pullMu runs one pull at a time: one pull's install sweep would
	// otherwise delete segments a concurrent pull is still writing.
	pullMu sync.Mutex

	// inflight counts requests between decode and response — what Drain
	// waits out before a retire closes the server.
	inflight atomic.Int64

	// Failure injection (SetFault): every faultEvery-th request
	// suffers faultMode — a stall (the induced straggler hedging defends
	// against), an injected per-query error, or a dropped connection (the
	// crash look-alike failover defends against).
	faultMu    sync.Mutex
	faultEvery int
	faultMode  FaultMode
	faultDur   time.Duration
	faultCount int
}

// FaultMode selects what an injected fault (SetFault) does to the
// faulted request.
type FaultMode int

const (
	// FaultNone disables injection.
	FaultNone FaultMode = iota
	// FaultStall delays the request by the configured duration before
	// executing it — a straggler, only a hedge beats it.
	FaultStall
	// FaultError answers every query of the request with an injected
	// error — an application-level failure that propagates to callers as
	// per-query errors (replicas do not mask it: the transport
	// succeeded, so the broker does not fail over).
	FaultError
	// FaultDrop closes the connection without answering —
	// indistinguishable from a server crash mid-request; the broker's
	// failover path re-issues the work to another replica.
	FaultDrop
)

// serveSegmentedDir opens a partition directory as a server listening on
// addr ("127.0.0.1:0" for an ephemeral port; a fixed address revives a
// replica in place), reading through cache, a buffer manager of the
// server's own, with hook observing its pulls. The directory must hold at
// least one segment already. The core is built with the defaults of a
// zero-option Engine; on failure it is closed so its storage is released.
func serveSegmentedDir(dir, addr string, cache *colbm.Manager, hook *shipHook) (*Server, error) {
	core, err := serving.OpenDir(dir, cache, serving.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		core.Close()
		return nil, err
	}
	s := &Server{core: core, ln: ln, hook: hook, conns: make(map[net.Conn]struct{})}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Gen returns the serving generation (0 after Close).
func (s *Server) Gen() uint64 {
	if snap := s.core.Snapshot(); snap != nil {
		return snap.Gen()
	}
	return 0
}

// Index exposes the partition's first (often only) segment index (sizes,
// statistics). The returned index is borrowed from the serving
// generation; callers must not retain it across a refresh.
func (s *Server) Index() *ir.Index { return s.core.Snapshot().Primary() }

// Snapshot exposes the partition's full segment set (borrowed from the
// serving generation, like Index).
func (s *Server) Snapshot() *ir.Snapshot { return s.core.Snapshot() }

// Metrics returns the server's serving metrics — query and pool-wait
// latency histograms, in-flight searches, the storage chunk cache, the
// serving generation — the same snapshot type Engine.MetricsSnapshot
// returns, collected by the same core.
func (s *Server) Metrics() serving.Metrics { return s.core.Metrics() }

// Warm runs the queries locally (no network) at result depth k so later
// measurements see a buffer pool warmed by the same plans they will run.
func (s *Server) Warm(strat ir.Strategy, queries []corpus.Query, k int) error {
	g, err := s.core.Acquire()
	if err != nil {
		return err
	}
	defer g.Release()
	ctx := context.Background()
	for _, q := range queries {
		if _, err := g.Search(ctx, serving.Request{Terms: q.Terms, K: k, Strategy: strat}); err != nil {
			return err
		}
	}
	return nil
}

// SetFault injects a fault on every n-th request (n <= 1 faults every
// request): FaultStall delays by d, FaultError answers with injected
// per-query errors, FaultDrop severs the connection mid-request (the
// broker sees a crash and fails over), FaultNone disables injection.
// The request counter restarts at each call.
func (s *Server) SetFault(n int, mode FaultMode, d time.Duration) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if n < 1 {
		n = 1
	}
	if mode == FaultStall && d <= 0 {
		mode = FaultNone
	}
	s.faultEvery = n
	s.faultMode = mode
	s.faultDur = d
	s.faultCount = 0
}

// fault returns the injected fault owed by the current request, if any.
func (s *Server) fault() (FaultMode, time.Duration) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if s.faultMode == FaultNone {
		return FaultNone, 0
	}
	s.faultCount++
	if s.faultCount%s.faultEvery == 0 {
		return s.faultMode, s.faultDur
	}
	return FaultNone, 0
}

// Close stops accepting, closes every open broker connection (which
// aborts their blocked reads), cancels any pull in progress, waits for
// the connection goroutines to exit, and closes the core: every serving
// generation's storage is released once its last in-flight search
// drains. A request already executing finishes but its reply may be
// lost — the broker sees a dropped connection, the same failure mode as
// a server crash.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.cancel()
	err := s.ln.Close()
	s.wg.Wait()
	if cerr := s.core.Close(); err == nil {
		err = cerr
	}
	return err
}

// track registers a live connection; it reports false (and closes the
// connection) when the server is already shutting down.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// serve answers requests on one broker connection until it closes.
func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req wireRequest
		if err := dec.Decode(&req); err != nil {
			return // connection closed (or garbage: drop it either way)
		}
		if s.isClosed() {
			return
		}
		switch mode, d := s.fault(); mode {
		case FaultDrop:
			return // defer closes the conn: a crash as the broker sees it
		case FaultError:
			resp := wireResponse{Seq: req.Seq, Queries: make([]wireAnswer, len(req.Queries))}
			for i := range resp.Queries {
				resp.Queries[i].Err = "dist: injected fault"
			}
			if err := enc.Encode(resp); err != nil {
				return
			}
			continue
		case FaultStall:
			time.Sleep(d)
		}
		s.inflight.Add(1)
		err := enc.Encode(s.dispatch(&req))
		s.inflight.Add(-1)
		if err != nil {
			return
		}
	}
}

// dispatch answers one decoded request through its verb's handler.
func (s *Server) dispatch(req *wireRequest) wireResponse {
	switch req.Verb {
	case verbSearch:
		return s.handleSearch(req)
	case verbStatus:
		return s.handleStatus(req)
	case verbAppend:
		return s.handleAppend(req)
	case verbFetch:
		return s.handleFetch(req)
	case verbManifest:
		return s.handleManifest(req)
	case verbPull:
		return s.handlePull(req)
	}
	return wireResponse{Seq: req.Seq, Err: fmt.Sprintf("dist: unknown verb %d", req.Verb)}
}

// handleSearch executes one wire request on one generation. A batch of
// one runs inline; a larger batch fans across goroutines, with the core's
// searcher pool bounding actual parallelism. When the request pins a
// generation this replica has not reached, it tries one refresh from its
// directory and otherwise refuses with Stale — the broker fails over
// instead of accepting an answer missing documents the caller already
// observed.
func (s *Server) handleSearch(req *wireRequest) wireResponse {
	resp := wireResponse{Seq: req.Seq, Queries: make([]wireAnswer, len(req.Queries))}
	fail := func(msg string) wireResponse {
		for i := range resp.Queries {
			resp.Queries[i].Err = msg
		}
		return resp
	}
	g, err := s.core.Acquire()
	if err != nil {
		return fail(err.Error())
	}
	if req.PinGen > 0 && g.Snapshot().Gen() < req.PinGen {
		g.Release()
		if err := s.core.Refresh(); err != nil {
			resp.Stale = true
			return fail(err.Error())
		}
		if g, err = s.core.Acquire(); err != nil {
			return fail(err.Error())
		}
	}
	defer g.Release()
	resp.Gen = g.Snapshot().Gen()
	if req.PinGen > 0 && resp.Gen < req.PinGen {
		resp.Stale = true
		return fail(fmt.Sprintf("dist: replica at generation %d, behind pinned %d", resp.Gen, req.PinGen))
	}

	ctx := context.Background()
	if req.TimeoutNanos > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutNanos))
		defer cancel()
	}
	if len(req.Queries) == 1 {
		resp.Queries[0] = s.answerQuery(ctx, g, req, &req.Queries[0])
		return resp
	}
	var wg sync.WaitGroup
	for i := range req.Queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Queries[i] = s.answerQuery(ctx, g, req, &req.Queries[i])
		}(i)
	}
	wg.Wait()
	return resp
}

// answerQuery runs the one pass a query of a wire request names through
// the core's pipeline (an unknown pass is a per-query error) and forwards
// the hits, the term mask and the per-query stats (wall, candidates) onto
// the wire. When the request carries a sampled trace context, the query
// gets a server-local root span riding ctx — the pipeline's pool wait and
// execution spans and the searcher's per-operator breakdown land under it
// — shipped back for the broker to graft under the attempt that carried
// it.
func (s *Server) answerQuery(ctx context.Context, g *serving.Gen, req *wireRequest, q *wireQuery) wireAnswer {
	var t *trace.Trace
	if req.TraceSampled {
		t = trace.New(req.TraceID, "server")
		t.SetAttrStr(trace.Root, "addr", s.Addr())
		ctx = trace.NewContext(ctx, t)
	}
	r, err := g.Search(ctx, serving.Request{Terms: q.Terms, K: q.K, Strategy: ir.Strategy(q.Strategy), Pass: ir.Pass(q.Pass)})
	a := wireAnswer{
		Mask:       r.Mask,
		WallNanos:  r.Stats.Wall.Nanoseconds(),
		Candidates: r.Stats.Candidates,
	}
	if t != nil {
		if err != nil {
			t.SetAttrStr(trace.Root, "error", err.Error())
		}
		root, _ := t.Finish()
		a.Trace = []trace.Span{root}
	}
	if err != nil {
		a.Err = err.Error()
		return a
	}
	a.Results = make([]wireResult, len(r.Hits))
	for i, h := range r.Hits {
		a.Results[i] = wireResult{DocID: h.DocID, Name: h.Name, Score: h.Score}
	}
	return a
}

// handleStatus answers verbStatus: the serving generation, the
// partition's on-disk docid range and whether it takes appends —
// everything the broker's routing needs.
func (s *Server) handleStatus(req *wireRequest) wireResponse {
	resp := wireResponse{Seq: req.Seq}
	st := &wireStatus{Gen: s.Gen(), Ingest: s.core.Writable() == nil}
	resp.Gen = st.Gen
	sm, err := storage.ReadSegments(s.core.Dir())
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	st.DocBase = sm.BaseDocID
	if len(sm.Segments) > 0 {
		st.DocBase = sm.Segments[0].DocBase
	}
	for _, e := range sm.Segments {
		st.NumDocs += e.Docs
	}
	resp.Status = st
	return resp
}

// handleAppend indexes the carried document batch as one new committed
// segment of this server's directory (the primary half of a distributed
// Add), refreshes serving, and replies with the new generation and
// segment name; the group's other replicas then pull the segment from
// here. A directory behind the request's PinGen refuses with Stale.
func (s *Server) handleAppend(req *wireRequest) wireResponse {
	resp := wireResponse{Seq: req.Seq}
	dir := s.core.Dir()
	if req.Append == nil || len(req.Append.Docs) == 0 {
		resp.Err = "dist: append with no documents"
		return resp
	}
	docs := make([]corpus.Doc, len(req.Append.Docs))
	for i, d := range req.Append.Docs {
		docs[i] = corpus.Doc{Name: d.Name, Tokens: d.Tokens}
	}
	batch, err := corpus.FromDocs(docs)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}

	var gen uint64
	var sm *storage.SegmentsManifest
	err = s.core.Commit(func(st *storage.RunningStats) (err error) {
		// Like a pinned search, a pinned append refuses on a directory
		// behind the pin: it lacks a batch the broker already acknowledged,
		// and committing here would fork the partition's history under a
		// generation a peer already holds.
		if sm, err = storage.ReadSegments(dir); err != nil {
			return err
		}
		if sm.Generation < req.PinGen {
			resp.Stale = true
			return fmt.Errorf("dist: replica at generation %d, behind pinned %d", sm.Generation, req.PinGen)
		}
		if gen, err = storage.AppendSegment(dir, batch, st); err != nil {
			return err
		}
		// Re-read inside the commit lock: the segment list must be the
		// exact generation this append committed.
		sm, err = storage.ReadSegments(dir)
		return err
	})
	if err != nil {
		resp.Err = err.Error()
		return resp
	}

	res := &wireAppendResult{Gen: gen, Seg: sm.Segments[len(sm.Segments)-1].Name}
	for _, e := range sm.Segments {
		res.NumDocs += e.Docs
	}
	resp.Gen = gen
	resp.Append = res
	return resp
}

// handleFetch serves the source side of a pull: a chunk read of a
// committed segment file, or (File empty) the segment's file list.
func (s *Server) handleFetch(req *wireRequest) wireResponse {
	resp := wireResponse{Seq: req.Seq}
	dir := s.core.Dir()
	f := req.Fetch
	if f == nil {
		resp.Err = "dist: fetch with no payload"
		return resp
	}
	if f.File == "" {
		files, err := storage.SegmentFiles(dir, f.Seg)
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		resp.Files = make([]wireFileInfo, len(files))
		for i, fi := range files {
			resp.Files[i] = wireFileInfo{Name: fi.Name, Size: fi.Size}
		}
		return resp
	}
	data, err := storage.ReadSegmentFileAt(dir, f.Seg, f.File, f.Off, f.Len)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.Data = data
	return resp
}

// handlePull serves the replica side of replication: it pulls the
// segments this server's directory lacks from the server at Pull.From
// and installs that server's manifest. The install is the commit: it
// goes through the core's commit lock and the storage writer lock (so it
// can never interleave with a local append), refreshes serving to the new
// generation, and is followed by a sweep of segment directories — and
// their cached chunks — no live generation references anymore. The pull
// runs under the caller's forwarded deadline and stops when the server
// closes.
func (s *Server) handlePull(req *wireRequest) wireResponse {
	resp := wireResponse{Seq: req.Seq}
	if err := s.core.Writable(); err != nil {
		resp.Err = err.Error() // before dialing the source
		return resp
	}
	if req.Pull == nil {
		resp.Err = "dist: pull with no payload"
		return resp
	}
	ctx := s.ctx
	if req.TimeoutNanos > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutNanos))
		defer cancel()
	}
	s.pullMu.Lock()
	defer s.pullMu.Unlock()
	src := &srvConn{addr: req.Pull.From}
	defer src.close()
	res, err := pull(ctx, src, s.core.Dir(), s.hook.load(), func(dir string, manifest []byte) (gen uint64, err error) {
		err = s.core.Commit(func(*storage.RunningStats) (err error) {
			gen, err = storage.InstallManifest(dir, manifest)
			return err
		})
		return gen, err
	})
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	// Best-effort reclaim of segments no generation serves anymore
	// (replaced by pulled merges, or orphaned by an aborted pull).
	s.core.Sweep()
	resp.Gen = res.Gen
	resp.Pull = &res
	return resp
}

// handleManifest answers verbManifest: the exact committed manifest
// bytes of this server's directory and their generation — the first
// thing a pull from this server fetches, and the bytes it installs.
func (s *Server) handleManifest(req *wireRequest) wireResponse {
	resp := wireResponse{Seq: req.Seq}
	manifest, sm, err := storage.ReadSegmentsRaw(s.core.Dir())
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.Gen = sm.Generation
	resp.Data = manifest
	return resp
}

// Drain waits until no request is between decode and response — the
// quiesce step of a replica retire: the broker stops routing here first,
// then Drain lets whatever already arrived finish before Close drops the
// connections mid-answer.
func (s *Server) Drain(ctx context.Context) error {
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}
