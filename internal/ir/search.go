package ir

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/colbm"
	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/vector"
)

// Strategy identifies a Table 2 run: a retrieval model plus the cumulative
// optimizations applied to it.
type Strategy int

// The strategies of Table 2, in the paper's order. Each BM25 variant adds
// one optimization on top of the previous: T = two-pass, C = compressed
// posting columns, M = materialized scores, Q8 = 8-bit quantized scores.
//
// StrategyDefault — deliberately the zero value, so an unset request field
// gets sensible behaviour — asks the searcher to run the strongest
// strategy, BM25TCMQ8. There is one index layout, so every strategy runs
// on every segment.
const (
	StrategyDefault Strategy = iota
	BoolAND
	BoolOR
	BM25
	BM25T
	BM25TC
	BM25TCM
	BM25TCMQ8
)

// String returns the run name as printed in Table 2.
func (s Strategy) String() string {
	if s < StrategyDefault || s > BM25TCMQ8 {
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
	return [...]string{"Default", "BoolAND", "BoolOR", "BM25", "BM25T", "BM25TC", "BM25TCM", "BM25TCMQ8"}[s]
}

// Resolve maps a requested strategy to the one that runs: StrategyDefault
// becomes BM25TCMQ8, and every other strategy runs as asked, since every
// index stores the whole ladder's columns. An out-of-range value is an
// error.
func (ix *Index) Resolve(strat Strategy) (Strategy, error) {
	if strat < StrategyDefault || strat > BM25TCMQ8 {
		return 0, fmt.Errorf("ir: unknown strategy %v", strat)
	}
	if strat == StrategyDefault {
		return BM25TCMQ8, nil
	}
	return strat, nil
}

// AllStrategies lists the Table 2 runs in order.
var AllStrategies = []Strategy{BoolAND, BoolOR, BM25, BM25T, BM25TC, BM25TCM, BM25TCMQ8}

// Result is one ranked document.
type Result struct {
	DocID int64
	Name  string
	Score float64
}

// QueryStats reports the cost of one search.
type QueryStats struct {
	Wall       time.Duration // measured CPU/wall time
	SimIO      time.Duration // simulated disk time charged by ColumnBM
	SecondPass bool          // two-pass strategies: pass 2 was needed
	Candidates int64         // tuples that reached the scoring/TopN stage
}

// Total returns Wall plus SimIO — the *cold-run* accounting, where every
// posting chunk is fetched through the simulated disk. On a hot run the
// buffer pool absorbs all chunk reads, SimIO is zero, and Total equals
// Wall; the Table 2 harness therefore reports Total for cold timings and
// Wall for hot ones.
func (s QueryStats) Total() time.Duration { return s.Wall + s.SimIO }

// Searcher executes keyword queries against a snapshot — one or many
// segments behind one entry point. It is not safe for concurrent use; each
// worker (or distributed server goroutine) owns one.
//
// Multi-segment execution follows the dist broker's discipline: each
// segment runs the per-segment plan over its own cursors (docids are
// global, statistics are collection-wide after the snapshot's stats
// patch), and per-segment top-k lists merge by (score, docid). The
// two-pass gate is global — the conjunctive pass runs on every segment
// first, and Gate decides over all of their answers whether any segment
// runs the disjunctive pass — exactly the decision a single
// whole-collection index would make.
type Searcher struct {
	snap *Snapshot
	subs []*segSearcher
	ctx  *engine.ExecContext
	tr   *trace.Trace // per-request, installed by SearchContext; nil = no-op
	// mask marks the current query's terms some segment holds (resolve);
	// round holds one pass's per-segment answers.
	mask  []bool
	round []Shard
}

// segSearcher executes plans against one segment. All segments of a
// Searcher share one ExecContext (vector size, interrupt hook, and the
// vectors and cursors one plan gives back for the next).
type segSearcher struct {
	ix      *Index
	virtual bool
	ctx     *engine.ExecContext
	tr      *trace.Trace // mirrors the owning Searcher's per-request trace
	names   nameReader
	// infos are the current query's terms this segment holds, in query
	// order, with the query's df (Searcher.resolve), and mask marks their
	// positions in the query; hit marks whether the term being resolved is
	// among them.
	infos []TermInfo
	mask  []bool
	hit   bool
}

// NewSearcher returns a searcher over a single index with the given vector
// size (0 = default).
func NewSearcher(ix *Index, vectorSize int) *Searcher {
	return NewSnapshotSearcher(SingleSnapshot(ix), vectorSize)
}

// NewSnapshotSearcher returns a searcher over a snapshot's segment set
// with the given vector size (0 = default).
func NewSnapshotSearcher(snap *Snapshot, vectorSize int) *Searcher {
	ctx := engine.NewContext()
	if vectorSize > 0 {
		ctx.VectorSize = vectorSize
	}
	s := &Searcher{snap: snap, ctx: ctx}
	for _, sub := range snap.subs {
		s.subs = append(s.subs, &segSearcher{ix: sub.ix, virtual: sub.virtual, ctx: ctx, names: nameReader{ix: sub.ix}})
	}
	return s
}

// simIO sums the virtual I/O clocks of the segments' stores (each segment
// owns its own store; a shared one is counted once). Real stores return 0
// — their read time is measured wall time already included in
// QueryStats.Wall, and charging it to SimIO as well would double-count.
func (s *Searcher) simIO() time.Duration {
	var total time.Duration
	var seen []colbm.BlockStore
next:
	for _, sub := range s.subs {
		st := sub.ix.Store
		if !st.Simulated() {
			continue
		}
		for _, prev := range seen {
			if prev == st {
				continue next
			}
		}
		seen = append(seen, st)
		total += st.Stats().IOTime
	}
	return total
}

// Search runs a keyword query under the given strategy, returning the top
// k documents. Names are resolved only for the returned documents.
func (s *Searcher) Search(terms []string, k int, strat Strategy) ([]Result, QueryStats, error) {
	return s.SearchContext(context.Background(), terms, k, strat)
}

// SearchContext is Search honoring context cancellation and deadlines: the
// context's Err is installed as the execution interrupt hook, which every
// pipeline leaf polls between vectors, so a canceled context aborts the
// running plan returning ctx.Err() (context.Canceled or
// context.DeadlineExceeded). The Searcher itself remains single-owner; use
// a SearcherPool for concurrent callers.
func (s *Searcher) SearchContext(ctx context.Context, terms []string, k int, strat Strategy) ([]Result, QueryStats, error) {
	sh, stats, err := s.SearchPass(ctx, terms, k, strat, PassBoth)
	return sh.Hits, stats, err
}

// SearchPass is SearchContext running one pass of a ranked strategy —
// what a partition server answers a broker, which runs Gate over every
// partition's conjunctive answer — or, with PassBoth, the whole strategy.
// The answer of an explicit pass carries the mask of the query's terms the
// snapshot holds.
func (s *Searcher) SearchPass(ctx context.Context, terms []string, k int, strat Strategy, pass Pass) (Shard, QueryStats, error) {
	if ctx != nil && ctx.Done() != nil {
		s.ctx.Interrupt = ctx.Err
		defer func() { s.ctx.Interrupt = nil }()
	}
	// A trace riding the context (engine request path, dist server) turns
	// on span recording for this call. The searcher is single-owner, so a
	// plain field carries it to every segment without signature changes.
	if t := trace.FromContext(ctx); t != nil {
		s.setTrace(t)
		defer s.setTrace(nil)
	}
	var stats QueryStats
	io0 := s.simIO()
	start := time.Now()

	results, err := s.searchInner(terms, k, strat, pass, &stats)
	if err == nil {
		rn := s.tr.Begin("resolve.names")
		err = s.resolveNames(results)
		s.tr.SetAttr(rn, "names", int64(len(results)))
		s.tr.End(rn)
	}
	stats.Wall = time.Since(start)
	// One disk-clock read, taken after name resolution: the post-TopN name
	// lookups hit the disk too, so their I/O is part of the query's charge.
	stats.SimIO = s.simIO() - io0
	if err != nil {
		return Shard{}, stats, err
	}
	sh := Shard{Hits: results}
	if pass != PassBoth {
		sh.Mask = slices.Clone(s.mask)
	}
	return sh, stats, nil
}

// resolveNames fills in the results' document names, each through the
// owning segment's name reader.
func (s *Searcher) resolveNames(results []Result) error {
	for i := range results {
		si, err := s.snap.segmentOf(results[i].DocID)
		if err != nil {
			return err
		}
		if results[i].Name, err = s.subs[si].names.name(results[i].DocID); err != nil {
			return err
		}
	}
	return nil
}

func (s *Searcher) setTrace(t *trace.Trace) {
	s.tr = t
	for _, sub := range s.subs {
		sub.tr = t
	}
}

func (s *Searcher) searchInner(terms []string, k int, strat Strategy, pass Pass, stats *QueryStats) ([]Result, error) {
	if strat == StrategyDefault {
		resolved, err := s.snap.Resolve(strat)
		if err != nil {
			return nil, err
		}
		strat = resolved
	}
	if pass < PassBoth || pass > PassDisjunctive {
		return nil, fmt.Errorf("ir: unknown pass %d", pass)
	}
	switch strat {
	case BoolAND, BoolOR:
		if pass != PassBoth {
			return nil, fmt.Errorf("ir: %v has no pass %d", strat, pass)
		}
		if len(terms) == 0 {
			return nil, nil
		}
		return s.searchBool(boolChain(terms, strat == BoolOR), k)
	case BM25, BM25T, BM25TC, BM25TCM, BM25TCMQ8:
		return s.searchRanked(terms, k, strat, pass, stats)
	default:
		return nil, fmt.Errorf("ir: unknown strategy %d", strat)
	}
}

// searchRanked runs a ranked strategy, or one pass of it, over the segment
// set. A two-pass strategy runs the conjunctive pass on every segment
// first and asks Gate whether the disjunctive pass must run: a single
// whole-collection index decides pass 2 on its global conjunctive yield,
// so the segment set must too, or a segment-local fallback could promote
// disjunctive-only documents a single index would not rank.
func (s *Searcher) searchRanked(terms []string, k int, strat Strategy, pass Pass, stats *QueryStats) ([]Result, error) {
	resolved := s.resolve(terms)
	if resolved == 0 {
		return nil, nil
	}
	inner := pass == PassConjunctive || pass == PassBoth && strat.TwoPass()
	round, err := s.rankedPass(k, strat, resolved, inner, stats)
	if err != nil || !inner {
		return MergeTopK(round, k), err
	}
	top, disjunctive := Gate(round, k)
	if !disjunctive || pass == PassConjunctive {
		return top, nil
	}
	stats.SecondPass = true
	round, err = s.rankedPass(k, strat, resolved, false, stats)
	return MergeTopK(round, k), err
}

// rankedPass runs one conjunctive or disjunctive pass of a ranked strategy
// on every segment over the terms resolve found there, answering with
// each segment's top-k candidates and mask. resolved is the number of
// query terms (duplicates kept) present in the merged dictionary.
func (s *Searcher) rankedPass(k int, strat Strategy, resolved int, inner bool, stats *QueryStats) ([]Shard, error) {
	passName := "pass.disjunctive"
	if inner {
		passName = "pass.conjunctive"
	}
	ps := s.tr.Begin(passName)
	defer s.tr.End(ps)
	s.round = s.round[:0]
	for si, sub := range s.subs {
		infos := sub.infos
		if len(infos) == 0 {
			continue
		}
		// Conjunctive pass: Gate drops the answer of a segment missing a
		// term of the merged dictionary (joining over the terms it holds
		// would surface pseudo-conjunctive matches), so such a segment
		// runs no plan; its mask still goes to Gate.
		if inner && len(infos) < resolved {
			s.round = append(s.round, Shard{Mask: sub.mask})
			continue
		}
		sg := s.tr.Begin("segment")
		s.tr.SetAttr(sg, "segment", int64(si))
		// The cache-delta attrs cost two locked Stats snapshots per
		// segment — Detailed-only, like the operator walk.
		detail := s.tr.Detailed() && sub.ix.Cache != nil
		var c0 colbm.CacheStats
		if detail {
			c0 = sub.ix.Cache.Stats()
		}
		pb := s.tr.Begin("plan.build")
		top, err := sub.rankedPlan(infos, k, strat, inner)
		s.tr.End(pb)
		if err != nil {
			return nil, err
		}
		res, err := sub.drainTop(top, stats)
		if err != nil {
			return nil, err
		}
		if detail {
			// The chunk-cache counter delta over this segment's plan: how
			// much of the scan was served hot vs fetched from storage.
			c1 := sub.ix.Cache.Stats()
			s.tr.SetAttr(sg, "chunk_hits", c1.Hits-c0.Hits)
			s.tr.SetAttr(sg, "chunk_misses", c1.Misses-c0.Misses)
		}
		s.tr.SetAttr(sg, "rows_out", int64(len(res)))
		s.tr.End(sg)
		s.round = append(s.round, Shard{Hits: res, Mask: sub.mask})
	}
	return s.round, nil
}

// resolve looks the query terms up in every segment's dictionary, once
// per query: each segment's infos become the range-index entries of the
// terms it holds, in query order, each mask (the segment's, and the
// searcher's for the union) marks the positions held, and the count of
// query terms (duplicates kept) that some segment holds is returned — the
// merged-dictionary membership the two-pass gate needs. On a snapshot that merges
// statistics, every entry's Ftd becomes the term's collection df: the sum
// of its posting-range widths over the segments (End-Start is always a
// segment's local posting count, whatever Ftd its build baked). Other
// snapshots keep the baked Ftd, the global df a dist partition was built
// with.
func (s *Searcher) resolve(terms []string) int {
	for _, sub := range s.subs {
		sub.infos, sub.mask = sub.infos[:0], sub.mask[:0]
	}
	s.mask = s.mask[:0]
	resolved := 0
	for _, t := range terms {
		found, df := false, 0
		for _, sub := range s.subs {
			var ti TermInfo
			ti, sub.hit = sub.ix.Terms[t]
			sub.mask = append(sub.mask, sub.hit)
			if sub.hit {
				sub.infos = append(sub.infos, ti)
				found, df = true, df+ti.End-ti.Start
			}
		}
		s.mask = append(s.mask, found)
		if !found {
			continue
		}
		resolved++
		if !s.snap.mergeStats {
			continue
		}
		for _, sub := range s.subs {
			if sub.hit {
				sub.infos[len(sub.infos)-1].Ftd = df
			}
		}
	}
	return resolved
}

// combinedPlan builds the left-deep (outer-)join cascade over the posting
// ranges of the query terms, producing schema [docid, v_0, ..., v_{n-1}]
// where v_i is term i's val column (tf or a baked score) read beside the
// doc column. After each join the docid is reconciled with MAX(left,
// right), the paper's D.docid=MAX(TD1.docid, TD2.docid) trick — for inner
// joins both sides agree, for outer joins the missing side reads as zero
// and MAX picks the present one.
// Term i's scan is left in scans[i].
func (s *segSearcher) combinedPlan(infos []TermInfo, outer bool, doc, val string, scans []*engine.Scan) (engine.Operator, error) {
	scanCols := []string{doc, val}
	leaf := func(i int) (engine.Operator, error) {
		scan, err := engine.NewRangeScan(s.ix.TD, scanCols, infos[i].Start, infos[i].End)
		if err != nil {
			return nil, err
		}
		scans[i] = scan
		return engine.NewProject(scan, []engine.Projection{
			{Name: "docid", Expr: engine.NewColRef(doc)},
			{Name: vcol(i).v, Expr: engine.NewColRef(val)},
		}), nil
	}

	plan, err := leaf(0)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(infos); i++ {
		right, err := leaf(i)
		if err != nil {
			return nil, err
		}
		var join engine.Operator
		if outer {
			join = engine.NewMergeOuterJoin(plan, right, "docid", "docid", "l.", "r.")
		} else {
			join = engine.NewMergeJoin(plan, right, "docid", "docid", "l.", "r.")
		}
		projs := []engine.Projection{{
			Name: "docid",
			Expr: engine.NewArith(engine.Max,
				engine.NewColRef("l.docid"), engine.NewColRef("r.docid")),
		}}
		for j := 0; j < i; j++ {
			projs = append(projs, engine.Projection{Name: vcol(j).v, Expr: engine.NewColRef(vcol(j).l)})
		}
		projs = append(projs, engine.Projection{Name: vcol(i).v, Expr: engine.NewColRef(vcol(i).r)})
		plan = engine.NewProject(join, projs)
	}
	return plan, nil
}

// termCol names term i's value column in the join cascade, v<i>, and the
// names it has in a join's output as the left or the right input's column.
type termCol struct{ v, l, r string }

// termCols holds the first 64 terms' names, so that a plan does not format
// them per query; a query with more terms formats the rest.
var termCols = func() (t [64]termCol) {
	for i := range t {
		t[i] = newTermCol(i)
	}
	return t
}()

func newTermCol(i int) termCol {
	v := fmt.Sprintf("v%d", i)
	return termCol{v: v, l: "l." + v, r: "r." + v}
}

func vcol(i int) termCol {
	if i < len(termCols) {
		return termCols[i]
	}
	return newTermCol(i)
}

// docLen is the document-table column a tf-reading plan fetches.
var docLen = []string{"len"}

// rankedPlan builds one segment's plan for one pass of a ranked strategy.
// It is the only place a ranked plan is built: rankedPass drains the tree
// it returns and ExplainPlan renders it. The plan is the join cascade over
// the query terms' postings, the left-associated sum ((w0 + w1) + w2)...
// of the per-term weights projected as score, and TopN(k) by score, then
// docid. inner selects the conjunctive (first-pass) shape.
//
// A plan reads baked scores only on a freshly baked BM25TCM/BM25TCMQ8
// segment; every other plan reads tf and fetches each candidate's length
// from the document table by position — row docid - DocBase, since D is
// dense on docid — as d.len, decoding only the strides of D.len its
// candidates fall in. A virtual segment's baked columns predate the latest
// append, so its BM25TCM/BM25TCMQ8 plan recomputes from tf, bit for bit,
// the value a fresh bake would store (BM25Stored); it thereby ranks
// identically to a segment baked afterwards, which is what lets appends
// leave existing segments untouched.
//
// A BM25TCMQ8 plan over baked columns bounds its scans (bindBounds): once
// TopN holds k rows, each scan skips the strides of its term whose largest
// qscore, plus the other terms' largest, cannot beat the k-th score.
func (s *segSearcher) rankedPlan(infos []TermInfo, k int, strat Strategy, inner bool) (*engine.TopN, error) {
	if strat < BM25 || strat > BM25TCMQ8 {
		return nil, fmt.Errorf("ir: unranked strategy %v in ranked plan", strat)
	}
	baked := strat >= BM25TCM && !s.virtual
	doc, val := ColDocID32, ColTF32
	switch {
	case baked && strat == BM25TCMQ8:
		doc, val = ColDocIDC, ColQScore
	case baked:
		doc, val = ColDocIDC, ColScore
	case strat >= BM25TC:
		doc, val = ColDocIDC, ColTFC
	}
	var scanBuf [8]*engine.Scan
	scans := scanBuf[:]
	if len(infos) > len(scans) {
		scans = make([]*engine.Scan, len(infos))
	}
	scans = scans[:len(infos)]
	plan, err := s.combinedPlan(infos, !inner, doc, val, scans)
	if err != nil {
		return nil, err
	}
	if !baked {
		if plan, err = engine.NewFetchJoin(plan, "docid", s.ix.D, docLen, "d.", s.ix.DocBase()); err != nil {
			return nil, err
		}
	}
	var score engine.Expr
	for i, ti := range infos {
		w := s.weight(i, ti, strat, baked)
		if score == nil {
			score = w
		} else {
			score = engine.NewArith(engine.Add, score, w)
		}
	}
	proj := engine.NewProject(plan, []engine.Projection{
		{Name: "docid", Expr: engine.NewColRef("docid")},
		{Name: "score", Expr: score},
	})
	top := engine.NewTopN(proj, k, []engine.OrderSpec{
		{Col: "score", Desc: true},
		{Col: "docid", Desc: false},
	})
	if baked && strat == BM25TCMQ8 && s.ix.maxima != nil {
		if err := s.bindBounds(scans, infos, top.Floor()); err != nil {
			return nil, err
		}
	}
	return top, nil
}

// weight is term i's contribution to a ranked plan's score: the baked
// score (widened to float when quantized), or the Okapi BM25 weight of
// its tf and the fetched document length — pushed through the baked
// column's storage representation on a virtual segment.
func (s *segSearcher) weight(i int, ti TermInfo, strat Strategy, baked bool) engine.Expr {
	v := engine.NewColRef(vcol(i).v)
	switch {
	case baked && strat == BM25TCMQ8:
		return engine.NewToFloat(v)
	case baked:
		return v
	case strat >= BM25TCM:
		return &engine.BM25Stored{
			TF:        v,
			DocLen:    engine.NewColRef("d.len"),
			Ftd:       float64(ti.Ftd),
			Params:    s.ix.Params,
			Quantized: strat == BM25TCMQ8,
			Lo:        s.ix.ScoreLo,
			Hi:        s.ix.ScoreHi,
		}
	default:
		return &engine.BM25{
			TF:     v,
			DocLen: engine.NewColRef("d.len"),
			Ftd:    float64(ti.Ftd),
			Params: s.ix.Params,
		}
	}
}

// drainTop executes a TopN plan and converts its output.
func (s *segSearcher) drainTop(top *engine.TopN, stats *QueryStats) ([]Result, error) {
	var results []Result
	err := engine.Drain(top, s.ctx, func(b *vector.Batch) error {
		di := top.Schema().MustIndex("docid")
		si := top.Schema().MustIndex("score")
		for i := 0; i < b.N; i++ {
			pos := i
			if b.Sel != nil {
				pos = int(b.Sel[i])
			}
			results = append(results, Result{
				DocID: b.Vecs[di].I64[pos],
				Score: b.Vecs[si].F64[pos],
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	recordOps(s.tr, top)
	if stats != nil {
		// The tuples TopN's input delivered are the candidates scored.
		stats.Candidates += top.Children()[0].Stats().Tuples
	}
	return results, nil
}

// recordOps converts an executed plan's operator statistics into trace
// spans after the fact: every operator already counts Next calls, output
// tuples, and cumulative time (children included) in its OpStats, so the
// trace gets a per-operator breakdown without a single extra timestamp
// on the execution hot path. Spans nest like the plan tree under the
// innermost open span, all sharing its start offset — durations, not
// timelines, are the signal here.
//
// The walk itself is not free — Describe renders each operator's plan
// line — so it only runs when the trace will plausibly be kept
// (Detailed): forced and sampled traces always, threshold-armed traces
// once the request has already overrun the threshold. The discarded
// fast-path recording skips it entirely.
func recordOps(t *trace.Trace, op engine.Operator) {
	if t == nil || !t.Detailed() {
		return
	}
	recordOp(t, -1, op)
}

func recordOp(t *trace.Trace, parent trace.SpanID, op engine.Operator) {
	st := op.Stats()
	id := t.Add(parent, op.Describe(), -1, st.Time)
	t.SetAttr(id, "rows_out", st.Tuples)
	t.SetAttr(id, "next_calls", st.NextCalls)
	kids := op.Children()
	var rowsIn int64
	for _, c := range kids {
		rowsIn += c.Stats().Tuples
		recordOp(t, id, c)
	}
	if len(kids) > 0 {
		t.SetAttr(id, "rows_in", rowsIn)
	}
}

// ExplainPlan builds (without executing) the plan for a query under a
// strategy and returns its textual form — the demo's plan display. It is
// the tree the query runs, from the same builder: a ranked strategy's
// disjunctive pass (rankedPlan), a boolean one's left-deep AND / OR chain
// under its Limit (boolRoot). The plan is Opened to bind expressions, then
// explained. For a multi-segment snapshot it shows the plan of the segment
// explainSegment picks.
func (s *Searcher) ExplainPlan(terms []string, k int, strat Strategy) (string, error) {
	if strat == StrategyDefault {
		resolved, err := s.snap.Resolve(strat)
		if err != nil {
			return "", err
		}
		strat = resolved
	}
	sub := s.explainSegment(terms)
	infos := sub.infos
	if len(infos) == 0 {
		return "(empty plan: no known query terms)", nil
	}
	var root engine.Operator
	var err error
	switch strat {
	case BoolAND, BoolOR:
		root, err = sub.boolRoot(boolChain(terms, strat == BoolOR), k)
	default:
		root, err = sub.rankedPlan(infos, k, strat, false)
	}
	if err != nil {
		return "", err
	}
	return s.explain(root)
}

// explainSegment resolves the terms and picks the segment whose plan an
// explain shows: the first that knows any of them (new vocabulary may
// exist only in recently appended segments), else the first segment. The
// terms it knows are in its infos.
func (s *Searcher) explainSegment(terms []string) *segSearcher {
	s.resolve(terms)
	for _, sub := range s.subs {
		if len(sub.infos) > 0 {
			return sub
		}
	}
	return s.subs[0]
}

// explain opens a plan to bind its expressions, renders it and closes it.
func (s *Searcher) explain(root engine.Operator) (string, error) {
	if err := root.Open(s.ctx); err != nil {
		return "", err
	}
	defer root.Close()
	return engine.Explain(root), nil
}
