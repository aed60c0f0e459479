package ir

import (
	"context"
	"fmt"
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
// strategy the index's physical columns support (BM25TCMQ8 on a
// default-built index).
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

// Resolve maps a requested strategy to the one the index can actually run:
// StrategyDefault becomes the strongest supported run, and a ranked
// strategy whose physical column is absent falls back to the nearest
// supported variant (preferring the milder optimization, the one whose
// plan shape is closest). Boolean strategies have no substitute — they
// need the uncompressed posting columns and error without them.
func (ix *Index) Resolve(strat Strategy) (Strategy, error) {
	if strat < StrategyDefault || strat > BM25TCMQ8 {
		return 0, fmt.Errorf("ir: unknown strategy %v", strat)
	}
	supported := func(s Strategy) bool {
		switch s {
		case BoolAND, BoolOR, BM25, BM25T:
			return ix.cfg.Uncompressed
		case BM25TC:
			return ix.cfg.Compressed
		case BM25TCM:
			return ix.cfg.Materialized
		case BM25TCMQ8:
			return ix.cfg.Quantized
		}
		return false
	}
	if strat == StrategyDefault {
		for s := BM25TCMQ8; s >= BM25; s-- {
			if supported(s) {
				return s, nil
			}
		}
		return 0, fmt.Errorf("ir: index stores no ranked posting columns")
	}
	if supported(strat) {
		return strat, nil
	}
	if strat == BoolAND || strat == BoolOR {
		return 0, fmt.Errorf("ir: %v requires the uncompressed posting columns", strat)
	}
	for s := strat - 1; s >= BM25; s-- {
		if supported(s) {
			return s, nil
		}
	}
	for s := strat + 1; s <= BM25TCMQ8; s++ {
		if supported(s) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("ir: no supported substitute for strategy %v", strat)
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
// first, and only if the merged conjunctive yield falls short of k does
// any segment run the disjunctive pass — exactly the decision a single
// whole-collection index would make.
type Searcher struct {
	snap *Snapshot
	subs []*segSearcher
	ctx  *engine.ExecContext
	tr   *trace.Trace // per-request, installed by SearchContext; nil = no-op
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
	var stats QueryStats
	io0 := s.simIO()
	start := time.Now()

	results, err := s.searchInner(terms, k, strat, &stats)
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
		return nil, stats, err
	}
	return results, stats, nil
}

// SearchContext is Search honoring context cancellation and deadlines: the
// context's Err is installed as the execution interrupt hook, which every
// pipeline leaf polls between vectors, so a canceled context aborts the
// running plan returning ctx.Err() (context.Canceled or
// context.DeadlineExceeded). The Searcher itself remains single-owner; use
// a SearcherPool for concurrent callers.
func (s *Searcher) SearchContext(ctx context.Context, terms []string, k int, strat Strategy) ([]Result, QueryStats, error) {
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
	return s.Search(terms, k, strat)
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

func (s *Searcher) searchInner(terms []string, k int, strat Strategy, stats *QueryStats) ([]Result, error) {
	if strat == StrategyDefault {
		resolved, err := s.snap.Resolve(strat)
		if err != nil {
			return nil, err
		}
		strat = resolved
	}
	switch strat {
	case BoolAND:
		return s.searchBooleanAll(terms, k, false)
	case BoolOR:
		return s.searchBooleanAll(terms, k, true)
	case BM25:
		return s.searchRanked(terms, k, strat, false, stats)
	case BM25T, BM25TC, BM25TCM, BM25TCMQ8:
		return s.searchRanked(terms, k, strat, true, stats)
	default:
		return nil, fmt.Errorf("ir: unknown strategy %d", strat)
	}
}

// searchBooleanAll evaluates unranked boolean retrieval across the segment
// set. Segments cover ascending docid ranges, so collecting the first
// matches segment by segment yields the global first-k in docid order; a
// segment whose dictionary is missing a conjunction term contributes
// nothing (none of its documents can contain the term) and is skipped.
func (s *Searcher) searchBooleanAll(terms []string, k int, or bool) ([]Result, error) {
	var results []Result
	for _, sub := range s.subs {
		if len(results) >= k {
			break
		}
		infos, missing := sub.resolve(terms)
		if len(infos) == 0 || (!or && missing) {
			continue
		}
		res, err := sub.searchBoolean(infos, k-len(results), or)
		if err != nil {
			return nil, err
		}
		results = append(results, res...)
	}
	return results, nil
}

// searchRanked runs a ranked strategy over the segment set. With twoPass,
// the conjunctive pass runs on every segment first; only if the merged
// conjunctive matches fall short of k (and more than one query term
// resolved anywhere — a single-term disjunctive pass is the identical
// plan) does the disjunctive pass run. This is the global two-pass gate: a
// single whole-collection index decides pass 2 on its global conjunctive
// yield, so the segment set must too, or a segment-local fallback could
// promote disjunctive-only documents a single index would not rank.
func (s *Searcher) searchRanked(terms []string, k int, strat Strategy, twoPass bool, stats *QueryStats) ([]Result, error) {
	resolved := 0
	for _, t := range terms {
		if s.snap.hasTerm(t) {
			resolved++
		}
	}
	if resolved == 0 {
		return nil, nil
	}
	if !twoPass {
		all, err := s.rankedPass(terms, k, strat, resolved, false, stats)
		if err != nil {
			return nil, err
		}
		return mergeTopK(all, k), nil
	}
	all, err := s.rankedPass(terms, k, strat, resolved, true, stats)
	if err != nil {
		return nil, err
	}
	if len(all) >= k || resolved == 1 {
		return mergeTopK(all, k), nil
	}
	stats.SecondPass = true
	all, err = s.rankedPass(terms, k, strat, resolved, false, stats)
	if err != nil {
		return nil, err
	}
	return mergeTopK(all, k), nil
}

// rankedPass runs one conjunctive or disjunctive pass of a ranked strategy
// on every segment, concatenating the per-segment top-k candidates.
// resolved is the number of query terms (duplicates kept) present in the
// merged dictionary.
func (s *Searcher) rankedPass(terms []string, k int, strat Strategy, resolved int, inner bool, stats *QueryStats) ([]Result, error) {
	passName := "pass.disjunctive"
	if inner {
		passName = "pass.conjunctive"
	}
	ps := s.tr.Begin(passName)
	defer s.tr.End(ps)
	var all []Result
	for si, sub := range s.subs {
		infos, _ := sub.resolve(terms)
		if len(infos) == 0 {
			continue
		}
		// Conjunctive pass: a segment whose dictionary is missing a term
		// the merged dictionary knows can hold no conjunctive match — the
		// term simply has no postings in this docid range. Dropping the
		// term locally (as the disjunctive pass legitimately does, the
		// missing side scoring zero) would instead join over the remaining
		// terms and surface pseudo-conjunctive matches a single
		// whole-collection index would never rank in pass 1.
		if inner && len(infos) < resolved {
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
		var res []Result
		var err error
		switch strat {
		case BM25, BM25T:
			res, err = sub.scoredPass(infos, k, false, inner, stats)
		case BM25TC:
			res, err = sub.scoredPass(infos, k, true, inner, stats)
		case BM25TCM:
			res, err = sub.materializedPass(infos, k, false, inner, stats)
		case BM25TCMQ8:
			res, err = sub.materializedPass(infos, k, true, inner, stats)
		default:
			return nil, fmt.Errorf("ir: unranked strategy %v in ranked pass", strat)
		}
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
		all = append(all, res...)
	}
	return all, nil
}

// resolve maps query terms to range-index entries, dropping unknown terms
// and reporting whether any were missing.
func (s *segSearcher) resolve(terms []string) ([]TermInfo, bool) {
	infos := make([]TermInfo, 0, len(terms))
	missing := false
	for _, t := range terms {
		if ti, ok := s.ix.Terms[t]; ok {
			infos = append(infos, ti)
		} else {
			missing = true
		}
	}
	return infos, missing
}

// searchBoolean evaluates unranked boolean retrieval: a cascade of
// MergeJoins (AND) or MergeOuterJoins (OR) over posting ranges, taking the
// first k matches in docid order (there is no score to rank by — the
// near-zero p@20 of the BoolAND/BoolOR rows in Table 2 is the point).
func (s *segSearcher) searchBoolean(infos []TermInfo, k int, or bool) ([]Result, error) {
	if len(infos) == 0 {
		return nil, nil
	}
	op, err := s.combinedPlan(infos, or, planCols{doc: s.docCol(false)})
	if err != nil {
		return nil, err
	}
	if err := op.Open(s.ctx); err != nil {
		return nil, err
	}
	defer op.Close()
	docidIdx := op.Schema().MustIndex("docid")
	var results []Result
	for len(results) < k {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N && len(results) < k; i++ {
			pos := i
			if b.Sel != nil {
				pos = int(b.Sel[i])
			}
			results = append(results, Result{DocID: b.Vecs[docidIdx].I64[pos]})
		}
	}
	recordOps(s.tr, op)
	return results, nil
}

// planCols names the physical columns a plan reads.
type planCols struct {
	doc   string
	tf    string // empty when scores are pre-computed
	score string // empty unless materialized
}

func (s *segSearcher) docCol(compressed bool) string {
	if compressed {
		return ColDocIDC
	}
	return ColDocID32
}

func (s *segSearcher) tfCol(compressed bool) string {
	if compressed {
		return ColTFC
	}
	return ColTF32
}

// combinedPlan builds the left-deep (outer-)join cascade over the posting
// ranges of the query terms, producing schema [docid, v_0, ..., v_{n-1}]
// where v_i is term i's tf or materialized score column (absent entirely
// for boolean plans). After each join the docid is reconciled with
// MAX(left, right), the paper's D.docid=MAX(TD1.docid, TD2.docid) trick —
// for inner joins both sides agree, for outer joins the missing side reads
// as zero and MAX picks the present one.
func (s *segSearcher) combinedPlan(infos []TermInfo, outer bool, cols planCols) (engine.Operator, error) {
	scanCols := []string{cols.doc}
	val := ""
	if cols.tf != "" {
		scanCols = append(scanCols, cols.tf)
		val = cols.tf
	} else if cols.score != "" {
		scanCols = append(scanCols, cols.score)
		val = cols.score
	}

	leaf := func(i int) (engine.Operator, error) {
		scan, err := engine.NewRangeScan(s.ix.TD, scanCols, infos[i].Start, infos[i].End)
		if err != nil {
			return nil, err
		}
		projs := []engine.Projection{
			{Name: "docid", Expr: engine.NewColRef(cols.doc)},
		}
		if val != "" {
			projs = append(projs, engine.Projection{Name: vcol(i).v, Expr: engine.NewColRef(val)})
		}
		return engine.NewProject(scan, projs), nil
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
		if val != "" {
			for j := 0; j < i; j++ {
				projs = append(projs, engine.Projection{Name: vcol(j).v, Expr: engine.NewColRef(vcol(j).l)})
			}
			projs = append(projs, engine.Projection{Name: vcol(i).v, Expr: engine.NewColRef(vcol(i).r)})
		}
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

// scoredPass is one pass of the unmaterialized ranked plan: (outer-)join
// cascade over [docid, tf], document lengths fetched from the document
// table, project the summed Okapi BM25 score, TopN. inner selects the
// conjunctive (first-pass) shape.
func (s *segSearcher) scoredPass(infos []TermInfo, k int, compressed, inner bool, stats *QueryStats) ([]Result, error) {
	return s.joinedPass(infos, k, compressed, inner, stats, func(i int, ti TermInfo) engine.Expr {
		return &engine.BM25{
			TF:     engine.NewColRef(vcol(i).v),
			DocLen: engine.NewColRef("d.len"),
			Ftd:    float64(ti.Ftd),
			Params: s.ix.Params,
		}
	})
}

// virtualPass is the stale-segment materialized pass: the plan reads tf
// like the unmaterialized strategies, but each term's weight expression
// reproduces — bitwise — the value a freshly baked score (or quantized
// score) column would hold under the current collection statistics. A
// segment whose baked columns predate the latest append thereby ranks
// identically to one baked afterwards, which is what lets appends leave
// existing segments untouched.
func (s *segSearcher) virtualPass(infos []TermInfo, k int, quantized, inner bool, stats *QueryStats) ([]Result, error) {
	return s.joinedPass(infos, k, true, inner, stats, func(i int, ti TermInfo) engine.Expr {
		return &engine.BM25Stored{
			TF:        engine.NewColRef(vcol(i).v),
			DocLen:    engine.NewColRef("d.len"),
			Ftd:       float64(ti.Ftd),
			Params:    s.ix.Params,
			Quantized: quantized,
			Lo:        s.ix.ScoreLo,
			Hi:        s.ix.ScoreHi,
		}
	})
}

// docLen is the document-table column a tf-reading plan fetches.
var docLen = []string{"len"}

// tfPlan is the tf-reading plan below the score projection: the join
// cascade over [docid, tf] with each candidate's length fetched from the
// document table by position — row docid - DocBase, since D is dense on
// docid — as d.len. A query decodes only the strides of D.len its
// candidates fall in, not the whole table.
func (s *segSearcher) tfPlan(infos []TermInfo, compressed, outer bool) (engine.Operator, error) {
	cols := planCols{doc: s.docCol(compressed), tf: s.tfCol(compressed)}
	plan, err := s.combinedPlan(infos, outer, cols)
	if err != nil {
		return nil, err
	}
	fetch, err := engine.NewFetchJoin(plan, "docid", s.ix.D, docLen, "d.", s.ix.DocBase())
	if err != nil {
		return nil, err
	}
	return fetch, nil
}

// joinedPass executes the tf-reading ranked plan shape with a caller-chosen
// per-term weight expression.
func (s *segSearcher) joinedPass(infos []TermInfo, k int, compressed, inner bool, stats *QueryStats,
	weight func(i int, ti TermInfo) engine.Expr) ([]Result, error) {
	if len(infos) == 0 {
		return nil, nil
	}
	pb := s.tr.Begin("plan.build")
	joined, err := s.tfPlan(infos, compressed, !inner)
	if err != nil {
		s.tr.End(pb)
		return nil, err
	}

	var scoreExpr engine.Expr
	for i, ti := range infos {
		w := weight(i, ti)
		if scoreExpr == nil {
			scoreExpr = w
		} else {
			scoreExpr = engine.NewArith(engine.Add, scoreExpr, w)
		}
	}
	proj := engine.NewProject(joined, []engine.Projection{
		{Name: "docid", Expr: engine.NewColRef("docid")},
		{Name: "score", Expr: scoreExpr},
	})
	top := engine.NewTopN(proj, k, []engine.OrderSpec{
		{Col: "score", Desc: true},
		{Col: "docid", Desc: false},
	})
	s.tr.End(pb)
	return s.drainTop(top, stats)
}

// materializedPass is one pass of the BM25TCM/BM25TCMQ8 plan. Freshly
// baked segments scan [docid, score] (or quantized score) ranges with no
// document-table join at all — per-document statistics are baked into the
// materialized column; stale segments route through virtualPass instead.
func (s *segSearcher) materializedPass(infos []TermInfo, k int, quantized, inner bool, stats *QueryStats) ([]Result, error) {
	if len(infos) == 0 {
		return nil, nil
	}
	if s.virtual {
		return s.virtualPass(infos, k, quantized, inner, stats)
	}
	pb := s.tr.Begin("plan.build")
	cols := planCols{doc: s.docCol(true)}
	if quantized {
		cols.score = ColQScore
	} else {
		cols.score = ColScore
	}
	plan, err := s.combinedPlan(infos, !inner, cols)
	if err != nil {
		s.tr.End(pb)
		return nil, err
	}
	var scoreExpr engine.Expr
	for i := range infos {
		var term engine.Expr = engine.NewColRef(vcol(i).v)
		if quantized {
			term = engine.NewToFloat(term)
		}
		if scoreExpr == nil {
			scoreExpr = term
		} else {
			scoreExpr = engine.NewArith(engine.Add, scoreExpr, term)
		}
	}
	proj := engine.NewProject(plan, []engine.Projection{
		{Name: "docid", Expr: engine.NewColRef("docid")},
		{Name: "score", Expr: scoreExpr},
	})
	top := engine.NewTopN(proj, k, []engine.OrderSpec{
		{Col: "score", Desc: true},
		{Col: "docid", Desc: false},
	})
	s.tr.End(pb)
	return s.drainTop(top, stats)
}

// drainTop executes a TopN plan and converts its output.
func (s *segSearcher) drainTop(top engine.Operator, stats *QueryStats) ([]Result, error) {
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
		// Tuples that reached TopN = candidates scored.
		stats.Candidates += top.Stats().Tuples
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
// strategy and returns its textual form — the demo's plan display. The
// plan is Opened to bind expressions, then explained. For a multi-segment
// snapshot the first segment's plan is shown (every segment runs the same
// shape over its own ranges).
func (s *Searcher) ExplainPlan(terms []string, k int, strat Strategy) (string, error) {
	if strat == StrategyDefault {
		resolved, err := s.snap.Resolve(strat)
		if err != nil {
			return "", err
		}
		strat = resolved
	}
	// Explain against the first segment that knows any of the terms (new
	// vocabulary may exist only in recently appended segments); every
	// segment runs the same plan shape over its own ranges.
	sub := s.subs[0]
	infos, _ := sub.resolve(terms)
	for _, cand := range s.subs[1:] {
		if len(infos) > 0 {
			break
		}
		sub = cand
		infos, _ = sub.resolve(terms)
	}
	if len(infos) == 0 {
		return "(empty plan: no known query terms)", nil
	}
	// Ranked strategies show the disjunctive scoring plan, the interesting
	// one, as this segment runs it: a virtual segment scores the
	// materialized strategies from tf, like BM25TC.
	var op engine.Operator
	var err error
	switch strat {
	case BoolAND:
		op, err = sub.combinedPlan(infos, false, planCols{doc: sub.docCol(false)})
	case BoolOR:
		op, err = sub.combinedPlan(infos, true, planCols{doc: sub.docCol(false)})
	case BM25TCM, BM25TCMQ8:
		if sub.virtual {
			op, err = sub.tfPlan(infos, true, true)
			break
		}
		cols := planCols{doc: sub.docCol(true), score: ColScore}
		if strat == BM25TCMQ8 {
			cols.score = ColQScore
		}
		op, err = sub.combinedPlan(infos, true, cols)
	default:
		op, err = sub.tfPlan(infos, strat == BM25TC, true)
	}
	if err != nil {
		return "", err
	}
	if err := op.Open(s.ctx); err != nil {
		return "", err
	}
	defer op.Close()
	return engine.Explain(op), nil
}
