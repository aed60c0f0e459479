package ir

import (
	"context"
	"time"

	"repro/internal/engine"
	"repro/internal/vector"
)

// SearchBool evaluates a parsed boolean query (§3.2): AND compiles to
// MergeJoin, OR to MergeOuterJoin, leaves to posting-range scans. Results
// are unranked, in ascending docid order, truncated to k by a Limit
// operator that stops pulling posting data as soon as k matches exist.
func (s *Searcher) SearchBool(expr BoolExpr, k int) ([]Result, QueryStats, error) {
	var stats QueryStats
	io0 := s.simIO()
	start := time.Now()

	results, err := s.searchBool(expr, k)
	if err == nil {
		err = s.resolveNames(results)
	}
	if err != nil {
		return nil, stats, err
	}
	stats.Wall = time.Since(start)
	stats.SimIO = s.simIO() - io0
	return results, stats, nil
}

// SearchBoolContext is SearchBool honoring context cancellation, wiring
// the interrupt hook exactly like SearchContext does for ranked queries.
func (s *Searcher) SearchBoolContext(ctx context.Context, expr BoolExpr, k int) ([]Result, QueryStats, error) {
	if ctx != nil && ctx.Done() != nil {
		s.ctx.Interrupt = ctx.Err
		defer func() { s.ctx.Interrupt = nil }()
	}
	return s.SearchBool(expr, k)
}

// boolChain is the boolean query the BoolAND and BoolOR strategies run for
// a keyword query: its terms, in order, joined by a left-deep chain of AND
// (or OR). terms must not be empty. The matches come in docid order, with
// no score to rank by: the near-zero p@20 of the BoolAND/BoolOR rows in
// Table 2 is the point.
func boolChain(terms []string, or bool) BoolExpr {
	var e BoolExpr = &BoolTerm{Term: terms[0]}
	for _, t := range terms[1:] {
		if or {
			e = &BoolOr{L: e, R: &BoolTerm{Term: t}}
		} else {
			e = &BoolAnd{L: e, R: &BoolTerm{Term: t}}
		}
	}
	return e
}

// searchBool returns the first k matches of a boolean query in docid order
// (names unresolved). Segments cover ascending docid ranges, so evaluating
// them in order and stopping at k matches yields the global first k.
func (s *Searcher) searchBool(expr BoolExpr, k int) ([]Result, error) {
	var results []Result
	for _, sub := range s.subs {
		if len(results) >= k {
			break
		}
		res, err := sub.searchBool(expr, k-len(results))
		if err != nil {
			return nil, err
		}
		results = append(results, res...)
	}
	return results, nil
}

// searchBool runs a boolean query against one segment, returning up to k
// matches in docid order.
func (s *segSearcher) searchBool(expr BoolExpr, k int) ([]Result, error) {
	root, err := s.boolRoot(expr, k)
	if err != nil {
		return nil, err
	}
	var results []Result
	err = engine.Drain(root, s.ctx, func(b *vector.Batch) error {
		idx := root.Schema().MustIndex("docid")
		for i := 0; i < b.N; i++ {
			pos := i
			if b.Sel != nil {
				pos = int(b.Sel[i])
			}
			results = append(results, Result{DocID: b.Vecs[idx].I64[pos]})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	recordOps(s.tr, root)
	return results, nil
}

// boolRoot is the complete plan of a boolean query on one segment — the
// tree searchBool drains and ExplainPlan renders: the compiled
// expression under Limit(k).
func (s *segSearcher) boolRoot(expr BoolExpr, k int) (engine.Operator, error) {
	plan, err := s.boolPlan(expr)
	if err != nil {
		return nil, err
	}
	return engine.NewLimit(plan, k), nil
}

// boolPlan compiles a boolean expression to an operator tree with output
// schema [docid]. Every subtree emits strictly increasing docids, so the
// composition of merge joins stays valid by induction.
func (s *segSearcher) boolPlan(expr BoolExpr) (engine.Operator, error) {
	switch e := expr.(type) {
	case *BoolTerm:
		ti, ok := s.ix.Terms[e.Term]
		if !ok {
			// Unknown term: empty posting list.
			return engine.NewValues([]string{"docid"},
				[]*vector.Vector{vector.NewInt64(nil)})
		}
		scan, err := engine.NewRangeScan(s.ix.TD, []string{ColDocID32}, ti.Start, ti.End)
		if err != nil {
			return nil, err
		}
		return engine.NewProject(scan, []engine.Projection{
			{Name: "docid", Expr: engine.NewColRef(ColDocID32)},
		}), nil
	case *BoolAnd:
		l, err := s.boolPlan(e.L)
		if err != nil {
			return nil, err
		}
		r, err := s.boolPlan(e.R)
		if err != nil {
			return nil, err
		}
		join := engine.NewMergeJoin(l, r, "docid", "docid", "l.", "r.")
		return engine.NewProject(join, []engine.Projection{
			{Name: "docid", Expr: engine.NewColRef("l.docid")},
		}), nil
	case *BoolOr:
		l, err := s.boolPlan(e.L)
		if err != nil {
			return nil, err
		}
		r, err := s.boolPlan(e.R)
		if err != nil {
			return nil, err
		}
		join := engine.NewMergeOuterJoin(l, r, "docid", "docid", "l.", "r.")
		return engine.NewProject(join, []engine.Projection{
			{Name: "docid", Expr: engine.NewArith(engine.Max,
				engine.NewColRef("l.docid"), engine.NewColRef("r.docid"))},
		}), nil
	default:
		panic("ir: unknown boolean expression node")
	}
}
