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
// Segments cover ascending docid ranges, so evaluating them in order and
// stopping at k matches yields the global first-k.
func (s *Searcher) SearchBool(expr BoolExpr, k int) ([]Result, QueryStats, error) {
	var stats QueryStats
	io0 := s.simIO()
	start := time.Now()

	var results []Result
	for _, sub := range s.subs {
		if len(results) >= k {
			break
		}
		res, err := sub.searchBoolExpr(expr, k-len(results))
		if err != nil {
			return nil, stats, err
		}
		results = append(results, res...)
	}
	if err := s.resolveNames(results); err != nil {
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

// ExplainBool renders the compiled plan of a boolean query (the first
// segment's; every segment runs the same shape over its own ranges).
func (s *Searcher) ExplainBool(expr BoolExpr, k int) (string, error) {
	plan, err := s.subs[0].boolPlan(expr)
	if err != nil {
		return "", err
	}
	limited := engine.NewLimit(plan, k)
	if err := limited.Open(s.ctx); err != nil {
		return "", err
	}
	defer limited.Close()
	return engine.Explain(limited), nil
}

// searchBoolExpr compiles and runs a boolean query against one segment,
// returning up to k matches in docid order (names unresolved).
func (s *segSearcher) searchBoolExpr(expr BoolExpr, k int) ([]Result, error) {
	plan, err := s.boolPlan(expr)
	if err != nil {
		return nil, err
	}
	limited := engine.NewLimit(plan, k)
	var results []Result
	err = engine.Drain(limited, s.ctx, func(b *vector.Batch) error {
		idx := limited.Schema().MustIndex("docid")
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
	return results, nil
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
		scan, err := engine.NewRangeScan(s.ix.TD, []string{s.docCol(false)}, ti.Start, ti.End)
		if err != nil {
			return nil, err
		}
		return engine.NewProject(scan, []engine.Projection{
			{Name: "docid", Expr: engine.NewColRef(s.docCol(false))},
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
