package repro

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
)

// PlanBuilder assembles a vectorized relational plan fluently:
//
//	plan, err := repro.From(lineitem, "shipdate", "returnflag", "extprice").
//		Where(&repro.CmpIntColVal{Col: "shipdate", Op: repro.CmpLT, Val: 11500}).
//		Project(
//			repro.Projection{Name: "returnflag", Expr: repro.NewColRef("returnflag")},
//			repro.Projection{Name: "price", Expr: repro.NewToFloat(repro.NewColRef("extprice"))}).
//		Aggregate([]string{"returnflag"}, repro.AggSpec{Op: repro.AggSum, Col: "price", Name: "sum"}).
//		Build()
//
// Unlike the removed pre-Engine free functions (NewScan/NewSelect/...) —
// some of which returned errors and some of which deferred validation to
// Open — the builder validates every step against the running schema as
// the plan grows: unknown columns, type mismatches, duplicate output names
// and malformed bounds are all caught at Build time, and every accumulated
// error is reported together rather than one Open failure at a time.
type PlanBuilder struct {
	op     Operator
	schema engine.Schema
	errs   []error
	broken bool // stop validating downstream steps after a failure
}

func (b *PlanBuilder) fail(err error) *PlanBuilder {
	b.errs = append(b.errs, err)
	b.broken = true
	return b
}

// From starts a plan with a full scan of the named columns (all stored
// columns when none are given).
func From(t *Table, cols ...string) *PlanBuilder {
	b := &PlanBuilder{}
	if t == nil {
		return b.fail(errors.New("repro: From(nil table)"))
	}
	if len(cols) == 0 {
		cols = t.ColumnNames()
	}
	scan, err := engine.NewRangeScan(t, cols, 0, t.N)
	if err != nil {
		return b.fail(err)
	}
	b.op = scan
	b.schema = scan.Schema()
	return b
}

// Where filters the plan with a predicate. The predicate's column
// references are validated against the current schema immediately.
func (b *PlanBuilder) Where(pred Predicate) *PlanBuilder {
	if b.broken {
		return b
	}
	if pred == nil {
		return b.fail(errors.New("repro: Where(nil predicate)"))
	}
	if err := pred.Bind(b.schema); err != nil {
		return b.fail(fmt.Errorf("repro: Where(%s): %w", pred, err))
	}
	b.op = engine.NewSelect(b.op, pred)
	return b
}

// Project replaces the plan's columns with the given computed outputs.
// Expressions are bound (and therefore type-checked) against the current
// schema; duplicate output names are rejected.
func (b *PlanBuilder) Project(projs ...Projection) *PlanBuilder {
	if b.broken {
		return b
	}
	if len(projs) == 0 {
		return b.fail(errors.New("repro: Project with no projections"))
	}
	out := make(engine.Schema, 0, len(projs))
	seen := map[string]bool{}
	for _, p := range projs {
		if p.Expr == nil {
			return b.fail(fmt.Errorf("repro: projection %q has nil expression", p.Name))
		}
		if err := p.Expr.Bind(b.schema, &ExecContext{VectorSize: 1}); err != nil {
			return b.fail(fmt.Errorf("repro: projection %q: %w", p.Name, err))
		}
		if seen[p.Name] {
			return b.fail(fmt.Errorf("repro: duplicate projection name %q", p.Name))
		}
		seen[p.Name] = true
		out = append(out, engine.Col{Name: p.Name, Type: p.Expr.Type()})
	}
	b.op = engine.NewProject(b.op, projs)
	b.schema = out
	return b
}

// JoinSpec names the equi-join keys and the prefixes that disambiguate the
// two sides' columns in the output — by name, replacing the six positional
// string arguments of the removed NewMergeJoin shim.
type JoinSpec struct {
	LeftKey, RightKey       string
	LeftPrefix, RightPrefix string
	// Outer selects the full outer merge join (the boolean-OR /
	// zero-padding shape BM25 plans rely on).
	Outer bool
}

// Join merge-joins this plan (left) with another (right). Keys must be
// Int64 on both sides, and both inputs must be strictly increasing on
// their keys (the inverted-list invariant, checked at run time). The right
// builder's accumulated errors propagate into this one.
func (b *PlanBuilder) Join(right *PlanBuilder, on JoinSpec) *PlanBuilder {
	if b.broken {
		return b
	}
	if right == nil {
		return b.fail(errors.New("repro: Join(nil right side)"))
	}
	if len(right.errs) > 0 {
		b.errs = append(b.errs, right.errs...)
		b.broken = true
		return b
	}
	checkKey := func(side string, s engine.Schema, key string) error {
		i := s.Index(key)
		if i < 0 {
			return fmt.Errorf("repro: join %s key %q not in schema", side, key)
		}
		if s[i].Type != TypeInt64 {
			return fmt.Errorf("repro: join %s key %q is %v, want Int64", side, key, s[i].Type)
		}
		return nil
	}
	if err := checkKey("left", b.schema, on.LeftKey); err != nil {
		return b.fail(err)
	}
	if err := checkKey("right", right.schema, on.RightKey); err != nil {
		return b.fail(err)
	}
	out := make(engine.Schema, 0, len(b.schema)+len(right.schema))
	seen := map[string]bool{}
	for _, c := range b.schema {
		name := on.LeftPrefix + c.Name
		seen[name] = true
		out = append(out, engine.Col{Name: name, Type: c.Type})
	}
	for _, c := range right.schema {
		name := on.RightPrefix + c.Name
		if seen[name] {
			return b.fail(fmt.Errorf("repro: join output column %q is ambiguous; set prefixes", name))
		}
		seen[name] = true
		out = append(out, engine.Col{Name: name, Type: c.Type})
	}
	if on.Outer {
		b.op = engine.NewMergeOuterJoin(b.op, right.op, on.LeftKey, on.RightKey, on.LeftPrefix, on.RightPrefix)
	} else {
		b.op = engine.NewMergeJoin(b.op, right.op, on.LeftKey, on.RightKey, on.LeftPrefix, on.RightPrefix)
	}
	b.schema = out
	return b
}

// Aggregate groups by up to two Int64/Str columns and folds aggregates per
// group (no group columns = one-row scalar aggregation).
func (b *PlanBuilder) Aggregate(groupBy []string, aggs ...AggSpec) *PlanBuilder {
	if b.broken {
		return b
	}
	if len(groupBy) > 2 {
		return b.fail(fmt.Errorf("repro: at most 2 group columns supported, got %d", len(groupBy)))
	}
	out := make(engine.Schema, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		i := b.schema.Index(g)
		if i < 0 {
			return b.fail(fmt.Errorf("repro: unknown group column %q", g))
		}
		if t := b.schema[i].Type; t != TypeInt64 && t != TypeStr {
			return b.fail(fmt.Errorf("repro: group column %q has unsupported type %v", g, t))
		}
		out = append(out, b.schema[i])
	}
	seen := map[string]bool{}
	for _, spec := range aggs {
		if seen[spec.Name] {
			return b.fail(fmt.Errorf("repro: duplicate aggregate name %q", spec.Name))
		}
		seen[spec.Name] = true
		if spec.Op == AggCount {
			out = append(out, engine.Col{Name: spec.Name, Type: TypeInt64})
			continue
		}
		i := b.schema.Index(spec.Col)
		if i < 0 {
			return b.fail(fmt.Errorf("repro: unknown aggregate column %q", spec.Col))
		}
		t := b.schema[i].Type
		if t != TypeInt64 && t != TypeFloat64 {
			return b.fail(fmt.Errorf("repro: aggregate %v over unsupported type %v", spec.Op, t))
		}
		out = append(out, engine.Col{Name: spec.Name, Type: t})
	}
	b.op = engine.NewAggregate(b.op, groupBy, aggs)
	b.schema = out
	return b
}

func (b *PlanBuilder) checkOrder(order []OrderSpec) error {
	if len(order) == 0 {
		return errors.New("repro: ordering needs at least one key")
	}
	for _, o := range order {
		i := b.schema.Index(o.Col)
		if i < 0 {
			return fmt.Errorf("repro: unknown order column %q", o.Col)
		}
		if t := b.schema[i].Type; t != TypeInt64 && t != TypeFloat64 {
			return fmt.Errorf("repro: order column %q has unsupported type %v", o.Col, t)
		}
	}
	return nil
}

// TopN keeps the n best rows under the ordering — the bounded-heap top-k
// every ranked plan ends with.
func (b *PlanBuilder) TopN(n int, order ...OrderSpec) *PlanBuilder {
	if b.broken {
		return b
	}
	if n <= 0 {
		return b.fail(fmt.Errorf("repro: TopN with n=%d", n))
	}
	if err := b.checkOrder(order); err != nil {
		return b.fail(err)
	}
	b.op = engine.NewTopN(b.op, n, order)
	return b
}

// OrderBy fully sorts the plan's output.
func (b *PlanBuilder) OrderBy(order ...OrderSpec) *PlanBuilder {
	if b.broken {
		return b
	}
	if err := b.checkOrder(order); err != nil {
		return b.fail(err)
	}
	b.op = engine.NewSort(b.op, order)
	return b
}

// Limit passes through the first n tuples and stops pulling afterwards.
func (b *PlanBuilder) Limit(n int) *PlanBuilder {
	if b.broken {
		return b
	}
	if n < 0 {
		return b.fail(fmt.Errorf("repro: Limit with n=%d", n))
	}
	b.op = engine.NewLimit(b.op, n)
	return b
}

// Schema returns the output schema the plan has accumulated so far (nil
// once the builder has failed).
func (b *PlanBuilder) Schema() engine.Schema {
	if b.broken {
		return nil
	}
	return b.schema
}

// Build returns the validated plan, or every error the fluent chain
// accumulated, joined.
func (b *PlanBuilder) Build() (Operator, error) {
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	if b.op == nil {
		return nil, errors.New("repro: empty plan")
	}
	return b.op, nil
}

// Run builds the plan and drains it under the context, invoking fn on
// every batch. Cancellation aborts between vectors with ctx.Err().
func (b *PlanBuilder) Run(ctx context.Context, fn func(*Batch) error) error {
	op, err := b.Build()
	if err != nil {
		return err
	}
	return engine.Drain(op, execContextFor(ctx), fn)
}

// Collect builds the plan and materializes all rows as boxed values
// (tests, demos, small results).
func (b *PlanBuilder) Collect(ctx context.Context) ([][]any, error) {
	op, err := b.Build()
	if err != nil {
		return nil, err
	}
	return CollectContext(ctx, op)
}

// execContextFor returns a default-vector-size ExecContext wired to the
// context's cancellation.
func execContextFor(ctx context.Context) *ExecContext {
	ec := engine.NewContext()
	if ctx != nil && ctx.Done() != nil {
		ec.Interrupt = ctx.Err
	}
	return ec
}

// CollectContext drains an operator into boxed rows under a context.
func CollectContext(ctx context.Context, op Operator) ([][]any, error) {
	return engine.Collect(op, execContextFor(ctx))
}
