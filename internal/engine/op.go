// Package engine implements the X100 vectorized execution engine: a
// pipeline of relational operators communicating through the classical
// open()/next()/close() iterator interface, where every next() call
// returns a vector of tuples rather than a single tuple (Figure 1 of the
// paper). All value processing inside operators is delegated to the
// branch-free kernels of package primitives, so interpretation overhead is
// paid once per vector instead of once per value.
//
// Operators available: Scan (with range pushdown for the inverted-list
// term index), Select, Project, MergeJoin and MergeOuterJoin (ordered
// inverted-list combination), HashJoin (the ablation alternative),
// Aggregate (hash and scalar), TopN, Sort, and Values (in-memory source).
package engine

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/vector"
)

// Col describes one column of an operator's output.
type Col struct {
	Name string
	Type vector.Type
}

// Schema is an ordered list of output columns.
type Schema []Col

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustIndex is Index but panics on unknown names; used for static plans.
func (s Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("engine: schema has no column %q", name))
	}
	return i
}

// ExecContext carries per-query execution parameters.
type ExecContext struct {
	// VectorSize is the number of tuples per vector. The default of 1024
	// keeps a pipeline's working set inside the CPU cache; the vector-size
	// ablation benchmark sweeps this parameter.
	VectorSize int

	// Interrupt, when non-nil, is polled between operator batches (at every
	// leaf Next call and between Drain iterations). A non-nil return aborts
	// the query with that error — this is how context.Context cancellation
	// and deadlines reach a running plan: install func() error { return
	// ctx.Err() } and every pipeline bottoms out at a leaf within one
	// vector's worth of work.
	Interrupt func() error

	// slots is MergeJoin's positional-kernel scratch (matchWindow), shared
	// by every join of the plans run on this context and all-zero between
	// calls. A context is single-owner: it runs one plan at a time.
	slots []int32
}

// NewContext returns a context with the default vector size.
func NewContext() *ExecContext { return &ExecContext{VectorSize: vector.DefaultSize} }

// Interrupted polls the cancellation hook; nil when no hook is installed
// or the query may continue.
func (c *ExecContext) Interrupted() error {
	if c.Interrupt != nil {
		return c.Interrupt()
	}
	return nil
}

// joinSlots returns the zeroed slot array, grown to at least width slots
// (the next power of two, at most maxWindow).
func (c *ExecContext) joinSlots(width int) []int32 {
	if len(c.slots) < width {
		c.slots = make([]int32, min(maxWindow, 1<<bits.Len(uint(width-1))))
	}
	return c.slots
}

// OpStats are per-operator profiling counters, displayed by Explain as the
// annotated query plan of the demonstration ("alongside with the query
// results, we display the relational query plan that was executed,
// annotated with profiling information").
type OpStats struct {
	NextCalls int64
	Tuples    int64
	// Time is cumulative (includes children); Explain derives self time.
	Time time.Duration
}

// Operator is the vectorized iterator interface. Next returns nil when the
// input is exhausted. The returned batch is owned by the operator and only
// valid until the following Next or Close.
type Operator interface {
	// Schema describes the output columns.
	Schema() Schema
	// Open prepares the operator (and its children) for execution.
	Open(ctx *ExecContext) error
	// Next produces the next vector of tuples, or nil at end of stream.
	Next() (*vector.Batch, error)
	// Close releases resources. Operators may not be reopened.
	Close() error
	// Children returns the operator's inputs, for plan traversal.
	Children() []Operator
	// Describe returns a one-line description for plan display.
	Describe() string
	// Stats exposes the profiling counters.
	Stats() *OpStats
}

// base carries the schema and stats shared by every operator
// implementation.
type base struct {
	schema Schema
	stats  OpStats
}

func (b *base) Schema() Schema  { return b.schema }
func (b *base) Stats() *OpStats { return &b.stats }

// observe records one Next call. Concrete operators call it via
// defer-with-args pattern: defer captures start, the named results carry
// the batch.
func (b *base) observe(start time.Time, batch *vector.Batch) {
	b.stats.NextCalls++
	b.stats.Time += time.Since(start)
	if batch != nil {
		b.stats.Tuples += int64(batch.N)
	}
}

// Drain runs an operator to completion, invoking fn on every batch. It
// handles Open and Close and is the standard way to execute a finished
// plan.
func Drain(op Operator, ctx *ExecContext, fn func(*vector.Batch) error) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	defer op.Close()
	for {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		batch, err := op.Next()
		if err != nil {
			return err
		}
		if batch == nil {
			return nil
		}
		if fn != nil {
			if err := fn(batch); err != nil {
				return err
			}
		}
	}
}

// Collect drains an operator and returns all rows materialized as boxed
// values; intended for tests and small result sets (the demo UI).
func Collect(op Operator, ctx *ExecContext) ([][]any, error) {
	var rows [][]any
	err := Drain(op, ctx, func(b *vector.Batch) error {
		for i := 0; i < b.N; i++ {
			rows = append(rows, b.Row(i))
		}
		return nil
	})
	return rows, err
}

// copyValue copies one value between aligned vectors of the same type.
func copyValue(dst *vector.Vector, di int, src *vector.Vector, si int) {
	switch dst.Type() {
	case vector.Int64:
		dst.I64[di] = src.I64[si]
	case vector.Int32:
		dst.I32[di] = src.I32[si]
	case vector.Float64:
		dst.F64[di] = src.F64[si]
	case vector.UInt8:
		dst.U8[di] = src.U8[si]
	case vector.Str:
		dst.S[di] = src.S[si]
	case vector.Bool:
		dst.B[di] = src.B[si]
	}
}
