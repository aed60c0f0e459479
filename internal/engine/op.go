// Package engine implements the X100 vectorized execution engine: a
// pipeline of relational operators communicating through the classical
// open()/next()/close() iterator interface, where every next() call
// returns a vector of tuples rather than a single tuple (Figure 1 of the
// paper). All value processing inside operators is delegated to the
// branch-free kernels of package primitives, so interpretation overhead is
// paid once per vector instead of once per value.
//
// Operators available: Scan (with range pushdown for the inverted-list
// term index, and a Bound that skips strides the TopN above cannot use),
// Select, Project, MergeJoin and MergeOuterJoin (ordered
// inverted-list combination), FetchJoin (positional lookup in a table dense
// on its key, X100's Fetch1Join), Aggregate (hash and scalar), TopN, Sort,
// and Values (in-memory source).
package engine

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/colbm"
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

// ExecContext carries per-query execution parameters and the working memory
// of the plans run on it. A context is single-owner: it runs one plan at a
// time, so what one finished plan gives back the next one takes, without
// locks.
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
	// calls.
	slots []int32

	// free holds the vectors closed operators and expressions gave back, by
	// type, every one of capacity VectorSize; cursors holds their scan
	// cursors, each with the decode scratch it grew.
	free    [vector.Bool + 1][]*vector.Vector
	cursors []*colbm.Cursor
}

// NewContext returns a context with the default vector size.
func NewContext() *ExecContext { return &ExecContext{VectorSize: vector.DefaultSize} }

// PoisonVectors makes every context fill each vector it hands out with
// garbage, so that an operator or expression reading a value it did not
// write first gives a wrong result instead of a stale or zero one. It is a
// test hook: tests set it in TestMain, before any plan runs, and nothing
// else may.
var PoisonVectors bool

// vector hands out a vector of type t with room for n values, its length 0
// and its values whatever the last holder left. Up to VectorSize values it
// is a recycled vector of capacity VectorSize where one was given back;
// larger ones are always new.
func (c *ExecContext) vector(t vector.Type, n int) *vector.Vector {
	var v *vector.Vector
	if n <= c.VectorSize {
		n = c.VectorSize
		if free := c.free[t]; len(free) > 0 {
			v, free[len(free)-1] = free[len(free)-1], nil
			c.free[t] = free[:len(free)-1]
			v.Reset()
		}
	}
	if v == nil {
		v = vector.New(t, n)
	}
	if PoisonVectors {
		poison(v)
	}
	return v
}

// recycle takes a vector back for the next taker. Only vectors of capacity
// VectorSize are kept, so the free list never outgrows the largest set of
// vectors one plan held at a time.
func (c *ExecContext) recycle(v *vector.Vector) {
	if v.Cap() == c.VectorSize {
		c.free[v.Type()] = append(c.free[v.Type()], v)
	}
}

// recycleOut gives an expression's output vector back and forgets it, so
// that an expression reached twice in one tree is given back once.
func (c *ExecContext) recycleOut(out **vector.Vector) {
	if *out != nil {
		c.recycle(*out)
		*out = nil
	}
}

// cursor hands out a cursor over col: a recycled one, keeping the decode
// scratch it grew, where one was given back.
func (c *ExecContext) cursor(col *colbm.Column) *colbm.Cursor {
	n := len(c.cursors)
	if n == 0 {
		return colbm.NewCursor(col)
	}
	cur := c.cursors[n-1]
	c.cursors[n-1] = nil
	c.cursors = c.cursors[:n-1]
	cur.Reset(col)
	return cur
}

// poison fills the whole capacity of v with values no operator writes.
func poison(v *vector.Vector) {
	for i := range v.I64 {
		v.I64[i] = -0x5a5a5a5a5a5a5a5b
	}
	for i := range v.I32 {
		v.I32[i] = -0x5a5a5a5b
	}
	for i := range v.F64 {
		v.F64[i] = math.NaN()
	}
	for i := range v.U8 {
		v.U8[i] = 0xa5
	}
	for i := range v.S {
		v.S[i] = "\x00poison"
	}
	for i := range v.B {
		v.B[i] = true
	}
}

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
//
// Working memory comes from the context: Open (and, through it, every
// Expr.Bind) takes the operator's vectors, selection and position buffers
// and scan cursors from the ExecContext, and Close gives them back, so the
// next plan run on the context takes the same memory again instead of
// allocating. A taken vector is not zeroed — its values are whatever its
// last holder left — so every consumer writes a position before it reads
// it. Close may be called more than once (Drain closes the plan it opened,
// and a parent closes its children); only the first call gives anything
// back, so a vector never has two holders.
type Operator interface {
	// Schema describes the output columns.
	Schema() Schema
	// Open prepares the operator (and its children) for execution, taking
	// its working memory from ctx.
	Open(ctx *ExecContext) error
	// Next produces the next vector of tuples, or nil at end of stream.
	Next() (*vector.Batch, error)
	// Close gives the working memory back to the context Open took it from,
	// and closes the children. Operators may not be reopened.
	Close() error
	// Children returns the operator's inputs, for plan traversal.
	Children() []Operator
	// Describe returns a one-line description for plan display.
	Describe() string
	// Stats exposes the profiling counters.
	Stats() *OpStats
}

// base carries the schema, stats and context vectors shared by every
// operator implementation.
type base struct {
	schema Schema
	stats  OpStats

	ctx     *ExecContext
	held    []*vector.Vector  // taken from ctx since Open, given back by release
	heldBuf [8]*vector.Vector // backs held, so that most operators' Open allocates no list
}

func (b *base) Schema() Schema  { return b.schema }
func (b *base) Stats() *OpStats { return &b.stats }

// take hands the operator a vector of type t with room for n values from
// its context, held until release.
func (b *base) take(t vector.Type, n int) *vector.Vector {
	v := b.ctx.vector(t, n)
	if b.held == nil {
		b.held = b.heldBuf[:0]
	}
	b.held = append(b.held, v)
	return v
}

// release gives every held vector back to the context; a second call finds
// none to give.
func (b *base) release() {
	for _, v := range b.held {
		b.ctx.recycle(v)
	}
	clear(b.held)
	b.held = b.held[:0]
}

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
