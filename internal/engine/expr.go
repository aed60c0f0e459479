package engine

import (
	"fmt"

	"repro/internal/primitives"
	"repro/internal/vector"
)

// Expr is a vectorized scalar expression. Bind resolves column references
// against an input schema and takes its result vector from the context;
// Eval computes the expression for all active positions of a batch,
// delegating the work to package primitives, and returns a result vector
// aligned with the batch (selection vectors pass through untouched). The
// Project that bound an expression gives its vectors back when it closes.
type Expr interface {
	Bind(s Schema, ctx *ExecContext) error
	Type() vector.Type
	Eval(b *vector.Batch) *vector.Vector
	String() string
}

// vectorHolder is an expression holding context vectors from Bind on:
// release gives its own back and its children's.
type vectorHolder interface {
	release(ctx *ExecContext)
}

// releaseExpr gives back the vectors an expression tree holds.
func releaseExpr(ctx *ExecContext, e Expr) {
	if h, ok := e.(vectorHolder); ok {
		h.release(ctx)
	}
}

// ColRef references an input column by name.
type ColRef struct {
	Name string
	idx  int
	typ  vector.Type
}

// NewColRef returns a column reference expression.
func NewColRef(name string) *ColRef { return &ColRef{Name: name} }

// Bind resolves the column index.
func (c *ColRef) Bind(s Schema, _ *ExecContext) error {
	i := s.Index(c.Name)
	if i < 0 {
		return fmt.Errorf("engine: unknown column %q", c.Name)
	}
	c.idx = i
	c.typ = s[i].Type
	return nil
}

// Type returns the referenced column's type.
func (c *ColRef) Type() vector.Type { return c.typ }

// Eval returns the referenced vector directly (no copy).
func (c *ColRef) Eval(b *vector.Batch) *vector.Vector { return b.Vecs[c.idx] }

func (c *ColRef) String() string { return c.Name }

// ConstFloat is a float64 literal broadcast over the vector.
type ConstFloat struct {
	Val float64
	out *vector.Vector
}

// Bind takes the broadcast buffer.
func (c *ConstFloat) Bind(_ Schema, ctx *ExecContext) error {
	c.out = ctx.vector(vector.Float64, ctx.VectorSize)
	return nil
}

// Type returns Float64.
func (c *ConstFloat) Type() vector.Type { return vector.Float64 }

// Eval fills the active positions with the constant.
func (c *ConstFloat) Eval(b *vector.Batch) *vector.Vector {
	n := b.FullLen()
	c.out.SetLen(n)
	for i := 0; i < n; i++ {
		c.out.F64[i] = c.Val
	}
	return c.out
}

func (c *ConstFloat) String() string { return fmt.Sprintf("%g", c.Val) }

func (c *ConstFloat) release(ctx *ExecContext) { ctx.recycleOut(&c.out) }

// ArithOp enumerates binary arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Max
	Min
)

func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Max:
		return "max"
	case Min:
		return "min"
	}
	return "?"
}

// Arith applies a binary arithmetic operator to two sub-expressions of the
// same numeric type (Int64 or Float64).
type Arith struct {
	Op   ArithOp
	L, R Expr
	typ  vector.Type
	out  *vector.Vector
}

// NewArith builds an arithmetic expression node.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

// Bind binds the children and checks the operand types.
func (a *Arith) Bind(s Schema, ctx *ExecContext) error {
	if err := a.L.Bind(s, ctx); err != nil {
		return err
	}
	if err := a.R.Bind(s, ctx); err != nil {
		return err
	}
	lt, rt := a.L.Type(), a.R.Type()
	if lt != rt {
		return fmt.Errorf("engine: %v operand types differ: %v vs %v (insert ToFloat)", a.Op, lt, rt)
	}
	if lt != vector.Int64 && lt != vector.Float64 {
		return fmt.Errorf("engine: %v unsupported on %v", a.Op, lt)
	}
	if (a.Op == Max || a.Op == Min) && lt != vector.Int64 {
		return fmt.Errorf("engine: %v supported on Int64 only", a.Op)
	}
	a.typ = lt
	a.out = ctx.vector(lt, ctx.VectorSize)
	return nil
}

// Type returns the result type.
func (a *Arith) Type() vector.Type { return a.typ }

// Eval dispatches to the matching map primitive.
func (a *Arith) Eval(b *vector.Batch) *vector.Vector {
	l := a.L.Eval(b)
	r := a.R.Eval(b)
	n := b.FullLen()
	sel := b.Sel
	cnt := n
	if sel != nil {
		cnt = b.N
	}
	a.out.SetLen(n)
	if a.typ == vector.Float64 {
		switch a.Op {
		case Add:
			primitives.MapAddFloat64ColCol(a.out.F64, l.F64, r.F64, sel, cnt)
		case Sub:
			primitives.MapSubFloat64ColCol(a.out.F64, l.F64, r.F64, sel, cnt)
		case Mul:
			primitives.MapMulFloat64ColCol(a.out.F64, l.F64, r.F64, sel, cnt)
		case Div:
			primitives.MapDivFloat64ColCol(a.out.F64, l.F64, r.F64, sel, cnt)
		}
		return a.out
	}
	switch a.Op {
	case Add:
		primitives.MapAddInt64ColCol(a.out.I64, l.I64, r.I64, sel, cnt)
	case Sub:
		primitives.MapSubInt64ColCol(a.out.I64, l.I64, r.I64, sel, cnt)
	case Mul:
		primitives.MapMulInt64ColCol(a.out.I64, l.I64, r.I64, sel, cnt)
	case Max:
		primitives.MapMaxInt64ColCol(a.out.I64, l.I64, r.I64, sel, cnt)
	case Min:
		primitives.MapMinInt64ColCol(a.out.I64, l.I64, r.I64, sel, cnt)
	case Div:
		// Integer division has no primitive in the paper's catalog; done
		// inline (it appears only in auxiliary plans, never on IR hot
		// paths).
		if sel == nil {
			for i := 0; i < cnt; i++ {
				a.out.I64[i] = l.I64[i] / r.I64[i]
			}
		} else {
			for i := 0; i < cnt; i++ {
				s := sel[i]
				a.out.I64[s] = l.I64[s] / r.I64[s]
			}
		}
	}
	return a.out
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

func (a *Arith) release(ctx *ExecContext) {
	ctx.recycleOut(&a.out)
	releaseExpr(ctx, a.L)
	releaseExpr(ctx, a.R)
}

// Log is the natural logarithm of a Float64 sub-expression.
type Log struct {
	Arg Expr
	out *vector.Vector
}

// NewLog builds a ln(x) node.
func NewLog(arg Expr) *Log { return &Log{Arg: arg} }

// Bind binds the argument and checks it is Float64.
func (l *Log) Bind(s Schema, ctx *ExecContext) error {
	if err := l.Arg.Bind(s, ctx); err != nil {
		return err
	}
	if l.Arg.Type() != vector.Float64 {
		return fmt.Errorf("engine: log argument must be Float64, got %v", l.Arg.Type())
	}
	l.out = ctx.vector(vector.Float64, ctx.VectorSize)
	return nil
}

// Type returns Float64.
func (l *Log) Type() vector.Type { return vector.Float64 }

// Eval applies map_log_flt_col.
func (l *Log) Eval(b *vector.Batch) *vector.Vector {
	arg := l.Arg.Eval(b)
	n := b.FullLen()
	sel := b.Sel
	cnt := n
	if sel != nil {
		cnt = b.N
	}
	l.out.SetLen(n)
	primitives.MapLogFloat64Col(l.out.F64, arg.F64, sel, cnt)
	return l.out
}

func (l *Log) String() string { return fmt.Sprintf("log(%s)", l.Arg) }

func (l *Log) release(ctx *ExecContext) {
	ctx.recycleOut(&l.out)
	releaseExpr(ctx, l.Arg)
}

// ToFloat widens Int64 or UInt8 sub-expressions to Float64.
type ToFloat struct {
	Arg Expr
	out *vector.Vector
}

// NewToFloat builds a cast node.
func NewToFloat(arg Expr) *ToFloat { return &ToFloat{Arg: arg} }

// Bind binds the argument and validates the source type.
func (c *ToFloat) Bind(s Schema, ctx *ExecContext) error {
	if err := c.Arg.Bind(s, ctx); err != nil {
		return err
	}
	switch c.Arg.Type() {
	case vector.Int64, vector.UInt8, vector.Float64:
	default:
		return fmt.Errorf("engine: cannot cast %v to Float64", c.Arg.Type())
	}
	c.out = ctx.vector(vector.Float64, ctx.VectorSize)
	return nil
}

// Type returns Float64.
func (c *ToFloat) Type() vector.Type { return vector.Float64 }

// Eval applies the matching conversion primitive (identity for Float64).
func (c *ToFloat) Eval(b *vector.Batch) *vector.Vector {
	arg := c.Arg.Eval(b)
	if arg.Type() == vector.Float64 {
		return arg
	}
	n := b.FullLen()
	sel := b.Sel
	cnt := n
	if sel != nil {
		cnt = b.N
	}
	c.out.SetLen(n)
	if arg.Type() == vector.Int64 {
		primitives.MapInt64ToFloat64(c.out.F64, arg.I64, sel, cnt)
	} else {
		primitives.MapUInt8ToFloat64(c.out.F64, arg.U8, sel, cnt)
	}
	return c.out
}

func (c *ToFloat) String() string { return fmt.Sprintf("float(%s)", c.Arg) }

func (c *ToFloat) release(ctx *ExecContext) {
	ctx.recycleOut(&c.out)
	releaseExpr(ctx, c.Arg)
}

// BM25 is the fused Okapi BM25 term-weight expression: given an Int64 tf
// column, an Int64 doclen column and the per-term document frequency, it
// computes w(D,T) in a single pass (see primitives.MapBM25TfLenCol). The
// equivalent composed expression tree is constructed by BM25Composed; the
// fused-vs-composed difference is measured by BenchmarkBM25Expression.
type BM25 struct {
	TF, DocLen Expr
	Ftd        float64
	Params     primitives.BM25Params
	out        *vector.Vector
}

// Bind binds the children and checks they are Int64.
func (e *BM25) Bind(s Schema, ctx *ExecContext) error {
	if err := e.TF.Bind(s, ctx); err != nil {
		return err
	}
	if err := e.DocLen.Bind(s, ctx); err != nil {
		return err
	}
	if e.TF.Type() != vector.Int64 || e.DocLen.Type() != vector.Int64 {
		return fmt.Errorf("engine: BM25 needs Int64 tf and doclen, got %v, %v", e.TF.Type(), e.DocLen.Type())
	}
	e.out = ctx.vector(vector.Float64, ctx.VectorSize)
	return nil
}

// Type returns Float64.
func (e *BM25) Type() vector.Type { return vector.Float64 }

// Eval applies the fused BM25 primitive.
func (e *BM25) Eval(b *vector.Batch) *vector.Vector {
	tf := e.TF.Eval(b)
	dl := e.DocLen.Eval(b)
	n := b.FullLen()
	sel := b.Sel
	cnt := n
	if sel != nil {
		cnt = b.N
	}
	e.out.SetLen(n)
	primitives.MapBM25TfLenCol(e.out.F64, tf.I64, dl.I64, e.Ftd, e.Params, sel, cnt)
	return e.out
}

func (e *BM25) String() string {
	return fmt.Sprintf("bm25(%s, %s, ftd=%g)", e.TF, e.DocLen, e.Ftd)
}

func (e *BM25) release(ctx *ExecContext) {
	ctx.recycleOut(&e.out)
	releaseExpr(ctx, e.TF)
	releaseExpr(ctx, e.DocLen)
}

// BM25Composed builds the Okapi weight from generic map primitives, the
// way a query compiler would translate the textual formula of Eq. 2
// without a fused kernel:
//
//	log(fD/ftd) * ((k1+1)*tf) / (tf + k1*((1-b) + b*doclen/avgdl))
func BM25Composed(tf, doclen Expr, ftd float64, p primitives.BM25Params) Expr {
	tfF := NewToFloat(tf)
	dlF := NewToFloat(doclen)
	idf := NewLog(&ConstFloat{Val: p.NumDocs / ftd})
	num := NewArith(Mul, &ConstFloat{Val: p.K1 + 1}, tfF)
	norm := NewArith(Add,
		&ConstFloat{Val: p.K1 * (1 - p.B)},
		NewArith(Mul, &ConstFloat{Val: p.K1 * p.B / p.AvgDocLn}, dlF))
	den := NewArith(Add, tfF, norm)
	return NewArith(Mul, idf, NewArith(Div, num, den))
}

// BM25Stored is the *virtual materialization* expression: it computes, at
// query time, exactly the value a materialized (or quantized) score column
// would hold for this posting — the Okapi weight pushed through float32
// storage, or through 8-bit Global-By-Value quantization with the
// collection bounds [Lo, Hi]. Segmented indexes use it for segments whose
// baked score columns predate the current collection statistics: the plan
// shape follows the unmaterialized strategies (tf and doclen are read), but
// the produced scores are bitwise those of a fresh bake, so stale and fresh
// segments merge into one consistent ranking.
type BM25Stored struct {
	TF, DocLen Expr
	Ftd        float64
	Params     primitives.BM25Params
	Quantized  bool
	Lo, Hi     float64 // Global-By-Value bounds (Quantized only)
	out        *vector.Vector
}

// Bind binds the children and checks they are Int64.
func (e *BM25Stored) Bind(s Schema, ctx *ExecContext) error {
	if err := e.TF.Bind(s, ctx); err != nil {
		return err
	}
	if err := e.DocLen.Bind(s, ctx); err != nil {
		return err
	}
	if e.TF.Type() != vector.Int64 || e.DocLen.Type() != vector.Int64 {
		return fmt.Errorf("engine: BM25Stored needs Int64 tf and doclen, got %v, %v", e.TF.Type(), e.DocLen.Type())
	}
	e.out = ctx.vector(vector.Float64, ctx.VectorSize)
	return nil
}

// Type returns Float64.
func (e *BM25Stored) Type() vector.Type { return vector.Float64 }

// Eval applies the materialized- or quantized-score replication kernel.
func (e *BM25Stored) Eval(b *vector.Batch) *vector.Vector {
	tf := e.TF.Eval(b)
	dl := e.DocLen.Eval(b)
	n := b.FullLen()
	sel := b.Sel
	cnt := n
	if sel != nil {
		cnt = b.N
	}
	e.out.SetLen(n)
	if e.Quantized {
		primitives.MapBM25QuantTfLenCol(e.out.F64, tf.I64, dl.I64, e.Ftd, e.Params, e.Lo, e.Hi, sel, cnt)
	} else {
		primitives.MapBM25MatTfLenCol(e.out.F64, tf.I64, dl.I64, e.Ftd, e.Params, sel, cnt)
	}
	return e.out
}

func (e *BM25Stored) String() string {
	if e.Quantized {
		return fmt.Sprintf("bm25q8(%s, %s, ftd=%g, [%g,%g])", e.TF, e.DocLen, e.Ftd, e.Lo, e.Hi)
	}
	return fmt.Sprintf("bm25f32(%s, %s, ftd=%g)", e.TF, e.DocLen, e.Ftd)
}

func (e *BM25Stored) release(ctx *ExecContext) {
	ctx.recycleOut(&e.out)
	releaseExpr(ctx, e.TF)
	releaseExpr(ctx, e.DocLen)
}
