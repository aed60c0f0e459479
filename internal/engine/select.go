package engine

import (
	"fmt"
	"time"

	"repro/internal/vector"
)

// Select filters its input with a predicate, producing selection vectors
// instead of copying survivors (the X100 filtering discipline). The child
// batch passes through with a refined active set.
type Select struct {
	base
	child Operator
	pred  Predicate
	sel   []int32
}

// NewSelect builds a filter node.
func NewSelect(child Operator, pred Predicate) *Select {
	return &Select{child: child, pred: pred}
}

// Open binds the predicate against the child schema.
func (s *Select) Open(ctx *ExecContext) error {
	if err := s.child.Open(ctx); err != nil {
		return err
	}
	s.schema = s.child.Schema()
	if err := s.pred.Bind(s.schema); err != nil {
		return err
	}
	s.ctx = ctx
	s.sel = s.take(vector.Int32, ctx.VectorSize).I32
	return nil
}

// Next pulls child batches until one has survivors (empty batches are
// absorbed so downstream operators always see work).
func (s *Select) Next() (*vector.Batch, error) {
	start := time.Now()
	for {
		b, err := s.child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			s.observe(start, nil)
			return nil, nil
		}
		n := s.pred.Apply(b, s.sel)
		if n == 0 {
			continue
		}
		b.SetSel(s.sel, n)
		s.observe(start, b)
		return b, nil
	}
}

// Close gives the selection buffer back and closes the child.
func (s *Select) Close() error {
	s.release()
	s.sel = nil
	return s.child.Close()
}

// Children returns the input.
func (s *Select) Children() []Operator { return []Operator{s.child} }

// Describe names the operator and predicate.
func (s *Select) Describe() string { return fmt.Sprintf("Select(%s)", s.pred) }

// Projection is one output column of a Project node.
type Projection struct {
	Name string
	Expr Expr
}

// Project computes expressions over its input, emitting a batch whose
// columns are the projection results. Pure column references pass vectors
// through without copying; computed expressions write into operator-owned
// buffers via map primitives. The input's selection vector is preserved.
type Project struct {
	base
	child Operator
	projs []Projection
	batch *vector.Batch
}

// NewProject builds a projection node.
func NewProject(child Operator, projs []Projection) *Project {
	return &Project{child: child, projs: projs}
}

// Open binds all expressions, which take their output vectors from ctx.
func (p *Project) Open(ctx *ExecContext) error {
	if err := p.child.Open(ctx); err != nil {
		return err
	}
	p.ctx = ctx
	in := p.child.Schema()
	p.schema = make(Schema, 0, len(p.projs))
	for _, pr := range p.projs {
		if err := pr.Expr.Bind(in, ctx); err != nil {
			return err
		}
		p.schema = append(p.schema, Col{Name: pr.Name, Type: pr.Expr.Type()})
	}
	p.batch = &vector.Batch{Vecs: make([]*vector.Vector, len(p.projs))}
	return nil
}

// Next evaluates the projections over the next child batch.
func (p *Project) Next() (*vector.Batch, error) {
	defer func(t time.Time) { p.observe(t, p.batch) }(time.Now())
	b, err := p.child.Next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		p.batch = nil
		return nil, nil
	}
	for i, pr := range p.projs {
		p.batch.Vecs[i] = pr.Expr.Eval(b)
	}
	p.batch.Sel = b.Sel
	p.batch.N = b.N
	return p.batch, nil
}

// Close gives the expressions' output vectors back and closes the child.
func (p *Project) Close() error {
	if p.ctx != nil {
		for _, pr := range p.projs {
			releaseExpr(p.ctx, pr.Expr)
		}
	}
	p.batch = nil
	return p.child.Close()
}

// Children returns the input.
func (p *Project) Children() []Operator { return []Operator{p.child} }

// Describe lists the projections.
func (p *Project) Describe() string {
	s := "Project("
	for i, pr := range p.projs {
		if i > 0 {
			s += ", "
		}
		s += pr.Name + "=" + pr.Expr.String()
	}
	return s + ")"
}
