package engine

import (
	"fmt"

	"repro/internal/primitives"
	"repro/internal/vector"
)

// Predicate is a vectorized filter: Apply refines a batch's active set and
// writes the surviving positions into res (a strictly ascending selection
// vector), returning the survivor count.
type Predicate interface {
	Bind(s Schema) error
	Apply(b *vector.Batch, res []int32) int
	String() string
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	LT CmpOp = iota
	LE
	GT
	GE
	EQ
	NE
)

func (op CmpOp) String() string {
	return [...]string{"<", "<=", ">", ">=", "=", "<>"}[op]
}

// CmpIntColVal compares an Int64 column with a constant.
type CmpIntColVal struct {
	Col string
	Op  CmpOp
	Val int64
	idx int
}

// Bind resolves the column.
func (p *CmpIntColVal) Bind(s Schema) error {
	p.idx = s.Index(p.Col)
	if p.idx < 0 {
		return fmt.Errorf("engine: unknown column %q", p.Col)
	}
	if s[p.idx].Type != vector.Int64 {
		return fmt.Errorf("engine: column %q is %v, want Int64", p.Col, s[p.idx].Type)
	}
	return nil
}

// Apply dispatches to the matching select primitive.
func (p *CmpIntColVal) Apply(b *vector.Batch, res []int32) int {
	col := b.Vecs[p.idx].I64
	sel, n := b.Sel, b.N
	switch p.Op {
	case LT:
		return primitives.SelectLTInt64ColVal(res, col, p.Val, sel, n)
	case LE:
		return primitives.SelectLEInt64ColVal(res, col, p.Val, sel, n)
	case GT:
		return primitives.SelectGTInt64ColVal(res, col, p.Val, sel, n)
	case GE:
		return primitives.SelectGEInt64ColVal(res, col, p.Val, sel, n)
	case EQ:
		return primitives.SelectEQInt64ColVal(res, col, p.Val, sel, n)
	default:
		return primitives.SelectNEInt64ColVal(res, col, p.Val, sel, n)
	}
}

func (p *CmpIntColVal) String() string {
	return fmt.Sprintf("%s %s %d", p.Col, p.Op, p.Val)
}
