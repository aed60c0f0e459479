package engine

import (
	"fmt"
	"time"

	"repro/internal/vector"
)

// Limit passes through the first N tuples and stops pulling from its child
// afterwards — the early-exit operator unranked boolean plans end with
// (first-k-by-docid semantics). Stopping the pull is the point: a
// Limit(20) over a merge-join of million-entry posting lists touches only
// the prefix needed to produce 20 matches.
type Limit struct {
	base
	child     Operator
	n         int
	remaining int
	done      bool
	sel       []int32
}

// NewLimit builds a limit node.
func NewLimit(child Operator, n int) *Limit {
	return &Limit{child: child, n: n}
}

// Open opens the child and resets the countdown.
func (l *Limit) Open(ctx *ExecContext) error {
	if l.n < 0 {
		return fmt.Errorf("engine: Limit with n=%d", l.n)
	}
	if err := l.child.Open(ctx); err != nil {
		return err
	}
	l.schema = l.child.Schema()
	l.remaining = l.n
	l.done = false
	l.ctx = ctx
	l.sel = l.take(vector.Int32, ctx.VectorSize).I32
	return nil
}

// Next forwards batches, truncating the one that crosses the limit.
func (l *Limit) Next() (*vector.Batch, error) {
	start := time.Now()
	if l.done || l.remaining == 0 {
		l.observe(start, nil)
		return nil, nil
	}
	b, err := l.child.Next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		l.done = true
		l.observe(start, nil)
		return nil, nil
	}
	if b.N > l.remaining {
		// Truncate: restrict the active set to the first `remaining`
		// tuples. With an existing selection that is its prefix; without,
		// a fresh prefix selection.
		if b.Sel != nil {
			b.N = l.remaining
		} else {
			sel := l.sel[:l.remaining]
			for i := range sel {
				sel[i] = int32(i)
			}
			b.SetSel(sel, l.remaining)
		}
	}
	l.remaining -= b.N
	l.observe(start, b)
	return b, nil
}

// Close gives the selection buffer back and closes the child.
func (l *Limit) Close() error {
	l.release()
	l.sel = nil
	return l.child.Close()
}

// Children returns the input.
func (l *Limit) Children() []Operator { return []Operator{l.child} }

// Describe names the operator.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit(%d)", l.n) }
