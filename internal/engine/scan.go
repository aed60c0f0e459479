package engine

import (
	"fmt"
	"time"

	"repro/internal/colbm"
	"repro/internal/compress"
	"repro/internal/vector"
)

// Scan reads a contiguous row range of a stored table, one vector at a
// time, through ColumnBM cursors (which decompress on demand into the
// output vectors). A full-table scan is the range [0, N); the inverted-list
// access path of the paper — "the term column replaced by a range index
// onto [docid,tf]" — is a Scan over the term's row range, constructed by
// the IR layer via NewRangeScan.
//
// A scan under a top-k may carry a Bound, with which it skips the strides
// of its range none of whose rows can enter the top-k.
type Scan struct {
	base
	table      *colbm.Table
	cols       []string
	start, end int
	bound      Bound

	cursors []*colbm.Cursor
	batch   *vector.Batch
	pos     int
	vecSize int
}

// BoundStride is the row granularity of a scan bound: stride j of a table
// is its rows [j*BoundStride, (j+1)*BoundStride). It is PFOR-DELTA's entry
// point spacing, so a run of kept strides starts decoding at an entry
// point.
const BoundStride = compress.EntryStride

// Bound is what a scan needs to skip the strides of its range whose rows
// cannot enter the top-k of the TopN it feeds. A row's score there is its
// value in column Col plus what the plan's other inputs add, which is at
// most Rest; Floor is the TopN's published threshold (TopN.Floor). The
// scan skips stride j once Max[j] + Rest <= *Floor.
//
// Skipping on "<=" is exact only where the TopN orders by score
// descending, then by a key on which the rows arrive ascending (a docid
// the scan and the joins above it deliver in order): a row tying the floor
// arrives after every row the TopN holds and loses the tie. A stride's
// rows left out of an outer join still reach the TopN through the other
// inputs, scored lower than they would have been, and lose all the same.
type Bound struct {
	// Col names the column the maxima are of, for Describe.
	Col string
	// Max[j] is the largest value of Col over the scan's rows in table
	// stride start/BoundStride + j: one entry per stride the range
	// touches, indexed by global stride, not by offset into the range.
	Max []float64
	// Rest bounds what the rest of the plan adds to a row's value of Col.
	Rest float64
	// Floor is read before each stride; −∞ keeps every stride.
	Floor *float64
}

// NewRangeScan builds a scan over rows [start, end).
func NewRangeScan(table *colbm.Table, cols []string, start, end int) (*Scan, error) {
	if start < 0 || end < start || end > table.N {
		return nil, fmt.Errorf("engine: scan range [%d,%d) out of table %q of %d rows",
			start, end, table.Name, table.N)
	}
	s := &Scan{table: table, cols: cols, start: start, end: end}
	for _, name := range cols {
		col, err := table.Column(name)
		if err != nil {
			return nil, err
		}
		s.schema = append(s.schema, Col{Name: name, Type: col.Spec.Type})
	}
	return s, nil
}

// Open takes the cursors and the output vectors from the context.
func (s *Scan) Open(ctx *ExecContext) error {
	s.ctx = ctx
	s.vecSize = ctx.VectorSize
	s.pos = s.start
	s.cursors = make([]*colbm.Cursor, len(s.cols))
	vecs := make([]*vector.Vector, len(s.cols))
	for i, name := range s.cols {
		col := s.table.MustColumn(name)
		s.cursors[i] = ctx.cursor(col)
		vecs[i] = s.take(col.Spec.Type, s.vecSize)
	}
	s.batch = &vector.Batch{Vecs: vecs}
	return nil
}

// Next reads the next vector of rows. As a pipeline leaf it polls the
// context's cancellation hook, so every plan above it aborts within one
// vector of a cancel.
func (s *Scan) Next() (*vector.Batch, error) {
	defer func(t time.Time) { s.observe(t, s.batch) }(time.Now())
	if err := s.ctx.Interrupted(); err != nil {
		return nil, err
	}
	n := 0
	for n < s.vecSize {
		from, to := s.nextRun(s.vecSize - n)
		s.pos = from
		if from == to {
			break
		}
		for i, cur := range s.cursors {
			if err := cur.ReadAt(s.batch.Vecs[i], n, from, to-from); err != nil {
				return nil, err
			}
		}
		n += to - from
		s.pos = to
	}
	if n == 0 {
		s.batch = nil
		return nil, nil
	}
	s.batch.Sel = nil
	s.batch.N = n
	return s.batch, nil
}

// nextRun returns the next run of rows to read, [from, to): it starts at
// the first row at or after pos whose stride the bound keeps, spans kept
// strides only and holds at most room rows. from == to means the range is
// done.
func (s *Scan) nextRun(room int) (from, to int) {
	from = s.pos
	if s.bound.Floor == nil {
		return from, min(s.end, from+room)
	}
	floor := *s.bound.Floor
	first := s.start / BoundStride
	keep := func(row int) bool {
		return s.bound.Max[row/BoundStride-first]+s.bound.Rest > floor
	}
	for from < s.end && !keep(from) {
		from = (from/BoundStride + 1) * BoundStride
	}
	from = min(from, s.end)
	to = from
	for to < s.end && to-from < room && keep(to) {
		to = (to/BoundStride + 1) * BoundStride
	}
	return from, min(to, s.end, from+room)
}

// SetBound makes the scan skip the strides b rules out. b.Max must hold
// one maximum for each stride the scan's range touches.
func (s *Scan) SetBound(b Bound) error {
	strides := 0
	if s.end > s.start {
		strides = (s.end-1)/BoundStride - s.start/BoundStride + 1
	}
	if len(b.Max) != strides || b.Floor == nil {
		return fmt.Errorf("engine: bound of %d maxima (floor set: %v) for scan %s, which touches %d strides",
			len(b.Max), b.Floor != nil, s.Describe(), strides)
	}
	s.bound = b
	return nil
}

// Close gives the cursors and vectors back to the context.
func (s *Scan) Close() error {
	if s.ctx != nil {
		s.ctx.cursors = append(s.ctx.cursors, s.cursors...)
		s.release()
	}
	s.cursors = nil
	s.batch = nil
	return nil
}

// Children returns no inputs: Scan is a leaf.
func (s *Scan) Children() []Operator { return nil }

// Describe names the operator, its range and its bound.
func (s *Scan) Describe() string {
	d := fmt.Sprintf("Scan(%s; %v", s.table.Name, s.cols)
	if s.start != 0 || s.end != s.table.N {
		d = fmt.Sprintf("Scan(%s[%d:%d]; %v", s.table.Name, s.start, s.end, s.cols)
	}
	if s.bound.Floor != nil {
		d += fmt.Sprintf("; skip stride if max(%s)+%g <= floor", s.bound.Col, s.bound.Rest)
	}
	return d + ")"
}

// Values is an in-memory source operator: it serves a fixed set of column
// vectors in vector-size slices. Used by tests and by the distributed
// layer to feed received rows back into a local plan.
type Values struct {
	base
	cols    []*vector.Vector
	names   []string
	pos     int
	vecSize int
	batch   *vector.Batch
}

// NewValues wraps fully materialized columns as an operator.
func NewValues(names []string, cols []*vector.Vector) (*Values, error) {
	if len(names) != len(cols) {
		return nil, fmt.Errorf("engine: %d names for %d columns", len(names), len(cols))
	}
	v := &Values{cols: cols, names: names}
	n := -1
	for i, c := range cols {
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return nil, fmt.Errorf("engine: column %q has %d values, want %d", names[i], c.Len(), n)
		}
		v.schema = append(v.schema, Col{Name: names[i], Type: c.Type()})
	}
	return v, nil
}

// Open resets the read position and takes the output vectors.
func (v *Values) Open(ctx *ExecContext) error {
	v.ctx = ctx
	v.vecSize = ctx.VectorSize
	v.pos = 0
	vecs := make([]*vector.Vector, len(v.cols))
	for i, c := range v.cols {
		vecs[i] = v.take(c.Type(), v.vecSize)
	}
	v.batch = &vector.Batch{Vecs: vecs}
	return nil
}

// Next serves the next slice, polling the cancellation hook like every
// pipeline leaf.
func (v *Values) Next() (*vector.Batch, error) {
	defer func(t time.Time) { v.observe(t, v.batch) }(time.Now())
	if err := v.ctx.Interrupted(); err != nil {
		return nil, err
	}
	total := 0
	if len(v.cols) > 0 {
		total = v.cols[0].Len()
	}
	if v.pos >= total {
		v.batch = nil
		return nil, nil
	}
	n := total - v.pos
	if n > v.vecSize {
		n = v.vecSize
	}
	for i, c := range v.cols {
		dst := v.batch.Vecs[i]
		dst.SetLen(n)
		for j := 0; j < n; j++ {
			copyValue(dst, j, c, v.pos+j)
		}
	}
	v.pos += n
	v.batch.Sel = nil
	v.batch.N = n
	return v.batch, nil
}

// Close gives the output vectors back.
func (v *Values) Close() error {
	v.release()
	v.batch = nil
	return nil
}

// Children returns no inputs: Values is a leaf.
func (v *Values) Children() []Operator { return nil }

// Describe names the operator.
func (v *Values) Describe() string {
	n := 0
	if len(v.cols) > 0 {
		n = v.cols[0].Len()
	}
	return fmt.Sprintf("Values(%d rows; %v)", n, v.names)
}
