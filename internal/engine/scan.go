package engine

import (
	"fmt"
	"time"

	"repro/internal/colbm"
	"repro/internal/vector"
)

// Scan reads a contiguous row range of a stored table, one vector at a
// time, through ColumnBM cursors (which decompress on demand into the
// output vectors). A full-table scan is the range [0, N); the inverted-list
// access path of the paper — "the term column replaced by a range index
// onto [docid,tf]" — is a Scan over the term's row range, constructed by
// the IR layer via NewRangeScan.
type Scan struct {
	base
	table      *colbm.Table
	cols       []string
	start, end int

	cursors []*colbm.Cursor
	batch   *vector.Batch
	pos     int
	vecSize int
}

// NewScan builds a full-table scan over the named columns.
func NewScan(table *colbm.Table, cols []string) (*Scan, error) {
	return NewRangeScan(table, cols, 0, table.N)
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
	if s.pos >= s.end {
		s.batch = nil
		return nil, nil
	}
	n := s.end - s.pos
	if n > s.vecSize {
		n = s.vecSize
	}
	for i, cur := range s.cursors {
		if err := cur.Read(s.batch.Vecs[i], s.pos, n); err != nil {
			return nil, err
		}
	}
	s.pos += n
	s.batch.Sel = nil
	s.batch.N = n
	return s.batch, nil
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

// Describe names the operator and its range.
func (s *Scan) Describe() string {
	if s.start == 0 && s.end == s.table.N {
		return fmt.Sprintf("Scan(%s; %v)", s.table.Name, s.cols)
	}
	return fmt.Sprintf("Scan(%s[%d:%d]; %v)", s.table.Name, s.start, s.end, s.cols)
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
