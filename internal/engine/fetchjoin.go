package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/colbm"
	"repro/internal/compress"
	"repro/internal/vector"
)

// ErrFetchOutOfRange is returned, wrapped, by FetchJoin for a key whose row
// lies outside the fetched table.
var ErrFetchOutOfRange = errors.New("engine: fetch join key outside the table")

// stride is the decode granule of a fetch: compress.EntryStride rows, the
// smallest range a block decoder starts at.
const stride = compress.EntryStride

// FetchJoin is X100's Fetch1Join: it joins every input tuple with the row
// of a stored table its key addresses positionally, row = key - rowBase, and
// appends the named columns of that row to the tuple. It is the join of a
// stream of candidate docids with the document table D, which is dense on
// docid, so a query reads D in O(candidates) instead of scanning it.
//
// Per input batch the keys are turned into rows and bounds-checked against
// [0, table.N) first — an out-of-range key is ErrFetchOutOfRange, never a
// wrong or out-of-bounds read — and then fetched in runs of rows that share
// one stride: the run's stride is decoded once per column, through the
// ordinary cursor and chunk cache, into a stride window, and stays there for
// the following runs until a row outside it is asked for. Sorted keys, the
// docid order of every inverted-list plan, therefore decode each stride they
// touch once. The child's vectors and selection vector pass through
// uncopied; the fetched vectors follow them, written at the child's active
// positions.
type FetchJoin struct {
	base
	child   Operator
	key     string
	table   *colbm.Table
	cols    []string
	prefix  string
	rowBase int64

	keyIdx   int
	nChild   int
	vecSize  int
	fetch    []fetchCol
	winStart int64   // first row of the windows' stride; -1 before the first
	rows     []int64 // row of each active tuple of the current batch
	out      vector.Batch
}

// fetchCol is one fetched column's working memory: its cursor, the stride
// window it decodes into, and the output vector it is gathered into.
type fetchCol struct {
	cur      *colbm.Cursor
	win, out *vector.Vector
}

// NewFetchJoin builds a positional fetch of the named columns of table for
// the Int64 key column of child, row = key - rowBase; the fetched columns
// are named prefix + column.
func NewFetchJoin(child Operator, key string, table *colbm.Table, cols []string, prefix string, rowBase int64) (*FetchJoin, error) {
	for _, name := range cols {
		if _, err := table.Column(name); err != nil {
			return nil, err
		}
	}
	return &FetchJoin{child: child, key: key, table: table, cols: cols, prefix: prefix, rowBase: rowBase}, nil
}

// Open opens the child, builds the output schema, and takes the cursors,
// stride windows, row buffer and fetched vectors from the context.
func (f *FetchJoin) Open(ctx *ExecContext) error {
	if err := f.child.Open(ctx); err != nil {
		return err
	}
	cs := f.child.Schema()
	f.keyIdx = cs.Index(f.key)
	if f.keyIdx < 0 {
		return fmt.Errorf("engine: fetch join key %q not found", f.key)
	}
	if cs[f.keyIdx].Type != vector.Int64 {
		return fmt.Errorf("engine: fetch join key %q must be Int64", f.key)
	}
	f.nChild = len(cs)
	f.schema = append(make(Schema, 0, len(cs)+len(f.cols)), cs...)

	f.ctx, f.vecSize = ctx, ctx.VectorSize
	f.fetch = make([]fetchCol, len(f.cols))
	f.out.Vecs = make([]*vector.Vector, len(cs), len(cs)+len(f.cols))
	for i, name := range f.cols {
		col := f.table.MustColumn(name)
		f.schema = append(f.schema, Col{Name: f.prefix + name, Type: col.Spec.Type})
		fc := &f.fetch[i]
		fc.cur, fc.win, fc.out = ctx.cursor(col), f.take(col.Spec.Type, stride), f.take(col.Spec.Type, f.vecSize)
		f.out.Vecs = append(f.out.Vecs, fc.out)
	}
	f.rows = f.take(vector.Int64, f.vecSize).I64
	f.winStart = -1
	return nil
}

// Next fetches the table columns for the next child batch.
func (f *FetchJoin) Next() (*vector.Batch, error) {
	start := time.Now()
	b, err := f.child.Next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		f.observe(start, nil)
		return nil, nil
	}
	full := b.FullLen()
	if full > f.vecSize {
		return nil, fmt.Errorf("engine: fetch join input of %d rows exceeds the vector size %d", full, f.vecSize)
	}
	if err := f.locate(b); err != nil {
		return nil, err
	}
	rows := f.rows[:b.N]
	for i := 0; i < len(rows); {
		s := rows[i] &^ (stride - 1)
		j := i + 1
		for j < len(rows) && rows[j]&^(stride-1) == s {
			j++
		}
		if s != f.winStart {
			if err := f.load(s); err != nil {
				return nil, err
			}
		}
		for _, fc := range f.fetch {
			fetchRun(fc.out, fc.win, rows[i:j], s, b.Sel, i)
		}
		i = j
	}
	copy(f.out.Vecs, b.Vecs[:f.nChild])
	for _, fc := range f.fetch {
		fc.out.SetLen(full)
	}
	f.out.Sel, f.out.N = b.Sel, b.N
	f.observe(start, &f.out)
	return &f.out, nil
}

// locate writes the row of every active tuple of b to f.rows, then checks
// them all against the table in one pass.
func (f *FetchJoin) locate(b *vector.Batch) error {
	keys, rows := b.Vecs[f.keyIdx].I64, f.rows[:b.N]
	if b.Sel == nil {
		for i := range rows {
			rows[i] = keys[i] - f.rowBase
		}
	} else {
		for i, p := range b.Sel[:b.N] {
			rows[i] = keys[p] - f.rowBase
		}
	}
	for _, r := range rows {
		// One unsigned compare catches negative rows too.
		if uint64(r) >= uint64(f.table.N) {
			return fmt.Errorf("%w: key %d is row %d of table %q, which has rows [0,%d)",
				ErrFetchOutOfRange, r+f.rowBase, r, f.table.Name, f.table.N)
		}
	}
	return nil
}

// load decodes the stride starting at row s of every fetched column into
// its window.
func (f *FetchJoin) load(s int64) error {
	n := min(stride, f.table.N-int(s)) // the table's last stride may be short
	for _, fc := range f.fetch {
		if err := fc.cur.Read(fc.win, int(s), n); err != nil {
			return err
		}
	}
	f.winStart = s
	return nil
}

// fetchRun writes, for a run of rows inside the stride starting at row s,
// the window's value of each row to the run's output positions: at+k for
// the k-th row without a selection vector, sel[at+k] with one. The cases are
// the types a stored column can have.
func fetchRun(dst, win *vector.Vector, rows []int64, s int64, sel []int32, at int) {
	if sel != nil {
		sel = sel[at : at+len(rows)]
	}
	switch dst.Type() {
	case vector.Int64:
		fetchValues(dst.I64, win.I64, rows, s, sel, at)
	case vector.Float64:
		fetchValues(dst.F64, win.F64, rows, s, sel, at)
	case vector.UInt8:
		fetchValues(dst.U8, win.U8, rows, s, sel, at)
	case vector.Str:
		fetchValues(dst.S, win.S, rows, s, sel, at)
	}
}

func fetchValues[T any](dst, win []T, rows []int64, s int64, sel []int32, at int) {
	if sel == nil {
		dst = dst[at : at+len(rows)]
		for k, r := range rows {
			dst[k] = win[r-s]
		}
		return
	}
	for k, r := range rows {
		dst[sel[k]] = win[r-s]
	}
}

// Close gives the cursors and vectors back to the context and closes the
// child.
func (f *FetchJoin) Close() error {
	if f.ctx != nil {
		for _, fc := range f.fetch {
			f.ctx.cursors = append(f.ctx.cursors, fc.cur)
		}
		f.release()
	}
	f.fetch, f.rows, f.out = nil, nil, vector.Batch{}
	return f.child.Close()
}

// Children returns the input.
func (f *FetchJoin) Children() []Operator { return []Operator{f.child} }

// Describe names the table, the row mapping and the fetched columns, as
// they appear in the output.
func (f *FetchJoin) Describe() string {
	s := fmt.Sprintf("FetchJoin(%s[%s - %d];", f.table.Name, f.key, f.rowBase)
	for _, c := range f.cols {
		s += " " + f.prefix + c
	}
	return s + ")"
}
