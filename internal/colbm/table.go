package colbm

import (
	"fmt"
	"sort"

	"repro/internal/vector"
)

// Table is a named collection of equally long columns stored on a
// BlockStore and cached through a shared ChunkCache.
type Table struct {
	Name  string
	N     int
	cols  map[string]*Column
	store BlockStore
	cache ChunkCache
}

// Column returns the named column or an error.
func (t *Table) Column(name string) (*Column, error) {
	c, ok := t.cols[name]
	if !ok {
		return nil, fmt.Errorf("colbm: table %q has no column %q", t.Name, name)
	}
	return c, nil
}

// MustColumn is Column for static schemas known to be present.
func (t *Table) MustColumn(name string) *Column {
	c, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// ColumnNames returns the column names in deterministic order.
func (t *Table) ColumnNames() []string {
	names := make([]string, 0, len(t.cols))
	for n := range t.cols {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DiskSize returns the table's total on-disk footprint.
func (t *Table) DiskSize() int {
	var total int
	for _, c := range t.cols {
		total += c.DiskSize()
	}
	return total
}

// Builder produces an immutable Table from column data the caller hands
// in whole (Set*, Append*) or as a function that fills any range of the
// column (Set*Func). Build streams every column to the block store a chunk
// at a time: each chunk is encoded into buffers reused from chunk to chunk
// and appended to the column's ChunkWriter as it is produced, so what a
// build keeps is the chunk metadata, and what it writes is each chunk's
// bytes, once. Index construction is a bulk operation in the paper's setup
// (the TREC collection is indexed once), so a bulk builder is the honest
// interface.
type Builder struct {
	name  string
	store BlockStore
	cache ChunkCache
	specs []ColumnSpec
	cols  map[string]*columnData
}

// columnData is one column's values as the builder holds them: a slice of
// the column's type, or a function producing any range of its n values.
type columnData struct {
	i64 []int64
	f64 []float64
	u8  []uint8
	str []string

	n      int
	fillU8 func(dst []uint8, off int)
}

// NewBuilder starts a table build.
func NewBuilder(name string, store BlockStore, cache ChunkCache, specs []ColumnSpec) *Builder {
	return &Builder{name: name, store: store, cache: cache, specs: specs, cols: map[string]*columnData{}}
}

func (b *Builder) col(name string) *columnData {
	d, ok := b.cols[name]
	if !ok {
		d = new(columnData)
		b.cols[name] = d
	}
	return d
}

// AppendInt64 appends values to an Int64 column.
func (b *Builder) AppendInt64(col string, vals ...int64) {
	d := b.col(col)
	d.i64 = append(d.i64, vals...)
}

// AppendFloat64 appends values to a Float64 column.
func (b *Builder) AppendFloat64(col string, vals ...float64) {
	d := b.col(col)
	d.f64 = append(d.f64, vals...)
}

// AppendUInt8 appends values to a UInt8 column.
func (b *Builder) AppendUInt8(col string, vals ...uint8) {
	d := b.col(col)
	d.u8 = append(d.u8, vals...)
}

// AppendStr appends values to a Str column.
func (b *Builder) AppendStr(col string, vals ...string) {
	d := b.col(col)
	d.str = append(d.str, vals...)
}

// SetInt64 replaces an Int64 column's data wholesale (used when a column is
// computed in one pass, like materialized scores).
func (b *Builder) SetInt64(col string, vals []int64) { b.cols[col] = &columnData{i64: vals} }

// SetFloat64 replaces a Float64 column's data wholesale.
func (b *Builder) SetFloat64(col string, vals []float64) { b.cols[col] = &columnData{f64: vals} }

// SetUInt8 replaces a UInt8 column's data wholesale.
func (b *Builder) SetUInt8(col string, vals []uint8) { b.cols[col] = &columnData{u8: vals} }

// SetUInt8Func makes a UInt8 column of n values that Build produces a
// chunk at a time: fill writes values [off, off+len(dst)) into dst.
func (b *Builder) SetUInt8Func(col string, n int, fill func(dst []uint8, off int)) {
	b.cols[col] = &columnData{n: n, fillU8: fill}
}

// len returns the number of values the column holds under type t.
func (d *columnData) len(t vector.Type) int {
	if d.fillU8 != nil && t == vector.UInt8 {
		return d.n
	}
	switch t {
	case vector.Int64:
		return len(d.i64)
	case vector.Float64:
		return len(d.f64)
	case vector.UInt8:
		return len(d.u8)
	case vector.Str:
		return len(d.str)
	}
	return 0
}

// Build encodes all columns, one after another through one reused
// chunkEncoder, and returns the finished table. Every column must have the
// same length. A failure leaves the failing column's blob unpublished.
func (b *Builder) Build() (*Table, error) {
	n := 0
	for i := range b.specs {
		spec := &b.specs[i]
		if err := spec.check(); err != nil {
			return nil, err
		}
		colN := b.col(spec.Name).len(spec.Type)
		if i == 0 {
			n = colN
		} else if colN != n {
			return nil, fmt.Errorf("colbm: column %q has %d values, table has %d rows", spec.Name, colN, n)
		}
	}
	t := &Table{Name: b.name, N: n, cols: make(map[string]*Column, len(b.specs)), store: b.store, cache: b.cache}
	var enc chunkEncoder
	for i := range b.specs {
		col, err := b.buildColumn(&enc, &b.specs[i], n)
		if err != nil {
			return nil, err
		}
		t.cols[col.Spec.Name] = col
	}
	return t, nil
}

// buildColumn encodes the spec's column chunk by chunk through enc,
// appending every chunk to the column's blob as it is produced.
func (b *Builder) buildColumn(enc *chunkEncoder, spec *ColumnSpec, n int) (*Column, error) {
	chunkLen := spec.chunkLen()
	blobName := b.name + "." + spec.Name
	col := &Column{
		Spec:     *spec,
		N:        n,
		blobName: blobName,
		chunks:   make([]chunkMeta, 0, max(1, (n+chunkLen-1)/chunkLen)),
		checked:  true,
		store:    b.store,
		cache:    b.cache,
	}
	w, err := b.store.Create(blobName)
	if err != nil {
		return nil, err
	}
	data, off := b.cols[spec.Name], 0
	// An empty column still stores one (empty) chunk.
	for start := 0; start < n || start == 0; start += chunkLen {
		end := min(start+chunkLen, n)
		chunk, err := enc.encode(spec, data, start, end)
		if err == nil {
			if werr := w.Append(chunk); werr != nil {
				err = fmt.Errorf("colbm: write %q: %w", blobName, werr)
			}
		}
		if err != nil {
			w.Abort()
			return nil, err
		}
		col.chunks = append(col.chunks, chunkMeta{off: off, size: len(chunk), n: end - start, crc: Checksum(chunk),
			key: ChunkKey(blobName, len(col.chunks))})
		off += len(chunk)
		if n == 0 {
			break
		}
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("colbm: write %q: %w", blobName, err)
	}
	return col, nil
}
