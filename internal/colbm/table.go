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

// Builder accumulates column data in memory and produces an immutable
// Table, chunk-encoding and writing every column to the block store.
// Index construction is a bulk operation in the paper's setup (the TREC
// collection is indexed once), so a bulk builder is the honest interface.
type Builder struct {
	name  string
	store BlockStore
	cache ChunkCache
	specs []ColumnSpec

	i64 map[string][]int64
	f64 map[string][]float64
	u8  map[string][]uint8
	str map[string][]string
}

// NewBuilder starts a table build.
func NewBuilder(name string, store BlockStore, cache ChunkCache, specs []ColumnSpec) *Builder {
	b := &Builder{
		name: name, store: store, cache: cache, specs: specs,
		i64: map[string][]int64{},
		f64: map[string][]float64{},
		u8:  map[string][]uint8{},
		str: map[string][]string{},
	}
	return b
}

// AppendInt64 appends values to an Int64 column.
func (b *Builder) AppendInt64(col string, vals ...int64) {
	b.i64[col] = append(b.i64[col], vals...)
}

// AppendFloat64 appends values to a Float64 column.
func (b *Builder) AppendFloat64(col string, vals ...float64) {
	b.f64[col] = append(b.f64[col], vals...)
}

// AppendUInt8 appends values to a UInt8 column.
func (b *Builder) AppendUInt8(col string, vals ...uint8) {
	b.u8[col] = append(b.u8[col], vals...)
}

// AppendStr appends values to a Str column.
func (b *Builder) AppendStr(col string, vals ...string) {
	b.str[col] = append(b.str[col], vals...)
}

// SetInt64 replaces an Int64 column's data wholesale (used when a column is
// computed in one pass, like materialized scores).
func (b *Builder) SetInt64(col string, vals []int64) { b.i64[col] = vals }

// SetFloat64 replaces a Float64 column's data wholesale.
func (b *Builder) SetFloat64(col string, vals []float64) { b.f64[col] = vals }

// SetUInt8 replaces a UInt8 column's data wholesale.
func (b *Builder) SetUInt8(col string, vals []uint8) { b.u8[col] = vals }

// Build encodes all columns and returns the finished table. Every column
// must have the same length.
func (b *Builder) Build() (*Table, error) {
	t := &Table{Name: b.name, cols: map[string]*Column{}, store: b.store, cache: b.cache}
	n := -1
	for i := range b.specs {
		spec := b.specs[i]
		if err := spec.check(); err != nil {
			return nil, err
		}
		var colN int
		switch spec.Type {
		case vector.Int64:
			colN = len(b.i64[spec.Name])
		case vector.Float64:
			colN = len(b.f64[spec.Name])
		case vector.UInt8:
			colN = len(b.u8[spec.Name])
		case vector.Str:
			colN = len(b.str[spec.Name])
		}
		if n == -1 {
			n = colN
		} else if colN != n {
			return nil, fmt.Errorf("colbm: column %q has %d values, table has %d rows", spec.Name, colN, n)
		}
		col, err := b.buildColumn(&spec, colN)
		if err != nil {
			return nil, err
		}
		t.cols[spec.Name] = col
	}
	if n == -1 {
		n = 0
	}
	t.N = n
	return t, nil
}

func (b *Builder) buildColumn(spec *ColumnSpec, n int) (*Column, error) {
	chunkLen := spec.chunkLen()
	blobName := b.name + "." + spec.Name
	col := &Column{
		Spec:     *spec,
		N:        n,
		blobName: blobName,
		store:    b.store,
		cache:    b.cache,
	}
	var blob []byte
	for start := 0; start < n || start == 0 && n == 0; start += chunkLen {
		end := start + chunkLen
		if end > n {
			end = n
		}
		var chunk []byte
		var err error
		switch spec.Type {
		case vector.Int64:
			chunk, err = encodeChunk(spec, b.i64[spec.Name][start:end], nil, nil, nil)
		case vector.Float64:
			chunk, err = encodeChunk(spec, nil, b.f64[spec.Name][start:end], nil, nil)
		case vector.UInt8:
			chunk, err = encodeChunk(spec, nil, nil, b.u8[spec.Name][start:end], nil)
		case vector.Str:
			chunk, err = encodeChunk(spec, nil, nil, nil, b.str[spec.Name][start:end])
		}
		if err != nil {
			return nil, err
		}
		col.chunks = append(col.chunks, chunkMeta{off: len(blob), size: len(chunk), n: end - start, key: ChunkKey(blobName, len(col.chunks))})
		blob = append(blob, chunk...)
		if n == 0 {
			break
		}
	}
	if err := b.store.Write(blobName, blob); err != nil {
		return nil, err
	}
	return col, nil
}
