package colbm

import (
	"fmt"
	"math"
)

// ChunkInfo is the persistable form of one chunk's metadata: its byte
// extent inside the column blob, the number of values it encodes, and the
// CRC32C of its bytes (Checksum), which a table stored without checksums
// leaves 0.
type ChunkInfo struct {
	Off  int    `json:"off"`
	Size int    `json:"size"`
	N    int    `json:"n"`
	CRC  uint32 `json:"crc"`
}

// StoredColumn is the persistable description of one column: everything
// needed to reattach cursors to the column's blob without reading it.
type StoredColumn struct {
	Spec   ColumnSpec  `json:"spec"`
	N      int         `json:"n"`
	Blob   string      `json:"blob"`
	Chunks []ChunkInfo `json:"chunks"`
}

// DiskSize returns the column's on-disk footprint in bytes (the sum of its
// chunk extents; chunks are laid out contiguously from offset 0).
func (sc *StoredColumn) DiskSize() int {
	var total int
	for _, ch := range sc.Chunks {
		total += ch.Size
	}
	return total
}

// StoredTable is the persistable description of a table, one entry per
// column in deterministic (name) order. Checksums reports whether every
// chunk's CRC is recorded, and so verified on every read of a table
// OpenTable reopens; it is not encoded, because what records it is the
// format of whatever persists the description (every table a Builder
// writes has them).
type StoredTable struct {
	Name      string         `json:"name"`
	N         int            `json:"n"`
	Columns   []StoredColumn `json:"columns"`
	Checksums bool           `json:"-"`
}

// Stored returns the table's persistable metadata: the input half of the
// on-disk index format (the storage package's segment writer records it in
// each segment's manifest, and storage.OpenSegmented feeds it back through
// OpenTable when it opens the segment).
func (t *Table) Stored() StoredTable {
	st := StoredTable{Name: t.Name, N: t.N, Checksums: true}
	for _, name := range t.ColumnNames() {
		c := t.cols[name]
		sc := StoredColumn{Spec: c.Spec, N: c.N, Blob: c.blobName}
		for _, m := range c.chunks {
			sc.Chunks = append(sc.Chunks, ChunkInfo{Off: m.off, Size: m.size, N: m.n, CRC: m.crc})
		}
		st.Columns = append(st.Columns, sc)
		st.Checksums = st.Checksums && c.checked
	}
	return st
}

// OpenTable reassembles a table from persisted metadata over a block store
// and chunk cache. No column data is read here: chunks load lazily through
// cursors (and therefore through the cache) on first access. A cursor finds
// row p in chunk p / chunkLen, so the metadata must lay the chunks out as
// the Builder does: every chunk but the last holds exactly the spec's chunk
// length of values, the last holds 1 to that many, and an empty column has
// one empty chunk. Anything else is an error naming the column. With
// st.Checksums set, every chunk read verifies its recorded CRC32C.
func OpenTable(st StoredTable, store BlockStore, cache ChunkCache) (*Table, error) {
	if store == nil || cache == nil {
		return nil, fmt.Errorf("colbm: OpenTable(%q) needs a store and a cache", st.Name)
	}
	t := &Table{Name: st.Name, N: st.N, cols: map[string]*Column{}, store: store, cache: cache}
	blobs := map[string]string{}
	for _, sc := range st.Columns {
		if sc.N != st.N {
			return nil, fmt.Errorf("colbm: stored column %q has %d values, table %q has %d rows",
				sc.Spec.Name, sc.N, st.Name, st.N)
		}
		if err := sc.Spec.check(); err != nil {
			return nil, err
		}
		chunkLen := sc.Spec.chunkLen()
		chunks := sc.N / chunkLen
		if sc.N%chunkLen != 0 || sc.N == 0 {
			chunks++
		}
		if sc.N < 0 || len(sc.Chunks) != chunks {
			return nil, fmt.Errorf("colbm: stored column %q has %d chunks for %d values of %d per chunk",
				sc.Spec.Name, len(sc.Chunks), sc.N, chunkLen)
		}
		col := &Column{Spec: sc.Spec, N: sc.N, blobName: sc.Blob, checked: st.Checksums, store: store, cache: cache}
		off := 0
		for i, ch := range sc.Chunks {
			if ch.Off != off || ch.Size < 0 || ch.Size > math.MaxInt-off {
				return nil, fmt.Errorf("colbm: stored column %q has a non-contiguous chunk layout at offset %d",
					sc.Spec.Name, ch.Off)
			}
			if want := min(chunkLen, sc.N-i*chunkLen); ch.N != want {
				return nil, fmt.Errorf("colbm: stored column %q chunk %d holds %d values, want %d of %d per chunk",
					sc.Spec.Name, i, ch.N, want, chunkLen)
			}
			col.chunks = append(col.chunks, chunkMeta{off: ch.Off, size: ch.Size, n: ch.N, crc: ch.CRC,
				key: ChunkKey(sc.Blob, len(col.chunks))})
			off += ch.Size
		}
		if _, dup := t.cols[sc.Spec.Name]; dup {
			return nil, fmt.Errorf("colbm: stored table %q has duplicate column %q", st.Name, sc.Spec.Name)
		}
		// Cache keys derive from the blob, so two columns over one blob would
		// each hit chunks parsed for the other's type.
		if other, dup := blobs[sc.Blob]; dup {
			return nil, fmt.Errorf("colbm: stored column %q reads the blob %q of column %q", sc.Spec.Name, sc.Blob, other)
		}
		blobs[sc.Blob] = sc.Spec.Name
		t.cols[sc.Spec.Name] = col
	}
	return t, nil
}
