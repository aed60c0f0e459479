package colbm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/compress"
	"repro/internal/vector"
)

// Encoding selects how a column's chunks are stored on disk.
type Encoding uint8

// Column encodings. The compressed encodings apply to Int64 columns;
// Float64 columns are stored as raw 32-bit floats (the representation whose
// I/O cost the BM25TCM experiment measures), UInt8 and Str columns as raw
// bytes.
const (
	EncNone Encoding = iota
	EncPFOR
	EncPFORDelta
	EncPDict
	// EncFixed32 stores Int64 values as raw 32-bit integers — the
	// uncompressed inverted-list baseline of the paper ("from 32 bits" in
	// §3.3). Values must fit int32.
	EncFixed32
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case EncNone:
		return "none"
	case EncPFOR:
		return "PFOR"
	case EncPFORDelta:
		return "PFOR-DELTA"
	case EncPDict:
		return "PDICT"
	case EncFixed32:
		return "fixed32"
	default:
		return fmt.Sprintf("enc(%d)", uint8(e))
	}
}

// DefaultChunkLen is the number of values per storage chunk of a column
// whose spec leaves ChunkLen at 0. 128Ki values at ~1-2 bytes per
// compressed value yields chunks in the hundreds of kilobytes to megabyte
// range, matching the paper's "disk accesses in blocks of several
// megabytes" granularity for a scan of the whole table. A column read a
// range at a time (ir's posting columns, one posting list per scan) records
// a smaller length in its spec. A persisted spec that records 0 was cut at
// this length, so it must not change: OpenTable refuses chunks its spec
// does not describe.
const DefaultChunkLen = 128 * 1024

// ColumnSpec describes one column of a stored table.
type ColumnSpec struct {
	Name string
	Type vector.Type
	Enc  Encoding
	// Bits fixes the code width for compressed encodings; 0 selects the
	// width automatically per chunk. The paper's IR runs use fixed 8-bit
	// codewords for both docid (PFOR-DELTA) and tf (PFOR).
	Bits uint
	// Layout selects the decoder discipline; Patched is the default and
	// Naive exists for the Figure 3 baseline.
	Layout compress.Layout
	// ChunkLen overrides DefaultChunkLen when positive. It must be a
	// multiple of compress.EntryStride.
	ChunkLen int
}

// rawWidth returns the bytes per value of the column's fixed-width raw
// layouts, and 0 for block-encoded and string columns.
func (s *ColumnSpec) rawWidth() int {
	switch s.Type {
	case vector.Int64:
		switch s.Enc {
		case EncNone:
			return 8
		case EncFixed32:
			return 4
		}
	case vector.Float64:
		return 4
	case vector.UInt8:
		return 1
	}
	return 0
}

func (s *ColumnSpec) chunkLen() int {
	if s.ChunkLen > 0 {
		return s.ChunkLen
	}
	return DefaultChunkLen
}

// check refuses a spec no column can be stored under: a type colbm does not
// store, or a chunk length that is not a whole number of entry strides.
func (s *ColumnSpec) check() error {
	switch s.Type {
	case vector.Int64, vector.Float64, vector.UInt8, vector.Str:
	default:
		return fmt.Errorf("colbm: column %q has unsupported type %v", s.Name, s.Type)
	}
	if n := s.chunkLen(); n%compress.EntryStride != 0 {
		return fmt.Errorf("colbm: column %q chunk length %d not a multiple of %d", s.Name, n, compress.EntryStride)
	}
	return nil
}

type chunkMeta struct {
	off  int    // byte offset in the column blob
	size int    // byte size
	n    int    // number of values
	key  string // ChunkKey(blob, index), formatted once
}

// Column is the immutable on-disk representation of one column: a named
// blob of concatenated chunks plus in-memory chunk metadata. Reads go
// through the chunk cache, which fetches whole chunks from the block store
// on a miss.
type Column struct {
	Spec     ColumnSpec
	N        int
	blobName string
	chunks   []chunkMeta
	store    BlockStore
	cache    ChunkCache
}

// BlobName returns the name of the column's blob in the block store — the
// handle a caller needs to read the column's chunks directly from the same
// store the cursors demand-page from.
func (c *Column) BlobName() string { return c.blobName }

// NumChunks returns the number of storage chunks the column is split into.
func (c *Column) NumChunks() int { return len(c.chunks) }

// Chunk returns the extent metadata of chunk ci: its byte range inside the
// blob and the number of values it encodes.
func (c *Column) Chunk(ci int) ChunkInfo {
	m := c.chunks[ci]
	return ChunkInfo{Off: m.off, Size: m.size, N: m.n}
}

// DiskSize returns the column's on-disk footprint in bytes.
func (c *Column) DiskSize() int {
	var total int
	for _, m := range c.chunks {
		total += m.size
	}
	return total
}

// BitsPerValue returns the average stored bits per value, the
// compression-ratio metric of the paper's §3.3.
func (c *Column) BitsPerValue() float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.DiskSize()*8) / float64(c.N)
}

// encodeChunk serializes n values of the column type.
func encodeChunk(spec *ColumnSpec, i64 []int64, f64 []float64, u8 []uint8, str []string) ([]byte, error) {
	switch spec.Type {
	case vector.Int64:
		switch spec.Enc {
		case EncNone:
			buf := make([]byte, 8*len(i64))
			for i, v := range i64 {
				binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
			}
			return buf, nil
		case EncFixed32:
			buf := make([]byte, 4*len(i64))
			for i, v := range i64 {
				if v < -1<<31 || v >= 1<<31 {
					return nil, fmt.Errorf("colbm: column %q value %d exceeds fixed32 range", spec.Name, v)
				}
				binary.LittleEndian.PutUint32(buf[i*4:], uint32(int32(v)))
			}
			return buf, nil
		case EncPFOR:
			bl, err := encodePFORChunk(i64, spec, false)
			if err != nil {
				return nil, err
			}
			return bl.Marshal(), nil
		case EncPFORDelta:
			bl, err := encodePFORChunk(i64, spec, true)
			if err != nil {
				return nil, err
			}
			return bl.Marshal(), nil
		case EncPDict:
			var bl *compress.Block
			var err error
			if spec.Bits > 0 {
				bl, err = compress.EncodePDict(i64, spec.Bits, spec.Layout)
			} else {
				bl, err = compress.EncodePDictAuto(i64, spec.Layout)
			}
			if err != nil {
				return nil, err
			}
			return bl.Marshal(), nil
		}
	case vector.Float64:
		if spec.Enc != EncNone {
			return nil, fmt.Errorf("colbm: float column %q cannot use encoding %v", spec.Name, spec.Enc)
		}
		buf := make([]byte, 4*len(f64))
		for i, v := range f64 {
			binary.LittleEndian.PutUint32(buf[i*4:], floatBits32(v))
		}
		return buf, nil
	case vector.UInt8:
		if spec.Enc != EncNone {
			return nil, fmt.Errorf("colbm: uint8 column %q cannot use encoding %v", spec.Name, spec.Enc)
		}
		return append([]byte(nil), u8...), nil
	case vector.Str:
		if spec.Enc != EncNone {
			return nil, fmt.Errorf("colbm: string column %q cannot use encoding %v", spec.Name, spec.Enc)
		}
		total := 0
		for _, s := range str {
			total += len(s)
		}
		buf := make([]byte, 4*len(str)+total)
		off := 4 * len(str)
		for i, s := range str {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(len(s)))
			copy(buf[off:], s)
			off += len(s)
		}
		return buf, nil
	}
	return nil, fmt.Errorf("colbm: unsupported column type %v", spec.Type)
}

func encodePFORChunk(vals []int64, spec *ColumnSpec, delta bool) (*compress.Block, error) {
	if spec.Bits > 0 {
		base := int64(0)
		if !delta {
			// With a fixed width, anchor the frame at the chunk minimum so
			// small positive values (term frequencies) code directly.
			base = minInt64(vals)
		}
		if delta {
			return compress.EncodePFORDelta(vals, spec.Bits, 0, spec.Layout)
		}
		return compress.EncodePFOR(vals, spec.Bits, base, spec.Layout)
	}
	if delta {
		return compress.EncodePFORDeltaAuto(vals, spec.Layout)
	}
	return compress.EncodePFORAuto(vals, spec.Layout)
}

func minInt64(vals []int64) int64 {
	if len(vals) == 0 {
		return 0
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func floatBits32(v float64) uint32 {
	return float32bits(float32(v))
}
