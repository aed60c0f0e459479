package colbm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"

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
	crc  uint32 // CRC32C of the chunk's bytes (Checksum)
	key  string // ChunkKey(blob, index), formatted once
}

// castagnoli is the CRC32C polynomial table: the hardware-accelerated CRC.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of a chunk's bytes, the checksum every chunk
// a Builder writes records in its metadata.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ErrChunkChecksum is wrapped by the error of a chunk read whose bytes do
// not match the CRC32C recorded for the chunk when it was written.
var ErrChunkChecksum = errors.New("colbm: chunk checksum mismatch")

// checksumFailures counts the chunk reads that failed their CRC32C.
var checksumFailures atomic.Int64

// ChecksumFailures returns how many chunk reads in this process failed
// their CRC32C (ErrChunkChecksum).
func ChecksumFailures() int64 { return checksumFailures.Load() }

// Column is the immutable on-disk representation of one column: a named
// blob of concatenated chunks plus in-memory chunk metadata. Reads go
// through the chunk cache, which fetches whole chunks from the block store
// on a miss. A checked column verifies each chunk's CRC32C as it enters
// the cache (ParseChunk): every column a Builder writes is checked, and an
// opened one is when its stored table records checksums.
type Column struct {
	Spec     ColumnSpec
	N        int
	blobName string
	chunks   []chunkMeta
	checked  bool
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
	return ChunkInfo{Off: m.off, Size: m.size, N: m.n, CRC: m.crc}
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

// chunkEncoder encodes a column's chunks into buffers it reuses from chunk
// to chunk (and from column to column): the block encoder's working
// buffers and the encoded bytes. One encoder serves one goroutine.
type chunkEncoder struct {
	enc compress.Encoder
	dst []byte
}

// encode serializes values [start, end) of the column; the returned bytes
// are valid until the next call.
func (e *chunkEncoder) encode(spec *ColumnSpec, d *columnData, start, end int) ([]byte, error) {
	n := end - start
	var err error
	switch spec.Type {
	case vector.Int64:
		e.dst, err = e.encodeInt64(spec, d.i64[start:end])
		return e.dst, err
	case vector.Float64:
		if spec.Enc != EncNone {
			return nil, fmt.Errorf("colbm: float column %q cannot use encoding %v", spec.Name, spec.Enc)
		}
		buf := grow(e.dst, 4*n)
		for i, v := range d.f64[start:end] {
			binary.LittleEndian.PutUint32(buf[i*4:], floatBits32(v))
		}
		e.dst = buf
		return buf, nil
	case vector.UInt8:
		if spec.Enc != EncNone {
			return nil, fmt.Errorf("colbm: uint8 column %q cannot use encoding %v", spec.Name, spec.Enc)
		}
		if d.fillU8 == nil {
			e.dst = append(e.dst[:0], d.u8[start:end]...)
			return e.dst, nil
		}
		e.dst = grow(e.dst, n)
		d.fillU8(e.dst, start)
		return e.dst, nil
	case vector.Str:
		if spec.Enc != EncNone {
			return nil, fmt.Errorf("colbm: string column %q cannot use encoding %v", spec.Name, spec.Enc)
		}
		str := d.str[start:end]
		total := 0
		for _, s := range str {
			total += len(s)
		}
		buf := grow(e.dst, 4*len(str)+total)
		off := 4 * len(str)
		for i, s := range str {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(len(s)))
			copy(buf[off:], s)
			off += len(s)
		}
		e.dst = buf
		return buf, nil
	}
	return nil, fmt.Errorf("colbm: unsupported column type %v", spec.Type)
}

// encodeInt64 serializes one chunk of an Int64 column into e.dst.
func (e *chunkEncoder) encodeInt64(spec *ColumnSpec, vals []int64) ([]byte, error) {
	var bl *compress.Block
	var err error
	switch spec.Enc {
	case EncNone:
		buf := grow(e.dst, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
		}
		return buf, nil
	case EncFixed32:
		buf := grow(e.dst, 4*len(vals))
		for i, v := range vals {
			if v < -1<<31 || v >= 1<<31 {
				return buf, fmt.Errorf("colbm: column %q value %d exceeds fixed32 range", spec.Name, v)
			}
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(int32(v)))
		}
		return buf, nil
	case EncPFOR:
		switch {
		case spec.Bits > 0:
			// With a fixed width, anchor the frame at the chunk minimum so
			// small positive values (term frequencies) code directly.
			bl, err = e.enc.PFOR(vals, spec.Bits, minInt64(vals), spec.Layout)
		default:
			b, base := compress.ChoosePFOR(vals)
			bl, err = e.enc.PFOR(vals, b, base, spec.Layout)
		}
	case EncPFORDelta:
		if spec.Bits > 0 {
			bl, err = e.enc.PFORDelta(vals, spec.Bits, 0, spec.Layout)
		} else {
			bl, err = e.enc.PFORDeltaAuto(vals, spec.Layout)
		}
	case EncPDict:
		b := spec.Bits
		if b == 0 {
			b = compress.ChoosePDict(vals)
		}
		bl, err = e.enc.PDict(vals, b, spec.Layout)
	default:
		return e.dst, fmt.Errorf("colbm: unsupported column type %v", spec.Type)
	}
	if err != nil {
		return e.dst, err
	}
	return bl.AppendMarshal(e.dst[:0]), nil
}

// grow returns buf resized to n bytes or values, reusing its array when it
// is large enough.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
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
