package colbm

import (
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/vector"
)

func float32bits(f float32) uint32     { return math.Float32bits(f) }
func float32frombits(b uint32) float32 { return math.Float32frombits(b) }

// Cursor reads a column at vector granularity: each Read locates the
// covering chunk(s), fetches them through the buffer pool (charging the
// simulated disk on a miss), and decompresses exactly the requested value
// range into the destination vector — the on-demand, into-the-cache
// decompression path of Figure 1. Cursors are not safe for concurrent use;
// each scan owns one per column.
type Cursor struct {
	col     *Column
	decoder compress.Decoder // grows its scratch on the first block decode
	scratch []int64

	// load is fetch, bound once: the loader every chunk-cache lookup hands
	// over, so that a hit allocates nothing. miss is the chunk it fetches,
	// and alloc, bound on the first miss, gives it the buffer to read into.
	load  func() (*CachedChunk, error)
	alloc func(int) []byte
	miss  int
}

// NewCursor returns a cursor over the column. It allocates nothing else:
// the decode scratch appears when a compressed chunk is first read, so a
// cursor over a string or raw column never pays for one.
func NewCursor(col *Column) *Cursor {
	c := &Cursor{col: col}
	c.load = c.fetch
	return c
}

// Reset points the cursor at another column, keeping the decode scratch it
// has grown — how an owner of many short-lived scans reuses one cursor.
func (c *Cursor) Reset(col *Column) { c.col = col }

// Read fills dst with n values starting at the global row position start.
// dst must match the column's logical type and have capacity for n values;
// its length is set to n.
func (c *Cursor) Read(dst *vector.Vector, start, n int) error {
	return c.ReadAt(dst, 0, start, n)
}

// ReadAt is Read into dst from position off on: it fills dst[off:off+n]
// with the n values starting at row start, leaves dst[:off] as it is and
// sets the length to off+n. dst must have capacity for off+n values. A
// scan that skips rows reads the runs it keeps one after another into one
// vector this way.
func (c *Cursor) ReadAt(dst *vector.Vector, off, start, n int) error {
	if dst.Type() != c.col.Spec.Type {
		return fmt.Errorf("colbm: cursor type mismatch: column %q is %v, destination is %v",
			c.col.Spec.Name, c.col.Spec.Type, dst.Type())
	}
	if start < 0 || n < 0 || off < 0 || start+n > c.col.N {
		return fmt.Errorf("colbm: read [%d,%d) out of column %q of %d values",
			start, start+n, c.col.Spec.Name, c.col.N)
	}
	dst.SetLen(off + n)
	chunkLen := c.col.Spec.chunkLen()
	written := 0
	for written < n {
		pos := start + written
		ci := pos / chunkLen
		inChunk := pos - ci*chunkLen
		take := c.col.chunks[ci].n - inChunk
		if take > n-written {
			take = n - written
		}
		if err := c.readFromChunk(dst, off+written, ci, inChunk, take); err != nil {
			return err
		}
		written += take
	}
	return nil
}

// ReadOffset is Read for Int64 columns with delta added to every value —
// the docid-remapping read path of the segmented index: a segment merge
// reads another segment's globally numbered docid column rebased to the
// merged segment's own base, and append-time statistics scans rebase global
// docids to local document-table rows, all without materializing an
// intermediate copy.
func (c *Cursor) ReadOffset(dst *vector.Vector, start, n int, delta int64) error {
	if c.col.Spec.Type != vector.Int64 {
		return fmt.Errorf("colbm: ReadOffset on %v column %q (Int64 only)",
			c.col.Spec.Type, c.col.Spec.Name)
	}
	if err := c.Read(dst, start, n); err != nil {
		return err
	}
	if delta != 0 {
		for i := 0; i < n; i++ {
			dst.I64[i] += delta
		}
	}
	return nil
}

// ChunkKey is the cache key of chunk ci of a blob — the naming contract
// every reader of a ChunkCache shares, so a chunk loaded by one is a hit
// for the others.
func ChunkKey(blob string, ci int) string {
	return fmt.Sprintf("%s#%d", blob, ci)
}

// ParseCachedChunk converts raw chunk bytes, exactly as stored, into the
// in-cache form, doing once per load what would otherwise be done per read:
// block encodings get their header parsed, string chunks get the prefix sums
// of their length header (StrOff, charged to Size), everything else stays
// raw. Bytes that cannot be a chunk of the column's type are an error here
// rather than an out-of-range slice in a later read. The raw slice must be
// owned by the chunk — callers batching several chunks out of one large
// read must hand each chunk a private copy. A block's code section is viewed
// in place where raw allows it (see compress.Unmarshal), as it does when raw
// comes from BlockStore.Read.
func ParseCachedChunk(spec *ColumnSpec, raw []byte) (*CachedChunk, error) {
	ch := &CachedChunk{Size: int64(len(raw))}
	switch {
	case spec.Type == vector.Int64 && isBlockEncoding(spec.Enc):
		bl, err := compress.Unmarshal(raw)
		if err != nil {
			return nil, err
		}
		ch.Block = bl
	case spec.Type == vector.Str:
		off, err := strOffsets(raw)
		if err != nil {
			return nil, err
		}
		ch.Raw, ch.StrOff = raw, off
		ch.Size += 4 * int64(len(off))
	default:
		if w := spec.rawWidth(); w == 0 || len(raw)%w != 0 {
			return nil, fmt.Errorf("colbm: %d bytes are not a whole number of %v/%v values", len(raw), spec.Type, spec.Enc)
		}
		ch.Raw = raw
	}
	return ch, nil
}

// strOffsets returns the n+1 byte offsets of a string chunk's n values:
// value i is raw[off[i]:off[i+1]]. The chunk stores n uint32 lengths and
// then the bytes, and not n itself; 4n plus the first n lengths grows by at
// least 4 with every n, so at most one n makes it len(raw), and a header no
// n fits is corrupt. Nothing is allocated until that n is known.
func strOffsets(raw []byte) ([]uint32, error) {
	if uint64(len(raw)) > math.MaxUint32 {
		return nil, fmt.Errorf("colbm: string chunk of %d bytes exceeds 32-bit offsets", len(raw))
	}
	n, end := 0, 0 // end = 4n + the first n lengths
	for end < len(raw) && 4*n+4 <= len(raw) {
		end += 4 + int(leU32(raw[4*n:]))
		n++
	}
	if end != len(raw) {
		return nil, fmt.Errorf("colbm: string chunk of %d bytes: no value count fits its length header", len(raw))
	}
	off := make([]uint32, n+1)
	pos := uint32(4 * n)
	for i := 0; i < n; i++ {
		off[i] = pos
		pos += leU32(raw[4*i:])
	}
	off[n] = pos
	return off, nil
}

// values returns the number of values a parsed chunk of the column holds.
func (s *ColumnSpec) values(ch *CachedChunk) int {
	switch {
	case ch.Block != nil:
		return ch.Block.N
	case s.Type == vector.Str:
		return len(ch.StrOff) - 1
	default:
		return len(ch.Raw) / s.rawWidth()
	}
}

// ParseChunk is ParseCachedChunk for chunk ci of the column, which also
// knows how many values the chunk must hold and, for a checked column, the
// CRC32C of its bytes: a chunk whose bytes disagree with the column's
// metadata is refused before it can enter a cache. A checksum mismatch
// wraps ErrChunkChecksum and names the blob and the chunk's index; other
// errors name the chunk's cache key.
func (c *Column) ParseChunk(ci int, raw []byte) (*CachedChunk, error) {
	m := c.chunks[ci]
	if c.checked {
		if got := Checksum(raw); got != m.crc {
			checksumFailures.Add(1)
			return nil, fmt.Errorf("%w: blob %q chunk %d: crc32c %08x, recorded %08x",
				ErrChunkChecksum, c.blobName, ci, got, m.crc)
		}
	}
	ch, err := ParseCachedChunk(&c.Spec, raw)
	if err != nil {
		return nil, fmt.Errorf("colbm: chunk %s: %w", m.key, err)
	}
	if got := c.Spec.values(ch); got != m.n {
		return nil, fmt.Errorf("colbm: chunk %s holds %d values, the column's metadata says %d", m.key, got, m.n)
	}
	return ch, nil
}

// loadChunk returns the cached chunk ci pinned, fetching it through the
// chunk cache on a miss; the caller releases it. The whole chunk is read
// from the block store in one request — large sequential I/O — and cached
// in compressed form; the cache (buffer manager) owns admission, eviction,
// fetch deduplication and the recycling of read buffers.
func (c *Cursor) loadChunk(ci int) (*CachedChunk, error) {
	c.miss = ci
	return c.col.cache.acquire(c.col.chunks[ci].key, c.load)
}

// fetch reads chunk c.miss from the block store into a buffer from the
// cache and parses it in place: the loader a miss runs, synchronously,
// inside the cache lookup.
func (c *Cursor) fetch() (*CachedChunk, error) {
	if c.alloc == nil {
		c.alloc = c.buffer
	}
	m := &c.col.chunks[c.miss]
	raw, buf, err := c.col.store.ReadInto(c.col.blobName, m.off, m.size, c.alloc)
	if err != nil {
		return nil, err
	}
	ch, err := c.col.ParseChunk(c.miss, raw)
	if err != nil {
		return nil, err
	}
	ch.buf = buf
	return ch, nil
}

// buffer is alloc: a read buffer from the cache of the column the cursor
// reads now, which Reset may change.
func (c *Cursor) buffer(n int) []byte { return c.col.cache.buffer(n) }

// readFromChunk copies or decodes n values of chunk ci into dst, holding
// the chunk pinned for just that long.
func (c *Cursor) readFromChunk(dst *vector.Vector, dstOff, ci, inChunk, n int) error {
	e, err := c.loadChunk(ci)
	if err != nil {
		return err
	}
	defer c.col.cache.release(e)
	switch c.col.Spec.Type {
	case vector.Int64:
		if e.Block != nil {
			return c.decodeInt64(dst.I64[dstOff:dstOff+n], e.Block, inChunk, n)
		}
		raw := e.Raw
		if c.col.Spec.Enc == EncFixed32 {
			for i := 0; i < n; i++ {
				dst.I64[dstOff+i] = int64(int32(leU32(raw[(inChunk+i)*4:])))
			}
		} else {
			for i := 0; i < n; i++ {
				dst.I64[dstOff+i] = int64(leU64(raw[(inChunk+i)*8:]))
			}
		}
	case vector.Float64:
		raw := e.Raw
		for i := 0; i < n; i++ {
			dst.F64[dstOff+i] = float64(float32frombits(leU32(raw[(inChunk+i)*4:])))
		}
	case vector.UInt8:
		copy(dst.U8[dstOff:dstOff+n], e.Raw[inChunk:inChunk+n])
	case vector.Str:
		raw, off := e.Raw, e.StrOff[inChunk:inChunk+n+1]
		for i := 0; i < n; i++ {
			dst.S[dstOff+i] = string(raw[off[i]:off[i+1]])
		}
	default:
		return fmt.Errorf("colbm: unsupported cursor type %v", c.col.Spec.Type)
	}
	return nil
}

// decodeInt64 decompresses [inChunk, inChunk+n) of a compressed chunk. The
// block decoder requires EntryStride alignment, so the read is widened to
// the previous boundary and the prefix discarded — at most EntryStride-1
// wasted values per vector, the price of fine-granularity access.
func (c *Cursor) decodeInt64(out []int64, bl *compress.Block, inChunk, n int) error {
	aligned := inChunk - inChunk%compress.EntryStride
	total := inChunk - aligned + n
	if cap(c.scratch) < total {
		c.scratch = make([]int64, total+compress.EntryStride)
	}
	s := c.scratch[:total]
	if err := c.decoder.DecodeRange(bl, s, aligned, total); err != nil {
		return err
	}
	copy(out, s[inChunk-aligned:])
	return nil
}

// isBlockEncoding reports whether the encoding stores compress.Block
// chunks (as opposed to raw fixed-width values).
func isBlockEncoding(e Encoding) bool {
	return e == EncPFOR || e == EncPFORDelta || e == EncPDict
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func leU64(b []byte) uint64 {
	return uint64(leU32(b)) | uint64(leU32(b[4:]))<<32
}
