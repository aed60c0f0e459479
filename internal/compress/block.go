package compress

import (
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"
)

// EntryStride is the spacing of entry points: one per 128 values, as in
// Figure 2 of the paper. Entry points record, for each 128-value boundary,
// where the exception chain continues, enabling fine-granularity access and
// skipping (vector-at-a-time decompression, inverted-list merging).
const EntryStride = 128

// MaxBits is the largest code width any scheme accepts. The paper uses
// 1..24-bit codes; we allow up to 32 so the bit-packing kernels are fully
// general.
const MaxBits = 32

// Scheme identifies the compression algorithm of a block.
type Scheme uint8

// Compression schemes.
const (
	PFOR      Scheme = iota + 1 // patched frame-of-reference
	PFORDelta                   // PFOR over deltas of subsequent values
	PDict                       // patched dictionary compression
)

// String returns the scheme name as used in the paper.
func (s Scheme) String() string {
	switch s {
	case PFOR:
		return "PFOR"
	case PFORDelta:
		return "PFOR-DELTA"
	case PDict:
		return "PDICT"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// Layout selects between the two decoder disciplines of Figure 3.
type Layout uint8

const (
	// Patched is the paper's contribution: exception positions hold links
	// of a chained exception list, decoding is two branch-free loops.
	Patched Layout = iota
	// Naive marks exceptions with the reserved MAXCODE value and decodes
	// with a data-dependent if-then-else per value; it exists as the
	// baseline whose branch-misprediction collapse Figure 3 demonstrates.
	Naive
)

// String names the layout.
func (l Layout) String() string {
	if l == Naive {
		return "NAIVE"
	}
	return "PATCHED"
}

// Entry is one entry-point record: for a 128-value boundary, the absolute
// position of the next exception at or after the boundary (N when none)
// and the encounter-order index of that exception in the exception section.
type Entry struct {
	FirstExc int32
	ExcIdx   int32
}

// Block is a compressed block: the in-memory form of the disk layout in
// Figure 2 (header, entry points, forward-growing code section,
// backward-growing exception section). Blocks stay in this compressed form
// in the buffer pool; decompression happens on demand, a vector at a time,
// via Decoder.
type Block struct {
	Scheme Scheme
	Layout Layout
	N      int   // number of encoded values
	B      uint  // code width in bits (1..MaxBits)
	Base   int64 // frame-of-reference base (PFOR, PFORDelta)
	First  int64 // PFORDelta: the first value of the sequence

	Words []uint64 // packed code section
	// Entries has one record per EntryStride boundary ((N+127)/128 total).
	Entries []Entry
	// ExcVals holds exception values in encounter order. In the marshaled
	// form they occupy the backward-growing section at the block tail; in
	// memory a forward slice indexed by encounter order is equivalent and
	// cheaper to address.
	ExcVals []int64
	// Boundary holds, for PFORDelta, the reconstructed value at position
	// k*EntryStride-1 for k = 1..: the prefix-sum carry that makes
	// mid-block decoding possible. Boundary[k-1] corresponds to boundary k.
	Boundary []int64
	// Dict is the PDict dictionary, padded to 1<<B entries so that gap
	// codes at exception positions can never index out of bounds during
	// the unconditional first decode loop.
	Dict []int64

	excWidth int // bytes per exception value in marshaled form: 4 or 8
}

// NumExceptions returns the number of exception values (including forced
// exceptions inserted to keep chain gaps representable).
func (bl *Block) NumExceptions() int { return len(bl.ExcVals) }

// ExceptionRate returns the fraction of positions stored as exceptions.
func (bl *Block) ExceptionRate() float64 {
	if bl.N == 0 {
		return 0
	}
	return float64(len(bl.ExcVals)) / float64(bl.N)
}

// CompressedSize returns the size in bytes of the marshaled block,
// including header, entry points, auxiliary sections, code section and
// exception section. This is the number the compression-ratio experiments
// report.
func (bl *Block) CompressedSize() int {
	const header = 40 // magic, scheme, layout, b, excWidth, n, base, first, counts
	size := header
	size += len(bl.Entries) * 8
	size += len(bl.Boundary) * 8
	size += len(bl.Dict) * 8
	size += codeSectionBytes(bl.N, bl.B)
	size += len(bl.ExcVals) * bl.excWidth
	return size
}

// BitsPerValue returns the average marshaled bits spent per encoded value.
func (bl *Block) BitsPerValue() float64 {
	if bl.N == 0 {
		return 0
	}
	return float64(bl.CompressedSize()*8) / float64(bl.N)
}

func codeSectionBytes(n int, b uint) int {
	bits := uint64(n) * uint64(b)
	return int((bits + 7) / 8)
}

const blockMagic = 0x5846 // "XF"

// Marshal serializes the block into the Figure 2 disk layout: a fixed
// header, the entry-point section, scheme-specific auxiliary data
// (PFORDelta boundaries or the PDict dictionary), the densely packed
// forward-growing code section, and finally the exception section written
// backwards from the end of the block.
func (bl *Block) Marshal() []byte { return bl.AppendMarshal(nil) }

// AppendMarshal appends the marshaled block (Marshal) to dst and returns
// the extended slice; an encoder that reuses dst from block to block
// marshals without allocating.
func (bl *Block) AppendMarshal(dst []byte) []byte {
	size := bl.CompressedSize()
	dst = slices.Grow(dst, size)
	buf := dst[len(dst) : len(dst)+size]
	le := binary.LittleEndian

	buf[6], buf[7] = 0, 0 // header padding
	le.PutUint16(buf[0:], blockMagic)
	buf[2] = byte(bl.Scheme)
	buf[3] = byte(bl.Layout)
	buf[4] = byte(bl.B)
	buf[5] = byte(bl.excWidth)
	le.PutUint32(buf[8:], uint32(bl.N))
	le.PutUint64(buf[12:], uint64(bl.Base))
	le.PutUint64(buf[20:], uint64(bl.First))
	le.PutUint32(buf[28:], uint32(len(bl.ExcVals)))
	le.PutUint32(buf[32:], uint32(len(bl.Dict)))
	le.PutUint32(buf[36:], uint32(len(bl.Boundary)))
	off := 40

	for _, e := range bl.Entries {
		le.PutUint32(buf[off:], uint32(e.FirstExc))
		le.PutUint32(buf[off+4:], uint32(e.ExcIdx))
		off += 8
	}
	for _, v := range bl.Boundary {
		le.PutUint64(buf[off:], uint64(v))
		off += 8
	}
	for _, v := range bl.Dict {
		le.PutUint64(buf[off:], uint64(v))
		off += 8
	}

	// Code section, forward growing.
	putCodeSection(buf[off:off+codeSectionBytes(bl.N, bl.B)], bl.Words)

	// Exception section, backward growing: exception j (encounter order)
	// sits at distance (j+1)*excWidth from the end of the block.
	end := len(buf)
	for j, v := range bl.ExcVals {
		p := end - (j+1)*bl.excWidth
		if bl.excWidth == 4 {
			le.PutUint32(buf[p:], uint32(int32(v)))
		} else {
			le.PutUint64(buf[p:], uint64(v))
		}
	}
	return dst[:len(dst)+size]
}

// Unmarshal parses a marshaled block. Entries, Boundary, Dict and ExcVals
// are validated copies. Words is a view of the code section in place, which
// retains buf, when the host is little-endian, the section starts on an
// 8-byte boundary and cap(buf) covers all PackedWords(N, B) words; the bits
// of that view past N·B are then whatever follows the section in buf, which
// no decoder reads. Otherwise Words is a word-wise copy and buf is not
// retained. A caller that reuses buf must first drop the block.
func Unmarshal(buf []byte) (*Block, error) {
	if len(buf) < 40 {
		return nil, fmt.Errorf("compress: block truncated (%d bytes)", len(buf))
	}
	le := binary.LittleEndian
	if le.Uint16(buf[0:]) != blockMagic {
		return nil, fmt.Errorf("compress: bad block magic %#x", le.Uint16(buf[0:]))
	}
	bl := &Block{
		Scheme:   Scheme(buf[2]),
		Layout:   Layout(buf[3]),
		B:        uint(buf[4]),
		excWidth: int(buf[5]),
		N:        int(le.Uint32(buf[8:])),
		Base:     int64(le.Uint64(buf[12:])),
		First:    int64(le.Uint64(buf[20:])),
	}
	nExc := int(le.Uint32(buf[28:]))
	nDict := int(le.Uint32(buf[32:]))
	nBound := int(le.Uint32(buf[36:]))
	if bl.B == 0 || bl.B > MaxBits {
		return nil, fmt.Errorf("compress: bad bit width %d", bl.B)
	}
	if bl.excWidth != 4 && bl.excWidth != 8 {
		return nil, fmt.Errorf("compress: bad exception width %d", bl.excWidth)
	}
	nEntries := (bl.N + EntryStride - 1) / EntryStride
	want := 40 + nEntries*8 + nBound*8 + nDict*8 + codeSectionBytes(bl.N, bl.B) + nExc*bl.excWidth
	if len(buf) != want {
		return nil, fmt.Errorf("compress: block size %d, want %d", len(buf), want)
	}
	if bl.Scheme == PFORDelta && nBound < nEntries-1 {
		return nil, fmt.Errorf("%w: %d boundary carries for %d strides", ErrCorruptBlock, nBound, nEntries)
	}
	if bl.Scheme == PDict && nDict < 1<<bl.B {
		return nil, fmt.Errorf("%w: dictionary of %d entries for %d-bit codes", ErrCorruptBlock, nDict, bl.B)
	}
	off := 40

	bl.Entries = make([]Entry, nEntries)
	prev := Entry{}
	for k := range bl.Entries {
		e := Entry{
			FirstExc: int32(le.Uint32(buf[off:])),
			ExcIdx:   int32(le.Uint32(buf[off+4:])),
		}
		// The decoders start a stride's exception chain at its entry point
		// and index the exception section from its ExcIdx: both must lie in
		// range and move forward from stride to stride.
		if int(e.FirstExc) < k*EntryStride || int(e.FirstExc) > bl.N ||
			e.ExcIdx < 0 || int(e.ExcIdx) > nExc || e.FirstExc < prev.FirstExc || e.ExcIdx < prev.ExcIdx {
			return nil, fmt.Errorf("%w: entry point %d is {%d, %d}", ErrCorruptBlock, k, e.FirstExc, e.ExcIdx)
		}
		bl.Entries[k], prev = e, e
		off += 8
	}
	bl.Boundary = make([]int64, nBound)
	for i := range bl.Boundary {
		bl.Boundary[i] = int64(le.Uint64(buf[off:]))
		off += 8
	}
	bl.Dict = make([]int64, nDict)
	for i := range bl.Dict {
		bl.Dict[i] = int64(le.Uint64(buf[off:]))
		off += 8
	}

	cb := codeSectionBytes(bl.N, bl.B)
	nw := PackedWords(bl.N, bl.B)
	if bl.Words = viewCodeSection(buf, off, nw); bl.Words == nil {
		bl.Words = make([]uint64, nw)
		getCodeSection(bl.Words, buf[off:off+cb])
	}
	off += cb

	end := len(buf)
	bl.ExcVals = make([]int64, nExc)
	for j := 0; j < nExc; j++ {
		p := end - (j+1)*bl.excWidth
		if bl.excWidth == 4 {
			bl.ExcVals[j] = int64(int32(le.Uint32(buf[p:])))
		} else {
			bl.ExcVals[j] = int64(le.Uint64(buf[p:]))
		}
	}
	return bl, nil
}

// putCodeSection writes the packed words into the code section, little
// endian, a word at a time; the section ends on a byte boundary, so the
// last word may contribute fewer than eight bytes.
func putCodeSection(sec []byte, words []uint64) {
	full := len(sec) / 8
	for i, w := range words[:full] {
		binary.LittleEndian.PutUint64(sec[i*8:], w)
	}
	for i := full * 8; i < len(sec); i++ {
		sec[i] = byte(words[full] >> (uint(i%8) * 8))
	}
}

// getCodeSection is the inverse of putCodeSection; words must be zeroed.
func getCodeSection(words []uint64, sec []byte) {
	full := len(sec) / 8
	for i := range words[:full] {
		words[i] = binary.LittleEndian.Uint64(sec[i*8:])
	}
	for i := full * 8; i < len(sec); i++ {
		words[full] |= uint64(sec[i]) << (uint(i%8) * 8)
	}
}

// viewCodeSection returns the nw code words starting at buf[off] in place,
// or nil where that cannot be done: on a big-endian host, when buf[off] is
// not 8-byte aligned, or when the capacity of buf ends before the last word.
func viewCodeSection(buf []byte, off, nw int) []uint64 {
	if !hostLittleEndian || nw == 0 || cap(buf)-off < nw*8 {
		return nil
	}
	p := unsafe.Pointer(&buf[off])
	if uintptr(p)%8 != 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(p), nw)
}
