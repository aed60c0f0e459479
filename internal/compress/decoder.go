package compress

import (
	"errors"
	"fmt"
)

// Decoder decompresses blocks into int64 output vectors. It owns a
// reusable scratch buffer for unpacked codes so vector-at-a-time decoding
// allocates nothing after warm-up; one Decoder per scan is the intended
// usage (they are not safe for concurrent use).
type Decoder struct {
	scratch []uint32
}

// NewDecoder returns a Decoder with scratch capacity for n values.
func NewDecoder(n int) *Decoder {
	return &Decoder{scratch: make([]uint32, n)}
}

func (d *Decoder) grow(n int) []uint32 {
	if cap(d.scratch) < n {
		d.scratch = make([]uint32, n)
	}
	return d.scratch[:n]
}

// Decode decompresses the whole block into out (len(out) >= bl.N).
func (d *Decoder) Decode(bl *Block, out []int64) error {
	return d.DecodeRange(bl, out, 0, bl.N)
}

// DecodeRange decompresses count values starting at position start into
// out. start must be a multiple of EntryStride (the entry-point
// granularity); count is arbitrary. This is the fine-granularity access
// path used for vector-at-a-time decompression into the CPU cache and for
// skipping during inverted-list merges.
func (d *Decoder) DecodeRange(bl *Block, out []int64, start, count int) error {
	if start%EntryStride != 0 {
		return fmt.Errorf("compress: decode start %d not aligned to entry stride %d", start, EntryStride)
	}
	if start < 0 || count < 0 || start+count > bl.N {
		return fmt.Errorf("compress: decode range [%d,%d) out of block of %d values", start, start+count, bl.N)
	}
	if count == 0 {
		return nil
	}
	codes := d.grow(count)
	// start is a multiple of EntryStride, and EntryStride codes of any width
	// fill whole words, so the stride starts on a word boundary and the
	// width-specialised kernels apply.
	Unpack(codes, bl.Words[start*int(bl.B)/64:], bl.B, count)

	var err error
	switch {
	case (bl.Scheme == PFOR || bl.Scheme == PFORDelta) && bl.Layout == Patched:
		err = decodePatchedFOR(bl, codes, out, start, count)
	case (bl.Scheme == PFOR || bl.Scheme == PFORDelta) && bl.Layout == Naive:
		err = decodeNaiveFOR(bl, codes, out, start, count)
	case bl.Scheme == PDict && bl.Layout == Patched:
		err = decodePatchedDict(bl, codes, out, start, count)
	case bl.Scheme == PDict && bl.Layout == Naive:
		err = decodeNaiveDict(bl, codes, out, start, count)
	default:
		return fmt.Errorf("compress: unknown scheme/layout %v/%v", bl.Scheme, bl.Layout)
	}
	if err == nil && bl.Scheme == PFORDelta {
		prefixSum(bl, out, start, count)
	}
	return err
}

// ErrCorruptBlock is wrapped by every error that reports a block whose
// entry points or exception chain contradict its code section.
var ErrCorruptBlock = errors.New("compress: corrupt block")

// decodePatchedFOR is the two-loop patched decoder of the paper:
//
//	LOOP1 decodes every position unconditionally (exception positions get
//	garbage), LOOP2 walks the linked exception list and patches the true
//	values in. Neither loop contains a data-dependent branch, so both can
//	be pipelined and the branch predictor is immune to the exception rate.
func decodePatchedFOR(bl *Block, codes []uint32, out []int64, start, count int) error {
	base := bl.Base
	// LOOP1: decode regardless.
	for i := 0; i < count; i++ {
		out[i] = base + int64(codes[i])
	}
	// LOOP2: patch it up.
	return patchExceptions(bl, codes, out, start, count)
}

// patchExceptions is LOOP2 of both patched decoders: from the stride's
// entry point it follows the chain of links stored in the exception
// positions' code slots, writing each exception value over LOOP1's
// garbage. Unmarshal has checked that the entry point lies inside the
// stride; the two checks here, which never fire on a block the encoder
// wrote, stop a zero link from looping for ever and a chain longer than the
// exception section from indexing past it.
func patchExceptions(bl *Block, codes []uint32, out []int64, start, count int) error {
	e := bl.Entries[start/EntryStride]
	exc := bl.ExcVals
	end := start + count
	j := int(e.ExcIdx)
	for pos := int(e.FirstExc); pos < end; {
		gap := int(codes[pos-start])
		if gap == 0 || j >= len(exc) {
			return fmt.Errorf("%w: exception chain breaks at position %d (link %d, exception %d of %d)",
				ErrCorruptBlock, pos, gap, j, len(exc))
		}
		out[pos-start] = exc[j]
		j++
		pos += gap
	}
	return nil
}

// decodeNaiveFOR is the baseline decoder with the per-value if-then-else
// on the reserved MAXCODE; its throughput collapses near 50% exception
// rate due to branch mispredictions (Figure 3).
func decodeNaiveFOR(bl *Block, codes []uint32, out []int64, start, count int) error {
	base := bl.Base
	maxcode := uint32(1)<<bl.B - 1
	j := int(bl.Entries[start/EntryStride].ExcIdx)
	for i := 0; i < count; i++ {
		if c := codes[i]; c < maxcode {
			out[i] = base + int64(c)
		} else if j < len(bl.ExcVals) {
			out[i] = bl.ExcVals[j]
			j++
		} else {
			return naiveOverrun(start+i, len(bl.ExcVals))
		}
	}
	return nil
}

// naiveOverrun reports a Naive block with more MAXCODE positions than
// exception values.
func naiveOverrun(pos, nExc int) error {
	return fmt.Errorf("%w: MAXCODE at position %d past the last of %d exceptions", ErrCorruptBlock, pos, nExc)
}

func decodePatchedDict(bl *Block, codes []uint32, out []int64, start, count int) error {
	dict := bl.Dict
	for i := 0; i < count; i++ {
		out[i] = dict[codes[i]]
	}
	return patchExceptions(bl, codes, out, start, count)
}

func decodeNaiveDict(bl *Block, codes []uint32, out []int64, start, count int) error {
	dict := bl.Dict
	maxcode := uint32(1)<<bl.B - 1
	j := int(bl.Entries[start/EntryStride].ExcIdx)
	for i := 0; i < count; i++ {
		if c := codes[i]; c < maxcode {
			out[i] = dict[c]
		} else if j < len(bl.ExcVals) {
			out[i] = bl.ExcVals[j]
			j++
		} else {
			return naiveOverrun(start+i, len(bl.ExcVals))
		}
	}
	return nil
}

// prefixSum turns decoded deltas into values. Position 0 of the sequence
// holds a zero delta and reconstructs to First; later EntryStride
// boundaries chain from the stored Boundary carries.
func prefixSum(bl *Block, out []int64, start, count int) {
	var acc int64
	if start == 0 {
		acc = bl.First
		out[0] = acc
		for i := 1; i < count; i++ {
			acc += out[i]
			out[i] = acc
		}
		return
	}
	acc = bl.Boundary[start/EntryStride-1]
	for i := 0; i < count; i++ {
		acc += out[i]
		out[i] = acc
	}
}

// Decode is a convenience wrapper allocating a throwaway Decoder.
func Decode(bl *Block, out []int64) error {
	return NewDecoder(bl.N).Decode(bl, out)
}
