package compress

import "fmt"

// PFOR-DELTA encodes the differences between subsequent values of a column
// with PFOR. It is the scheme of choice for the partially ordered docid
// column of inverted lists, which the paper compresses from 32 to 11.98
// bits per tuple with 8-bit codewords.

// EncodePFORDelta compresses vals by PFOR-coding the consecutive deltas
// with the given width and delta base. The first value is kept in the
// block header; the reconstructed value at every EntryStride boundary is
// stored as a carry so mid-block (vector-granularity) decoding works.
func EncodePFORDelta(vals []int64, b uint, base int64, layout Layout) (*Block, error) {
	return detach(new(Encoder).PFORDelta(vals, b, base, layout))
}

// EncodePFORDeltaAuto selects width and delta base minimizing block size.
func EncodePFORDeltaAuto(vals []int64, layout Layout) (*Block, error) {
	return detach(new(Encoder).PFORDeltaAuto(vals, layout))
}

// PFORDelta is EncodePFORDelta into the encoder's reused buffers.
func (e *Encoder) PFORDelta(vals []int64, b uint, base int64, layout Layout) (*Block, error) {
	if b == 0 || b > MaxBits {
		return nil, fmt.Errorf("compress: PFOR-DELTA bit width %d out of range 1..%d", b, MaxBits)
	}
	return e.pforDelta(vals, e.setDeltas(vals), b, base, layout), nil
}

// PFORDeltaAuto is EncodePFORDeltaAuto into the encoder's reused buffers.
func (e *Encoder) PFORDeltaAuto(vals []int64, layout Layout) (*Block, error) {
	deltas := e.setDeltas(vals)
	b, base := ChoosePFOR(deltas)
	return e.pforDelta(vals, deltas, b, base, layout), nil
}

// setDeltas fills the encoder's delta buffer with the consecutive
// differences of vals. deltas[0] is 0: position 0 reconstructs to First.
func (e *Encoder) setDeltas(vals []int64) []int64 {
	deltas := resize(e.deltas, len(vals))
	if len(vals) > 0 {
		deltas[0] = 0
	}
	for i := 1; i < len(vals); i++ {
		deltas[i] = vals[i] - vals[i-1]
	}
	e.deltas = deltas
	return deltas
}

func (e *Encoder) pforDelta(vals, deltas []int64, b uint, base int64, layout Layout) *Block {
	n := len(vals)
	codes, codeable := e.codeBuffers(n)
	maxOffset := codeableMax(b, layout)
	for i, d := range deltas {
		off := d - base
		codes[i], codeable[i] = uint32(off), off >= 0 && off <= maxOffset
	}
	bl := e.finish(PFORDelta, layout, b, deltas)
	bl.Base = base
	if n > 0 {
		bl.First = vals[0]
	}
	if nBound := (n + EntryStride - 1) / EntryStride; nBound > 1 {
		e.boundary = resize(e.boundary, nBound-1)
		for k := 1; k < nBound; k++ {
			e.boundary[k-1] = vals[k*EntryStride-1]
		}
		bl.Boundary = e.boundary
	}
	return bl
}
