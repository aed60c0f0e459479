package compress

import (
	"fmt"
	"sort"
)

// PFOR (Patched Frame-of-Reference) stores each value as a small positive
// offset from a per-block base value, with values outside the coverable
// window stored uncompressed in the exception section.

// EncodePFOR compresses vals with an explicit bit width and base. Under
// the Patched layout values v with 0 <= v-base <= 2^b-1 are coded (the
// full code range: exceptions are identified by chain position, not by a
// reserved value, exactly as in Figure 2 where digit 7 is a regular 3-bit
// code). Under Naive the top code point is reserved as MAXCODE, so the
// codeable window is one smaller.
func EncodePFOR(vals []int64, b uint, base int64, layout Layout) (*Block, error) {
	return detach(new(Encoder).PFOR(vals, b, base, layout))
}

// PFOR is EncodePFOR into the encoder's reused buffers.
func (e *Encoder) PFOR(vals []int64, b uint, base int64, layout Layout) (*Block, error) {
	if b == 0 || b > MaxBits {
		return nil, fmt.Errorf("compress: PFOR bit width %d out of range 1..%d", b, MaxBits)
	}
	codes, codeable := e.codeBuffers(len(vals))
	maxOffset := codeableMax(b, layout)
	for i, v := range vals {
		d := v - base
		codes[i], codeable[i] = uint32(d), d >= 0 && d <= maxOffset
	}
	bl := e.finish(PFOR, layout, b, vals)
	bl.Base = base
	return bl, nil
}

// EncodePFORAuto selects the bit width and base that minimize the marshaled
// block size, then encodes.
func EncodePFORAuto(vals []int64, layout Layout) (*Block, error) {
	b, base := ChoosePFOR(vals)
	return EncodePFOR(vals, b, base, layout)
}

// ChoosePFOR picks (bit width, base) minimizing estimated compressed size:
// for each candidate width the best base is found by sliding a window of
// 2^b-1 values over the sorted input and maximizing coverage, following the
// compression-ratio analysis of Zukowski et al. (ICDE 2006).
func ChoosePFOR(vals []int64) (uint, int64) {
	n := len(vals)
	if n == 0 {
		return 8, 0
	}
	sorted := make([]int64, n)
	copy(sorted, vals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	bestB, bestBase := uint(MaxBits), sorted[0]
	bestSize := int64(1) << 62
	for b := uint(1); b <= 24; b++ {
		window := int64(1)<<b - 2 // inclusive offset range 0..2^b-2
		// Slide: for each left index find how many values fit the window.
		covered, base := 0, sorted[0]
		r := 0
		for l := 0; l < n; l++ {
			if r < l {
				r = l
			}
			for r < n && sorted[r]-sorted[l] <= window {
				r++
			}
			if r-l > covered {
				covered, base = r-l, sorted[l]
			}
		}
		exc := n - covered
		size := int64(codeSectionBytes(n, b)) + int64(exc)*4 + int64((n+EntryStride-1)/EntryStride)*8
		if size < bestSize {
			bestSize, bestB, bestBase = size, b, base
		}
	}
	return bestB, bestBase
}
