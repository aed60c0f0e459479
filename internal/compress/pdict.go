package compress

import (
	"fmt"
	"sort"
)

// PDICT (patched dictionary compression) maps frequent values to small
// dictionary codes; values outside the dictionary are exceptions. It
// complements PFOR for columns whose value distribution is skewed rather
// than clustered in a narrow numeric range.

// EncodePDict compresses vals with a dictionary of at most 2^b - 1 entries
// (the top code point is reserved, mirroring the PFOR codeable window, so
// Naive and Patched layouts have identical exception sets).
func EncodePDict(vals []int64, b uint, layout Layout) (*Block, error) {
	return detach(new(Encoder).PDict(vals, b, layout))
}

// PDict is EncodePDict into the encoder's reused buffers; the dictionary
// itself is built fresh for every block.
func (e *Encoder) PDict(vals []int64, b uint, layout Layout) (*Block, error) {
	if b == 0 || b > 16 {
		return nil, fmt.Errorf("compress: PDICT bit width %d out of range 1..16", b)
	}
	dict, codeOf := buildDict(vals, int(uint32(1)<<b-1))
	codes, codeable := e.codeBuffers(len(vals))
	for i, v := range vals {
		codes[i], codeable[i] = codeOf[v]
	}
	bl := e.finish(PDict, layout, b, vals)
	// Pad the dictionary to the full code space so that LOOP1's
	// unconditional dict[code] lookup can never go out of bounds when the
	// code slot holds a chain link.
	bl.Dict = make([]int64, int(uint32(1)<<b))
	copy(bl.Dict, dict)
	return bl, nil
}

// EncodePDictAuto picks the width minimizing estimated size.
func EncodePDictAuto(vals []int64, layout Layout) (*Block, error) {
	b := ChoosePDict(vals)
	return EncodePDict(vals, b, layout)
}

// ChoosePDict estimates, for each candidate width, the size of a
// dictionary-compressed block (codes + uncovered exceptions + dictionary)
// and returns the cheapest width.
func ChoosePDict(vals []int64) uint {
	n := len(vals)
	if n == 0 {
		return 8
	}
	freq := make(map[int64]int)
	for _, v := range vals {
		freq[v]++
	}
	counts := make([]int, 0, len(freq))
	for _, c := range freq {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))

	// Prefix sums of descending frequencies: covered(k) = sum of top k.
	prefix := make([]int, len(counts)+1)
	for i, c := range counts {
		prefix[i+1] = prefix[i] + c
	}

	bestB, bestSize := uint(16), int64(1)<<62
	for b := uint(1); b <= 16; b++ {
		dictCap := int(uint32(1)<<b - 1)
		if dictCap > len(counts) {
			dictCap = len(counts)
		}
		covered := prefix[dictCap]
		exc := n - covered
		size := int64(codeSectionBytes(n, b)) + int64(exc)*4 + int64(1<<b)*8
		if size < bestSize {
			bestSize, bestB = size, b
		}
	}
	return bestB
}

// buildDict returns the dictionary (most frequent values first, ties broken
// by value for determinism) and the value-to-code index.
func buildDict(vals []int64, maxDict int) ([]int64, map[int64]uint32) {
	freq := make(map[int64]int)
	for _, v := range vals {
		freq[v]++
	}
	type vc struct {
		v int64
		c int
	}
	all := make([]vc, 0, len(freq))
	for v, c := range freq {
		all = append(all, vc{v, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].v < all[j].v
	})
	if len(all) > maxDict {
		all = all[:maxDict]
	}
	dict := make([]int64, len(all))
	codeOf := make(map[int64]uint32, len(all))
	for i, e := range all {
		dict[i] = e.v
		codeOf[e.v] = uint32(i)
	}
	return dict, codeOf
}
