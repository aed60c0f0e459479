// Package compress implements the ultra light-weight RAM-CPU cache
// compression schemes of MonetDB/X100: PFOR (Patched Frame-of-Reference),
// PFOR-DELTA (PFOR on deltas of subsequent values) and PDICT (patched
// dictionary compression), as introduced by Zukowski et al. (ICDE 2006) and
// applied to inverted-list storage in Héman et al. (CIDR 2007).
//
// The design goal is decompression at RAM-bandwidth speeds rather than
// maximal ratio: values are stored as densely bit-packed small integer
// codes with infrequent uncompressed exceptions, and the decoders are
// written as tight branch-free loops ("patched" decoding, Figure 3 of the
// paper) so they can be pipelined. A NAIVE decoder with a data-dependent
// if-then-else per value is provided as the baseline that Figure 3
// compares against.
package compress

// Bit-packing kernels. Codes of width b (1..32 bits) are packed
// little-endian into 64-bit words: code i occupies bits [i*b, i*b+b) of the
// word stream. Pack and Unpack are the innermost loops of every scheme in
// this package; Unpack has specialized unrolled variants for the widths the
// IR workload uses (8-bit codewords for docid deltas and term frequencies).

// PackedWords returns the number of 64-bit words needed for n codes of
// width b.
func PackedWords(n int, b uint) int {
	bits := uint64(n) * uint64(b)
	return int((bits + 63) / 64)
}

// Pack packs the low b bits of each code into words. words must have at
// least PackedWords(len(codes), b) entries and starts zeroed.
func Pack(words []uint64, codes []uint32, b uint) {
	if b == 0 || b > 32 {
		panic("compress: bit width out of range 1..32")
	}
	mask := uint64(1)<<b - 1
	bitPos := uint(0)
	w := 0
	for _, c := range codes {
		v := uint64(c) & mask
		words[w] |= v << bitPos
		if bitPos+b > 64 {
			words[w+1] = v >> (64 - bitPos)
		}
		bitPos += b
		if bitPos >= 64 {
			bitPos -= 64
			w++
		}
	}
}

// Unpack extracts n codes of width b from words into out. It dispatches to
// an unrolled kernel for the common widths and falls back to the generic
// loop otherwise.
func Unpack(out []uint32, words []uint64, b uint, n int) {
	switch b {
	case 8:
		unpack8(out, words, n)
	case 16:
		unpack16(out, words, n)
	case 4:
		unpack4(out, words, n)
	case 1:
		unpack1(out, words, n)
	case 2:
		unpack2(out, words, n)
	case 32:
		unpack32(out, words, n)
	default:
		unpackGeneric(out, words, b, n)
	}
}

func unpackGeneric(out []uint32, words []uint64, b uint, n int) {
	mask := uint64(1)<<b - 1
	bitPos := uint(0)
	w := 0
	for i := 0; i < n; i++ {
		v := words[w] >> bitPos
		if bitPos+b > 64 {
			v |= words[w+1] << (64 - bitPos)
		}
		out[i] = uint32(v & mask)
		bitPos += b
		if bitPos >= 64 {
			bitPos -= 64
			w++
		}
	}
}

// unpack8 emits 8 codes per 64-bit word; the full-word loop is branch-free
// and 8-way unrolled, the remainder handled by the generic tail.
func unpack8(out []uint32, words []uint64, n int) {
	full := n / 8
	for w := 0; w < full; w++ {
		v := words[w]
		o := out[w*8 : w*8+8 : w*8+8]
		o[0] = uint32(v & 0xff)
		o[1] = uint32(v >> 8 & 0xff)
		o[2] = uint32(v >> 16 & 0xff)
		o[3] = uint32(v >> 24 & 0xff)
		o[4] = uint32(v >> 32 & 0xff)
		o[5] = uint32(v >> 40 & 0xff)
		o[6] = uint32(v >> 48 & 0xff)
		o[7] = uint32(v >> 56)
	}
	if rem := n % 8; rem > 0 {
		v := words[full]
		for i := 0; i < rem; i++ {
			out[full*8+i] = uint32(v >> (uint(i) * 8) & 0xff)
		}
	}
}

func unpack16(out []uint32, words []uint64, n int) {
	full := n / 4
	for w := 0; w < full; w++ {
		v := words[w]
		o := out[w*4 : w*4+4 : w*4+4]
		o[0] = uint32(v & 0xffff)
		o[1] = uint32(v >> 16 & 0xffff)
		o[2] = uint32(v >> 32 & 0xffff)
		o[3] = uint32(v >> 48)
	}
	if rem := n % 4; rem > 0 {
		v := words[full]
		for i := 0; i < rem; i++ {
			out[full*4+i] = uint32(v >> (uint(i) * 16) & 0xffff)
		}
	}
}

func unpack4(out []uint32, words []uint64, n int) {
	full := n / 16
	for w := 0; w < full; w++ {
		v := words[w]
		o := out[w*16 : w*16+16 : w*16+16]
		for i := 0; i < 16; i++ {
			o[i] = uint32(v >> (uint(i) * 4) & 0xf)
		}
	}
	if rem := n % 16; rem > 0 {
		v := words[full]
		for i := 0; i < rem; i++ {
			out[full*16+i] = uint32(v >> (uint(i) * 4) & 0xf)
		}
	}
}

func unpack2(out []uint32, words []uint64, n int) {
	full := n / 32
	for w := 0; w < full; w++ {
		v := words[w]
		o := out[w*32 : w*32+32 : w*32+32]
		for i := 0; i < 32; i++ {
			o[i] = uint32(v >> (uint(i) * 2) & 0x3)
		}
	}
	if rem := n % 32; rem > 0 {
		v := words[full]
		for i := 0; i < rem; i++ {
			out[full*32+i] = uint32(v >> (uint(i) * 2) & 0x3)
		}
	}
}

func unpack1(out []uint32, words []uint64, n int) {
	full := n / 64
	for w := 0; w < full; w++ {
		v := words[w]
		o := out[w*64 : w*64+64 : w*64+64]
		for i := 0; i < 64; i++ {
			o[i] = uint32(v >> uint(i) & 1)
		}
	}
	if rem := n % 64; rem > 0 {
		v := words[full]
		for i := 0; i < rem; i++ {
			out[full*64+i] = uint32(v >> uint(i) & 1)
		}
	}
}

func unpack32(out []uint32, words []uint64, n int) {
	full := n / 2
	for w := 0; w < full; w++ {
		v := words[w]
		out[w*2] = uint32(v)
		out[w*2+1] = uint32(v >> 32)
	}
	if n%2 == 1 {
		out[n-1] = uint32(words[full])
	}
}
