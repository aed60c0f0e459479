package compress

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPackUnpackAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for b := uint(1); b <= 32; b++ {
		for _, n := range []int{0, 1, 7, 63, 64, 65, 100, 1000} {
			codes := make([]uint32, n)
			mask := uint32(1)<<b - 1
			if b == 32 {
				mask = ^uint32(0)
			}
			for i := range codes {
				codes[i] = rng.Uint32() & mask
			}
			words := make([]uint64, PackedWords(n, b))
			Pack(words, codes, b)
			out := make([]uint32, n)
			Unpack(out, words, b, n)
			for i := range codes {
				if out[i] != codes[i] {
					t.Fatalf("b=%d n=%d: out[%d]=%d want %d", b, n, i, out[i], codes[i])
				}
			}
		}
	}
}

// Unpack from the word a stride starts in: start*b bits is a whole number
// of words whenever start is a multiple of EntryStride, which is how
// DecodeRange reaches the unrolled kernels in the middle of a block.
func TestUnpackFromStrideOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for b := uint(1); b <= MaxBits; b++ {
		n := 5*EntryStride + 37
		codes := make([]uint32, n)
		mask := uint32(1)<<b - 1
		if b == 32 {
			mask = ^uint32(0)
		}
		for i := range codes {
			codes[i] = rng.Uint32() & mask
		}
		words := make([]uint64, PackedWords(n, b))
		Pack(words, codes, b)
		for start := 0; start < n; start += EntryStride {
			count := rng.Intn(n - start + 1)
			out := make([]uint32, count)
			Unpack(out, words[start*int(b)/64:], b, count)
			for i := 0; i < count; i++ {
				if out[i] != codes[start+i] {
					t.Fatalf("b=%d start=%d: out[%d]=%d want %d", b, start, i, out[i], codes[start+i])
				}
			}
		}
	}
}

func TestPackPanicsOnBadWidth(t *testing.T) {
	for _, b := range []uint{0, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pack(b=%d) did not panic", b)
				}
			}()
			Pack(make([]uint64, 1), []uint32{1}, b)
		}()
	}
}

// Property: round trip holds for arbitrary data under arbitrary widths.
func TestPackRoundTripProperty(t *testing.T) {
	prop := func(raw []uint32, bRaw uint8) bool {
		b := uint(bRaw%32) + 1
		mask := uint32(1)<<b - 1
		if b == 32 {
			mask = ^uint32(0)
		}
		codes := make([]uint32, len(raw))
		for i, r := range raw {
			codes[i] = r & mask
		}
		words := make([]uint64, PackedWords(len(codes), b))
		Pack(words, codes, b)
		out := make([]uint32, len(codes))
		Unpack(out, words, b, len(codes))
		for i := range codes {
			if out[i] != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPackedWords(t *testing.T) {
	cases := []struct {
		n    int
		b    uint
		want int
	}{
		{0, 8, 0}, {1, 8, 1}, {8, 8, 1}, {9, 8, 2}, {64, 1, 1}, {65, 1, 2},
		{2, 32, 1}, {3, 32, 2}, {128, 3, 6},
	}
	for _, c := range cases {
		if got := PackedWords(c.n, c.b); got != c.want {
			t.Errorf("PackedWords(%d,%d) = %d, want %d", c.n, c.b, got, c.want)
		}
	}
}
