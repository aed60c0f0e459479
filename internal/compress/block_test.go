package compress

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// putCodeSectionBytewise and getCodeSectionBytewise copy the code section a
// byte at a time: the oracles of putCodeSection and getCodeSection.
func putCodeSectionBytewise(sec []byte, words []uint64) {
	for i := range sec {
		sec[i] = byte(words[i/8] >> (uint(i%8) * 8))
	}
}

func getCodeSectionBytewise(words []uint64, sec []byte) {
	for i := range sec {
		words[i/8] |= uint64(sec[i]) << (uint(i%8) * 8)
	}
}

// codeSectionOf returns the code section of a marshaled block.
func codeSectionOf(bl *Block, buf []byte) []byte {
	off := 40 + 8*(len(bl.Entries)+len(bl.Boundary)+len(bl.Dict))
	return buf[off : off+codeSectionBytes(bl.N, bl.B)]
}

// Every width 1..MaxBits at every length 0..130, which puts the end of the
// code section at each byte offset within a word the width can reach: the
// word-wise copies agree with the byte loop both ways.
func TestMarshalUnmarshalMatchByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for b := uint(1); b <= MaxBits; b++ {
		for n := 0; n <= 130; n++ {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = rng.Int63n(1 << b)
				if rng.Intn(10) == 0 {
					vals[i] += 1 << 40 // an exception
				}
			}
			bl, err := EncodePFOR(vals, b, 0, Patched)
			if err != nil {
				t.Fatal(err)
			}
			buf := bl.Marshal()
			sec := codeSectionOf(bl, buf)
			wantSec := make([]byte, len(sec))
			putCodeSectionBytewise(wantSec, bl.Words)
			if !bytes.Equal(sec, wantSec) {
				t.Fatalf("b=%d n=%d: Marshal code section differs from the byte loop", b, n)
			}
			got, err := Unmarshal(buf)
			if err != nil {
				t.Fatalf("b=%d n=%d: %v", b, n, err)
			}
			wantWords := make([]uint64, PackedWords(n, b))
			getCodeSectionBytewise(wantWords, sec)
			if !reflect.DeepEqual(got.Words, wantWords) {
				t.Fatalf("b=%d n=%d: Unmarshal words differ from the byte loop", b, n)
			}
			out := make([]int64, n)
			if err := NewDecoder(n).Decode(got, out); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out, vals) {
				t.Fatalf("b=%d n=%d: round trip through Marshal/Unmarshal lost values", b, n)
			}
		}
	}
}

// FuzzUnmarshal: whatever bytes arrive as a block, Unmarshal returns an
// error or a block that marshals back to the same bytes — so every section
// length it allocated from was checked against len(data) — and never panics.
func FuzzUnmarshal(f *testing.F) {
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = int64(i * 7 % 250)
	}
	vals[17], vals[200] = 1<<40, -5
	for _, enc := range []func() (*Block, error){
		func() (*Block, error) { return EncodePFOR(vals, 8, 0, Patched) },
		func() (*Block, error) { return EncodePFOR(vals, 5, 0, Naive) },
		func() (*Block, error) { return EncodePFORDeltaAuto(vals, Patched) },
		func() (*Block, error) { return EncodePDictAuto(vals, Patched) },
		func() (*Block, error) { return EncodePFOR(nil, 8, 0, Patched) },
	} {
		bl, err := enc()
		if err != nil {
			f.Fatal(err)
		}
		buf := bl.Marshal()
		f.Add(buf)
		f.Add(buf[:len(buf)/2])  // truncated
		f.Add(append(buf, 0))    // one byte long
		huge := bytes.Clone(buf) // a value count no buffer this size holds
		copy(huge[8:], "\xff\xff\xff\xff")
		f.Add(huge)
		exc := bytes.Clone(buf) // likewise the exception count
		copy(exc[28:], "\xff\xff\xff\x7f")
		f.Add(exc)
	}
	f.Add([]byte{})
	f.Add(make([]byte, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		bl, err := Unmarshal(data)
		if err != nil {
			return
		}
		want := bytes.Clone(data)
		want[6], want[7] = 0, 0 // header padding, not kept
		if got := bl.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("accepted block of %d bytes marshals back to %d different bytes", len(data), len(got))
		}
	})
}

// BenchmarkUnmarshal parses one full-size chunk's block (128 Ki values at
// the 8-bit codewords the index uses), the per-miss cost of the chunk cache.
func BenchmarkUnmarshal(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 128*1024)
	for i := range vals {
		vals[i] = int64(rng.Intn(250))
	}
	bl, err := EncodePFOR(vals, 8, 0, Patched)
	if err != nil {
		b.Fatal(err)
	}
	buf := bl.Marshal()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
