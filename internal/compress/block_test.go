package compress

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
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

// placed returns a copy of data whose first byte lies mis bytes past an
// 8-byte boundary. Its capacity runs 16 bytes past its end, or, when exact,
// ends with it.
func placed(data []byte, mis int, exact bool) []byte {
	back := make([]byte, len(data)+32)
	s := int(-uintptr(unsafe.Pointer(&back[0]))&7) + mis
	out := back[s : s+len(data)]
	if exact {
		out = out[:len(data):len(data)]
	}
	copy(out, data)
	return out
}

// Every width 1..MaxBits at every length 0..130, which puts the end of the
// code section at each byte offset within a word the width can reach: the
// word-wise copies agree with the byte loop both ways, and the block that
// Unmarshal returns, viewed (aligned input) or copied (misaligned), marshals
// back to the same code section. Its Words are not compared: in a view the
// bits past N·B are the bytes that follow the section.
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
			words := make([]uint64, PackedWords(n, b))
			getCodeSection(words, sec)
			wantWords := make([]uint64, PackedWords(n, b))
			getCodeSectionBytewise(wantWords, sec)
			if !reflect.DeepEqual(words, wantWords) {
				t.Fatalf("b=%d n=%d: getCodeSection words differ from the byte loop", b, n)
			}
			for mis := 0; mis < 2; mis++ {
				got, err := Unmarshal(placed(buf, mis, false))
				if err != nil {
					t.Fatalf("b=%d n=%d: %v", b, n, err)
				}
				if !bytes.Equal(codeSectionOf(got, got.Marshal()), sec) {
					t.Fatalf("b=%d n=%d misaligned by %d: the unmarshaled code section marshals back to other bytes", b, n, mis)
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
}

// For every width, with and without exceptions, one block decodes to the
// same values from a buffer at each of the 8 byte misalignments, with spare
// capacity and with its capacity cut to its length. Unmarshal views the code
// section exactly when the host is little-endian, the section lies on an
// 8-byte boundary and the capacity covers its last word.
func TestUnmarshalViewMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n = 300
	views, copies := 0, 0
	for b := uint(1); b <= MaxBits; b++ {
		for _, exc := range []bool{false, true} {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = rng.Int63n(1 << b)
				if exc && rng.Intn(10) == 0 {
					vals[i] += 1 << 40
				}
			}
			bl, err := EncodePFOR(vals, b, 0, Patched)
			if err != nil {
				t.Fatal(err)
			}
			buf := bl.Marshal()
			off := 40 + 8*(len(bl.Entries)+len(bl.Boundary)+len(bl.Dict))
			nw := PackedWords(n, b)
			for mis := 0; mis < 8; mis++ {
				for _, exact := range []bool{false, true} {
					in := placed(buf, mis, exact)
					got, err := Unmarshal(in)
					if err != nil {
						t.Fatal(err)
					}
					wantView := hostLittleEndian && mis == 0 && cap(in)-off >= nw*8
					isView := &got.Words[0] == (*uint64)(unsafe.Pointer(&in[off]))
					if isView != wantView {
						t.Fatalf("b=%d exc=%v misaligned by %d, exact=%v: view %v, want %v", b, exc, mis, exact, isView, wantView)
					}
					if isView {
						views++
					} else {
						copies++
					}
					out := make([]int64, n)
					if err := NewDecoder(n).Decode(got, out); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(out, vals) {
						t.Fatalf("b=%d exc=%v misaligned by %d, exact=%v: decoded values differ", b, exc, mis, exact)
					}
				}
			}
		}
	}
	if hostLittleEndian && (views == 0 || copies == 0) {
		t.Errorf("%d views and %d copies: one side of the condition went untested", views, copies)
	}
}

// FuzzUnmarshal: whatever bytes arrive as a block, Unmarshal returns an
// error or a block that marshals back to the same bytes — so every section
// length it allocated from was checked against len(data) — and never panics.
// An 8-byte aligned copy (a view, where the capacity allows) and a copy
// offset by one (copied words) are accepted alike and decode alike.
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
		bl, err := Unmarshal(placed(data, 0, false))
		shifted, errShifted := Unmarshal(placed(data, 1, false))
		if (err == nil) != (errShifted == nil) {
			t.Fatalf("aligned input: %v; offset by one: %v", err, errShifted)
		}
		if err != nil {
			return
		}
		want := bytes.Clone(data)
		want[6], want[7] = 0, 0 // header padding, not kept
		if got := bl.Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("accepted block of %d bytes marshals back to %d different bytes", len(data), len(got))
		}
		a, c := make([]int64, bl.N), make([]int64, bl.N)
		errA, errC := NewDecoder(bl.N).Decode(bl, a), NewDecoder(bl.N).Decode(shifted, c)
		if fmt.Sprint(errA) != fmt.Sprint(errC) || !reflect.DeepEqual(a, c) {
			t.Fatalf("aligned and offset copies decode differently: %v / %v", errA, errC)
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
