package compress

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// codeAt reads code i of width b from a marshaled code section one bit at a
// time: the byte-loop reference of Unpack.
func codeAt(sec []byte, b uint, i int) uint32 {
	var c uint32
	for k := uint(0); k < b; k++ {
		bit := uint(i)*b + k
		c |= uint32(sec[bit/8]>>(bit%8)&1) << k
	}
	return c
}

// referenceDecode decodes a marshaled PFOR or PFOR-DELTA block a value at a
// time from its byte-wise code section: mark the exception positions (the
// chain from the first entry point, or MAXCODE), hand out exception values
// in encounter order, and for PFOR-DELTA run the prefix sum from First.
func referenceDecode(bl *Block, sec []byte) []int64 {
	out := make([]int64, bl.N)
	exc := make([]bool, bl.N)
	if bl.Layout == Patched && bl.N > 0 {
		for pos := int(bl.Entries[0].FirstExc); pos < bl.N; pos += int(codeAt(sec, bl.B, pos)) {
			exc[pos] = true
		}
	} else {
		for i := range exc {
			exc[i] = codeAt(sec, bl.B, i) == uint32(1)<<bl.B-1
		}
	}
	j := 0
	for i := range out {
		if exc[i] {
			out[i] = bl.ExcVals[j]
			j++
		} else {
			out[i] = bl.Base + int64(codeAt(sec, bl.B, i))
		}
	}
	if bl.Scheme == PFORDelta && bl.N > 0 {
		out[0] = bl.First
		for i := 1; i < bl.N; i++ {
			out[i] += out[i-1]
		}
	}
	return out
}

// decodeStrides decodes a block one DecodeRange per entry-point stride,
// each call running into the next stride so that chains cross a boundary,
// and returns the first stride's values of every call concatenated.
func decodeStrides(bl *Block) ([]int64, error) {
	d := NewDecoder(2 * EntryStride)
	out := make([]int64, 0, bl.N)
	buf := make([]int64, 2*EntryStride)
	for start := 0; start < bl.N; start += EntryStride {
		count := min(2*EntryStride, bl.N-start)
		if err := d.DecodeRange(bl, buf[:count], start, count); err != nil {
			return nil, err
		}
		out = append(out, buf[:min(EntryStride, count)]...)
	}
	return out, nil
}

// fuzzValues turns fuzz bytes into a column of up to five strides: small
// values the 8-bit codes cover, and about one in sixteen large enough to be
// an exception.
func fuzzValues(data []byte) []int64 {
	if len(data) == 0 {
		return nil
	}
	vals := make([]int64, min(3*len(data), 640))
	for i := range vals {
		d := int64(data[i%len(data)])
		vals[i] = d + int64(i/len(data))
		if d >= 0xf0 {
			vals[i] = d << 28
		}
	}
	return vals
}

// FuzzDecodeRange: for every PFOR or PFOR-DELTA block Unmarshal accepts,
// under either layout, decoding each stride returns values or an error and
// never panics or spins; and where the encoder wrote the block — the fuzz
// bytes read as a column — every stride decodes to the byte-loop reference,
// which is the column itself.
func FuzzDecodeRange(f *testing.F) {
	vals := make([]int64, 400)
	for i := range vals {
		vals[i] = int64(i * 7 % 250)
	}
	vals[17], vals[200], vals[333] = 1<<40, -5, 1<<20
	for _, scheme := range []Scheme{PFOR, PFORDelta} {
		for _, layout := range []Layout{Patched, Naive} {
			bl, err := encodeAs(scheme, vals, 8, layout)
			if err != nil {
				f.Fatal(err)
			}
			buf := bl.Marshal()
			f.Add(buf)
			early := bytes.Clone(buf) // stride 1's entry point before the stride
			copy(entryOf(early, 1), "\x00\x00\x00\x00")
			f.Add(early)
			past := bytes.Clone(buf) // an exception index past the section
			copy(entryOf(past, 2)[4:], "\xff\x00\x00\x00")
			f.Add(past)
			zero := bytes.Clone(buf) // a zero link where the chain starts
			sec := codeSectionOf(bl, zero)
			sec[bl.Entries[0].FirstExc] = 0
			f.Add(zero)
		}
	}
	f.Add([]byte("\x00\x01\x02\xf5\x10\x20\xff\x07"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if bl, err := Unmarshal(data); err == nil && (bl.Scheme == PFOR || bl.Scheme == PFORDelta) {
			if _, err := decodeStrides(bl); err != nil && !errors.Is(err, ErrCorruptBlock) {
				t.Fatalf("accepted block fails to decode with an untyped error: %v", err)
			}
		}

		vals := fuzzValues(data)
		widths := []uint{8}
		if len(data) > 0 {
			widths = append(widths, 1+uint(data[0])%MaxBits)
		}
		for _, scheme := range []Scheme{PFOR, PFORDelta} {
			for _, layout := range []Layout{Patched, Naive} {
				for _, b := range widths {
					bl, err := encodeAs(scheme, vals, b, layout)
					if err != nil {
						t.Fatal(err)
					}
					buf := bl.Marshal()
					got, err := Unmarshal(buf)
					if err != nil {
						t.Fatalf("%v/%v b=%d: encoder's block rejected: %v", scheme, layout, b, err)
					}
					if ref := referenceDecode(got, codeSectionOf(got, buf)); !reflect.DeepEqual(ref, vals) && len(vals) > 0 {
						t.Fatalf("%v/%v b=%d: byte-loop reference disagrees with the encoded column", scheme, layout, b)
					}
					out, err := decodeStrides(got)
					if err != nil {
						t.Fatalf("%v/%v b=%d: %v", scheme, layout, b, err)
					}
					if !reflect.DeepEqual(out, vals) && len(vals) > 0 {
						t.Fatalf("%v/%v b=%d: stride decode differs from the reference", scheme, layout, b)
					}
				}
			}
		}
	})
}

// entryOf returns the marshaled entry point of stride k and what follows.
func entryOf(buf []byte, k int) []byte { return buf[40+8*k:] }

func encodeAs(scheme Scheme, vals []int64, b uint, layout Layout) (*Block, error) {
	if scheme == PFORDelta {
		return EncodePFORDelta(vals, b, 0, layout)
	}
	return EncodePFOR(vals, b, 0, layout)
}

// Each of the three ways a corrupt block used to panic or hang DecodeRange
// is now refused: by Unmarshal when the entry points say it, by the decoder
// (with ErrCorruptBlock) when only the chain does.
func TestDecodeRangeRejectsCorruptChains(t *testing.T) {
	vals := make([]int64, 3*EntryStride)
	for i := range vals {
		vals[i] = int64(i % 200)
	}
	vals[5], vals[EntryStride+9], vals[2*EntryStride+1] = -1, -2, -3
	bl, err := EncodePFOR(vals, 8, 0, Patched)
	if err != nil {
		t.Fatal(err)
	}
	buf := bl.Marshal()

	early := bytes.Clone(buf)
	copy(entryOf(early, 1), "\x00\x00\x00\x00") // FirstExc 0, before stride 1
	past := bytes.Clone(buf)
	copy(entryOf(past, 2)[4:], "\x09\x00\x00\x00") // ExcIdx 9 of 3 exceptions
	back := bytes.Clone(buf)
	copy(entryOf(back, 2)[4:], "\x00\x00\x00\x00") // stride 2's ExcIdx behind stride 1's
	for name, b := range map[string][]byte{"early entry point": early, "exception index past the end": past, "entry points going back": back} {
		if _, err := Unmarshal(b); !errors.Is(err, ErrCorruptBlock) {
			t.Errorf("%s: Unmarshal error %v, want ErrCorruptBlock", name, err)
		}
	}

	zero := bytes.Clone(buf)
	codeSectionOf(bl, zero)[EntryStride+9] = 0 // stride 1's only link
	long := bytes.Clone(buf)
	codeSectionOf(bl, long)[2*EntryStride+1] = 1 // the chain runs on past the last exception
	for name, b := range map[string][]byte{"zero link": zero, "chain past the exceptions": long} {
		cbl, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := decodeStrides(cbl); !errors.Is(err, ErrCorruptBlock) {
			t.Errorf("%s: decode error %v, want ErrCorruptBlock", name, err)
		}
	}
}

// BenchmarkDecodeRange decodes one full-size chunk's block (128 Ki values at
// the index's 8-bit codewords) a vector at a time, as a cursor does: the
// docid column's PFOR-DELTA and the term-frequency column's PFOR.
func BenchmarkDecodeRange(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	const n, vec = 128 * 1024, 1024
	docids := sortedDocids(rng, n)
	tfs := make([]int64, n)
	for i := range tfs {
		tfs[i] = 1 + int64(rng.ExpFloat64()*3)
	}
	for _, c := range []struct {
		name   string
		scheme Scheme
		vals   []int64
	}{{"pfordelta8", PFORDelta, docids}, {"pfor8", PFOR, tfs}} {
		bl, err := encodeAs(c.scheme, c.vals, 8, Patched)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			d := NewDecoder(vec)
			out := make([]int64, vec)
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				for start := 0; start < n; start += vec {
					if err := d.DecodeRange(bl, out, start, vec); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mvalues/s")
		})
	}
}
