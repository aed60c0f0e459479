package compress

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// sortedDocids builds a partially-ordered docid column like an inverted
// list: strictly increasing with skewed gaps.
func sortedDocids(rng *rand.Rand, n int) []int64 {
	vals := make([]int64, n)
	cur := int64(0)
	for i := range vals {
		gap := int64(1 + rng.Intn(20))
		if rng.Float64() < 0.02 {
			gap += int64(rng.Intn(100000)) // occasional long jump
		}
		cur += gap
		vals[i] = cur
	}
	return vals
}

func TestPFORDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vals := sortedDocids(rng, 3000)
	for _, layout := range []Layout{Patched, Naive} {
		bl, err := EncodePFORDelta(vals, 8, 0, layout)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(vals))
		if err := Decode(bl, out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, vals) {
			t.Fatalf("%v delta round trip failed", layout)
		}
	}
}

func TestPFORDeltaCompressesDocids(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	vals := sortedDocids(rng, 100000)
	bl, err := EncodePFORDelta(vals, 8, 0, Patched)
	if err != nil {
		t.Fatal(err)
	}
	// The paper compresses the docid column to 11.98 bits/tuple with 8-bit
	// codewords; with similar gap skew we should land well under 16 bits.
	if bpv := bl.BitsPerValue(); bpv > 16 {
		t.Errorf("docid column at %.2f bits/value, expected light-weight compression", bpv)
	}
	// And far below the uncompressed 32 bits.
	if bpv := bl.BitsPerValue(); bpv >= 32 {
		t.Errorf("compression achieved nothing: %.2f bits/value", bpv)
	}
}

func TestPFORDeltaRangeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vals := sortedDocids(rng, 5000)
	bl, err := EncodePFORDelta(vals, 8, 0, Patched)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(5000)
	for _, start := range []int{0, 128, 1024, 4864} {
		count := 128
		if start+count > len(vals) {
			count = len(vals) - start
		}
		out := make([]int64, count)
		if err := d.DecodeRange(bl, out, start, count); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, vals[start:start+count]) {
			t.Fatalf("delta range [%d,%d) mismatch", start, start+count)
		}
	}
}

func TestPFORDeltaEmptyAndShort(t *testing.T) {
	bl, err := EncodePFORDelta(nil, 8, 0, Patched)
	if err != nil {
		t.Fatal(err)
	}
	if err := Decode(bl, nil); err != nil {
		t.Fatal(err)
	}
	bl, err = EncodePFORDelta([]int64{42}, 8, 0, Patched)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, 1)
	if err := Decode(bl, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 42 {
		t.Errorf("single-value delta: %d", out[0])
	}
	if _, err := EncodePFORDelta([]int64{1}, 0, 0, Patched); err == nil {
		t.Error("b=0 accepted")
	}
}

func TestPFORDeltaUnsortedInput(t *testing.T) {
	// Deltas may be negative; a negative base must cover them.
	vals := []int64{100, 50, 200, 199, 198, 1000, 3}
	bl, err := EncodePFORDelta(vals, 8, -120, Patched)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(vals))
	if err := Decode(bl, out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, vals) {
		t.Errorf("unsorted delta decode: %v", out)
	}
}

// Property: round trip for arbitrary (possibly unsorted) inputs under both
// layouts, using auto parameter choice.
func TestPFORDeltaAutoRoundTripProperty(t *testing.T) {
	prop := func(raw []int32, naive bool) bool {
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r)
		}
		layout := Patched
		if naive {
			layout = Naive
		}
		bl, err := EncodePFORDeltaAuto(vals, layout)
		if err != nil {
			return false
		}
		out := make([]int64, len(vals))
		if err := Decode(bl, out); err != nil {
			return false
		}
		return reflect.DeepEqual(out, vals) || len(vals) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every EntryStride-aligned suffix decodes identically to the
// suffix of the full decode.
func TestPFORDeltaSuffixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		vals := sortedDocids(rng, 1+rng.Intn(3000))
		bl, err := EncodePFORDelta(vals, 8, 0, Patched)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDecoder(len(vals))
		nBounds := (len(vals) + EntryStride - 1) / EntryStride
		k := rng.Intn(nBounds)
		start := k * EntryStride
		out := make([]int64, len(vals)-start)
		if err := d.DecodeRange(bl, out, start, len(vals)-start); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, vals[start:]) {
			t.Fatalf("trial %d: suffix from %d mismatches", trial, start)
		}
	}
}

func TestMarshalUnmarshalAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	docids := sortedDocids(rng, 1000)
	tfs := make([]int64, 1000)
	for i := range tfs {
		tfs[i] = 1 + int64(rng.Intn(40))
	}
	skewed := make([]int64, 1000)
	for i := range skewed {
		skewed[i] = int64(rng.Intn(5)) * 1000003
	}

	blocks := []*Block{}
	for _, layout := range []Layout{Patched, Naive} {
		b1, err := EncodePFOR(tfs, 8, 0, layout)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := EncodePFORDelta(docids, 8, 0, layout)
		if err != nil {
			t.Fatal(err)
		}
		b3, err := EncodePDict(skewed, 4, layout)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b1, b2, b3)
	}

	for bi, bl := range blocks {
		buf := bl.Marshal()
		if len(buf) != bl.CompressedSize() {
			t.Errorf("block %d: marshaled %d bytes, CompressedSize %d", bi, len(buf), bl.CompressedSize())
		}
		back, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("block %d: unmarshal: %v", bi, err)
		}
		a := make([]int64, bl.N)
		b := make([]int64, bl.N)
		if err := Decode(bl, a); err != nil {
			t.Fatal(err)
		}
		if err := Decode(back, b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("block %d (%v/%v): decode differs after marshal round trip", bi, bl.Scheme, bl.Layout)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil buffer accepted")
	}
	if _, err := Unmarshal(make([]byte, 60)); err == nil {
		t.Error("zero magic accepted")
	}
	bl, err := EncodePFOR([]int64{1, 2, 3}, 8, 0, Patched)
	if err != nil {
		t.Fatal(err)
	}
	buf := bl.Marshal()
	if _, err := Unmarshal(buf[:len(buf)-1]); err == nil {
		t.Error("truncated block accepted")
	}
	bad := append([]byte{}, buf...)
	bad[4] = 99 // bit width
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad bit width accepted")
	}
	bad2 := append([]byte{}, buf...)
	bad2[5] = 3 // exception width
	if _, err := Unmarshal(bad2); err == nil {
		t.Error("bad exception width accepted")
	}
}

// Exceptions wider than int32 must round trip through the 8-byte exception
// path.
func TestWideExceptionsMarshal(t *testing.T) {
	vals := []int64{1, 2, 1 << 40, 3, -(1 << 40)}
	bl, err := EncodePFOR(vals, 4, 0, Patched)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(bl.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(vals))
	if err := Decode(back, out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, vals) {
		t.Errorf("wide exceptions: %v", out)
	}
}

func TestSchemeLayoutStrings(t *testing.T) {
	if PFOR.String() != "PFOR" || PFORDelta.String() != "PFOR-DELTA" || PDict.String() != "PDICT" {
		t.Error("scheme names wrong")
	}
	if Scheme(77).String() != "scheme(77)" {
		t.Error("unknown scheme name wrong")
	}
	if Patched.String() != "PATCHED" || Naive.String() != "NAIVE" {
		t.Error("layout names wrong")
	}
}

// The exception rate must drive compressed size monotonically (more
// exceptions, bigger block) — the trade-off Figure 3's x-axis explores.
func TestExceptionRateSizeMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	n := 10000
	prevSize := 0
	for _, rate := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		vals := make([]int64, n)
		for i := range vals {
			if rng.Float64() < rate {
				vals[i] = 1 << 40
			} else {
				vals[i] = int64(rng.Intn(200))
			}
		}
		bl, err := EncodePFOR(vals, 8, 0, Patched)
		if err != nil {
			t.Fatal(err)
		}
		size := bl.CompressedSize()
		if size < prevSize {
			t.Errorf("rate %.2f: size %d smaller than lower rate's %d", rate, size, prevSize)
		}
		prevSize = size
	}
}

func TestSortedDocidsHelper(t *testing.T) {
	vals := sortedDocids(rand.New(rand.NewSource(1)), 100)
	if !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) {
		t.Error("sortedDocids not sorted")
	}
}
