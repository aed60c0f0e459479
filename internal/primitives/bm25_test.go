package primitives

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

var testParams = BM25Params{K1: 1.2, B: 0.75, NumDocs: 25e6, AvgDocLn: 900}

func TestBM25WeightReference(t *testing.T) {
	// Hand-computed reference for tf=3, doclen=600, ftd=775000.
	p := testParams
	tf, doclen, ftd := 3.0, 600.0, 775000.0
	idf := math.Log(p.NumDocs / ftd)
	norm := (1 - p.B) + p.B*doclen/p.AvgDocLn
	want := idf * ((p.K1 + 1) * tf) / (tf + p.K1*norm)
	if got := p.Weight(tf, doclen, ftd); math.Abs(got-want) > 1e-12 {
		t.Errorf("Weight = %v, want %v", got, want)
	}
	// Sanity: rarer terms weigh more.
	if p.Weight(3, 600, 1000) <= p.Weight(3, 600, 1e6) {
		t.Error("rarer term should score higher")
	}
	// Sanity: longer documents weigh less for equal tf.
	if p.Weight(3, 2000, 775000) >= p.Weight(3, 100, 775000) {
		t.Error("longer doc should score lower")
	}
	// Sanity: higher tf weighs more (saturating).
	if p.Weight(10, 600, 775000) <= p.Weight(1, 600, 775000) {
		t.Error("higher tf should score higher")
	}
}

// TestWeightIDFMatchesWeight: splitting the idf out of Weight must not move
// a bit. Every baked score column and every quantization bound goes through
// one form or the other, and both must equal the one-expression Okapi weight
// the columns were always baked with — over a grid that includes b = 0 and
// ftd = fD (idf 0).
func TestWeightIDFMatchesWeight(t *testing.T) {
	oneExpr := func(p BM25Params, tf, doclen, ftd float64) float64 {
		idf := math.Log(p.NumDocs / ftd)
		norm := (1 - p.B) + p.B*doclen/p.AvgDocLn
		return idf * ((p.K1 + 1) * tf) / (tf + p.K1*norm)
	}
	for _, n := range []float64{1, 7, 1000, 25e6} {
		for _, b := range []float64{0, 0.3, 0.75, 1} {
			for _, avgdl := range []float64{1, 13.7, 200, 900} {
				p := BM25Params{K1: 1.2, B: b, NumDocs: n, AvgDocLn: avgdl}
				for _, ftd := range []float64{1, math.Ceil(n / 3), n} {
					idf := p.IDF(ftd)
					for _, tf := range []float64{1, 2, 3, 17, 400} {
						for _, dl := range []float64{1, 5, 200, 901, 1e5} {
							want := oneExpr(p, tf, dl, ftd)
							w, split := p.Weight(tf, dl, ftd), p.WeightIDF(idf, tf, dl)
							if math.Float64bits(w) != math.Float64bits(want) || math.Float64bits(split) != math.Float64bits(want) {
								t.Fatalf("%+v tf=%v len=%v ftd=%v: Weight %v, WeightIDF %v, one expression %v",
									p, tf, dl, ftd, w, split, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestMapBM25MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 257
	tf := make([]int64, n)
	doclen := make([]int64, n)
	for i := 0; i < n; i++ {
		tf[i] = 1 + int64(rng.Intn(50))
		doclen[i] = 50 + int64(rng.Intn(2000))
	}
	ftd := 775000.0
	res := make([]float64, n)
	MapBM25TfLenCol(res, tf, doclen, ftd, testParams, nil, n)
	for i := 0; i < n; i++ {
		want := testParams.Weight(float64(tf[i]), float64(doclen[i]), ftd)
		if math.Abs(res[i]-want) > 1e-9 {
			t.Fatalf("i=%d: vectorized %v vs scalar %v", i, res[i], want)
		}
	}

	// Selective variant writes only the selected positions.
	res2 := make([]float64, n)
	for i := range res2 {
		res2[i] = -1
	}
	sel := []int32{0, 5, 250}
	MapBM25TfLenCol(res2, tf, doclen, ftd, testParams, sel, len(sel))
	for _, s := range sel {
		if math.Abs(res2[s]-res[s]) > 1e-12 {
			t.Errorf("selective pos %d: %v vs %v", s, res2[s], res[s])
		}
	}
	if res2[1] != -1 {
		t.Error("selective BM25 touched unselected position")
	}
}

func TestQuantizeGlobalByValue(t *testing.T) {
	w := []float64{0, 2.5, 5, 7.5, 10}
	res := make([]uint8, 5)
	QuantizeGlobalByValue(res, w, 0, 10, 256, nil, 5)
	// Codes are in 1..256 (256 wraps to 0 in uint8 only at exactly hi,
	// which the epsilon prevents) and monotone.
	for i := 1; i < 5; i++ {
		if res[i] < res[i-1] {
			t.Errorf("quantization not monotone: %v", res)
		}
	}
	if res[0] != 1 {
		t.Errorf("lowest value should map to code 1, got %d", res[0])
	}

	// Selective.
	res2 := make([]uint8, 5)
	QuantizeGlobalByValue(res2, w, 0, 10, 256, []int32{4}, 1)
	if res2[4] != res[4] || res2[0] != 0 {
		t.Errorf("selective quantize: %v", res2)
	}
}

// Property: quantization with q=256 preserves ranking up to bucket
// granularity — if quantized codes differ, their order matches the float
// order. This is why BM25TCMQ8 keeps (even marginally improves) p@20.
func TestQuantizationOrderPreservingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(500)
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64() * 25
		}
		lo, hi := w[0], w[0]
		for _, x := range w {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		codes := make([]uint8, n)
		QuantizeGlobalByValue(codes, w, lo, hi, 256, nil, n)

		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return w[idx[a]] < w[idx[b]] })
		for i := 1; i < n; i++ {
			if codes[idx[i]] < codes[idx[i-1]] {
				t.Fatalf("trial %d: order violated: w=%v code=%d vs w=%v code=%d",
					trial, w[idx[i]], codes[idx[i]], w[idx[i-1]], codes[idx[i-1]])
			}
		}
	}
}

// TestVirtualMaterializationKernels: the stale-segment scoring kernels
// must reproduce the baked columns bit for bit — the float32 storage
// roundtrip of a materialized score, the Global-By-Value bucket code of a
// quantized one, and the outer-join pad (tf = 0) as the stored pad value.
func TestVirtualMaterializationKernels(t *testing.T) {
	p := BM25Params{K1: 1.2, B: 0.75, NumDocs: 50000, AvgDocLn: 197.3}
	tf := []int64{0, 1, 2, 3, 7, 15, 40, 0, 9, 1}
	dl := []int64{80, 80, 211, 64, 400, 33, 500, 16, 197, 1200}
	const ftd, lo, hi = 775.0, 0.0132, 17.9

	mat := make([]float64, len(tf))
	MapBM25MatTfLenCol(mat, tf, dl, ftd, p, nil, len(tf))
	quant := make([]float64, len(tf))
	MapBM25QuantTfLenCol(quant, tf, dl, ftd, p, lo, hi, nil, len(tf))

	for i := range tf {
		if tf[i] == 0 {
			if mat[i] != 0 || quant[i] != 0 {
				t.Errorf("pad row %d: mat=%v quant=%v, want 0 (stored pads)", i, mat[i], quant[i])
			}
			continue
		}
		w := p.Weight(float64(tf[i]), float64(dl[i]), ftd)
		if want := float64(float32(w)); mat[i] != want {
			t.Errorf("row %d: mat kernel %v != float32 roundtrip of Weight %v", i, mat[i], want)
		}
		var code [1]uint8
		QuantizeGlobalByValue(code[:], []float64{w}, lo, hi, 256, nil, 1)
		if want := float64(code[0]); quant[i] != want {
			t.Errorf("row %d: quant kernel %v != stored bucket %v", i, quant[i], want)
		}
	}

	// Selection-vector variant agrees with the dense one.
	sel := []int32{1, 4, 8}
	mat2 := make([]float64, len(tf))
	MapBM25MatTfLenCol(mat2, tf, dl, ftd, p, sel, len(sel))
	for _, s := range sel {
		if mat2[s] != mat[s] {
			t.Errorf("sel row %d: %v != %v", s, mat2[s], mat[s])
		}
	}
}
