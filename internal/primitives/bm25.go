package primitives

import "math"

// BM25 scoring primitives. The relational BM25 plan in the paper projects
//
//	score = BM25(TD1.tf, D.doclen, t1_ftd) + BM25(TD2.tf, D.doclen, t2_ftd)
//
// where each BM25(...) shorthand expands to the Okapi term weight
//
//	w(D,T) = log(fD / fT,D) * ((k1+1) * fD,T) /
//	         (fD,T + k1 * ((1-b) + b * |D|/avgdl))
//
// (Eq. 2). The engine can evaluate that expansion as a tree of generic map
// primitives; MapBM25TfLenCol is the fused alternative a query compiler
// would emit for the hot path, computing the whole weight in one pass over
// the tf and doclen vectors. Both forms are exercised by the benchmarks
// (fused-vs-composed is the BenchmarkBM25Expression ablation).

// BM25Params carries the collection statistics and tuning constants needed
// to evaluate a term weight.
type BM25Params struct {
	K1       float64 // saturation constant, typically 1.2
	B        float64 // length-normalization constant, typically 0.75
	NumDocs  float64 // fD: total number of documents
	AvgDocLn float64 // avgdl: mean document length in terms
}

// Weight computes the scalar Okapi BM25 weight for one (tf, doclen, ftd)
// triple; the reference implementation the vectorized forms are tested
// against.
func (p BM25Params) Weight(tf, doclen, ftd float64) float64 {
	return p.WeightIDF(p.IDF(ftd), tf, doclen)
}

// IDF is Weight's idf factor, log(fD / ftd). Loops over one term's
// postings compute it once and call WeightIDF per posting.
func (p BM25Params) IDF(ftd float64) float64 { return math.Log(p.NumDocs / ftd) }

// WeightIDF is Weight with the term's idf given: the same operations in
// the same order, so WeightIDF(IDF(ftd), tf, doclen) == Weight(tf, doclen,
// ftd) bit for bit.
func (p BM25Params) WeightIDF(idf, tf, doclen float64) float64 {
	norm := (1 - p.B) + p.B*doclen/p.AvgDocLn
	return idf * ((p.K1 + 1) * tf) / (tf + p.K1*norm)
}

// MapBM25TfLenCol computes res[i] = w(D,T) for vectors of term frequencies
// and document lengths, with the per-term document frequency ftd constant
// across the vector (a posting-list scan stays within one term). The
// idf factor and the k1*(1-b), k1*b/avgdl coefficients are hoisted out of
// the loop, leaving a division and a multiply-add per value.
func MapBM25TfLenCol(res []float64, tf, doclen []int64, ftd float64, p BM25Params, sel []int32, n int) {
	idf := math.Log(p.NumDocs / ftd)
	c0 := p.K1 * (1 - p.B)
	c1 := p.K1 * p.B / p.AvgDocLn
	num := p.K1 + 1
	if sel == nil {
		for i := 0; i < n; i++ {
			f := float64(tf[i])
			res[i] = idf * (num * f) / (f + c0 + c1*float64(doclen[i]))
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			f := float64(tf[s])
			res[s] = idf * (num * f) / (f + c0 + c1*float64(doclen[s]))
		}
	}
}

// MapBM25MatTfLenCol computes res[i] = float64(float32(w(D,T))) — the Okapi
// weight pushed through the float32 storage representation of a
// materialized score column. This is the *virtual materialization* kernel:
// a segment whose baked score column predates the collection's current
// statistics recomputes, at query time, exactly the values a fresh bake
// would have stored, so stale and freshly baked segments rank identically.
// The arithmetic mirrors BM25Params.Weight operation for operation (not the
// hoisted MapBM25TfLenCol form), because bakes go through Weight and float
// results must match bitwise.
// A zero tf is the disjunctive plan's outer-join pad, not a posting: it
// reproduces the stored column's pad value, +0.
func MapBM25MatTfLenCol(res []float64, tf, doclen []int64, ftd float64, p BM25Params, sel []int32, n int) {
	idf := math.Log(p.NumDocs / ftd)
	if sel == nil {
		for i := 0; i < n; i++ {
			f := float64(tf[i])
			if f == 0 {
				res[i] = 0
				continue
			}
			norm := (1 - p.B) + p.B*float64(doclen[i])/p.AvgDocLn
			res[i] = float64(float32(idf * ((p.K1 + 1) * f) / (f + p.K1*norm)))
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			f := float64(tf[s])
			if f == 0 {
				res[s] = 0
				continue
			}
			norm := (1 - p.B) + p.B*float64(doclen[s])/p.AvgDocLn
			res[s] = float64(float32(idf * ((p.K1 + 1) * f) / (f + p.K1*norm)))
		}
	}
}

// MapBM25QuantTfLenCol computes res[i] = float64(quantize(w(D,T))) — the
// weight pushed through Global-By-Value quantization with the collection's
// [lo, hi] bounds, exactly as an 8-bit qscore column stores it (and exactly
// as the quantized plan reads it back: the bucket code widened to float).
// The quantization arithmetic mirrors QuantizeGlobalByValue with q = 256.
// A zero tf is the disjunctive plan's outer-join pad, not a posting: the
// stored-column plan reads the pad as code 0, so the kernel emits 0 rather
// than quantizing the zero weight (which would land in bucket 1).
func MapBM25QuantTfLenCol(res []float64, tf, doclen []int64, ftd float64, p BM25Params, lo, hi float64, sel []int32, n int) {
	idf := math.Log(p.NumDocs / ftd)
	scale := float64(256) / (hi - lo + 1e-9)
	if sel == nil {
		for i := 0; i < n; i++ {
			f := float64(tf[i])
			if f == 0 {
				res[i] = 0
				continue
			}
			norm := (1 - p.B) + p.B*float64(doclen[i])/p.AvgDocLn
			w := idf * ((p.K1 + 1) * f) / (f + p.K1*norm)
			c := int(scale*(w-lo)) + 1
			if c > 255 {
				c = 255
			}
			res[i] = float64(uint8(c))
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			f := float64(tf[s])
			if f == 0 {
				res[s] = 0
				continue
			}
			norm := (1 - p.B) + p.B*float64(doclen[s])/p.AvgDocLn
			w := idf * ((p.K1 + 1) * f) / (f + p.K1*norm)
			c := int(scale*(w-lo)) + 1
			if c > 255 {
				c = 255
			}
			res[s] = float64(uint8(c))
		}
	}
}

// QuantizeGlobalByValue applies the paper's linear Global-By-Value
// quantization,
//
//	w' = floor(q * (w - L) / (U - L + eps)) + 1,
//
// mapping float scores in [L, U] to integers 1..q. With q = 256 the top
// code would be 256, one past the uint8 codomain, so codes saturate at 255;
// saturation collapses only the topmost bucket and keeps the mapping
// monotone, which is all ranking needs.
func QuantizeGlobalByValue(res []uint8, w []float64, lo, hi float64, q int, sel []int32, n int) {
	scale := float64(q) / (hi - lo + 1e-9)
	if sel == nil {
		for i := 0; i < n; i++ {
			c := int(scale*(w[i]-lo)) + 1
			if c > 255 {
				c = 255
			}
			res[i] = uint8(c)
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			c := int(scale*(w[s]-lo)) + 1
			if c > 255 {
				c = 255
			}
			res[s] = uint8(c)
		}
	}
}
