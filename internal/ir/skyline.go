package ir

// SkylineCap is the most points a term's skyline keeps on either side. A
// term whose upper or lower skyline is longer stores none, and whoever
// needs its weight extremes reads its postings instead.
const SkylineCap = 64

// SkyPoint is the (tf, document length) pair of one posting.
type SkyPoint struct{ TF, Len int64 }

// Skyline is the part of one term's posting list that holds its extreme
// Okapi weights under any collection statistics. For a fixed term,
// w(D,T) = idf·(k1+1)·tf / (tf + k1·((1−b) + b·len/avgdl)) has idf ≥ 0, so
// it never falls as tf rises and never rises as len rises. Its maximum
// therefore lies on Upper, the pairs that no other posting matches or beats
// with tf' ≥ tf and len' ≤ len; its minimum lies on Lower, the pairs that no
// other posting matches or undercuts with tf' ≤ tf and len' ≥ len. Folding
// the weights of both sides gives the term's exact min and max without
// reading its postings — what an append needs to re-derive the quantization
// bounds of segments it does not rebuild. (The float evaluation keeps both
// monotonicities: every operation is monotone in len, and one step of an
// integer tf moves the weight by far more than its rounding.)
//
// Both sides are in sweep order: Upper by tf and len strictly descending,
// Lower by tf and len strictly ascending.
type Skyline struct {
	Term         string
	Upper, Lower []SkyPoint
}

// buildSkylines computes the skyline of every term of order — the
// dictionary terms in posting row order — and returns them in that order.
// A term's rows [Start, End) index docids (global, base-shifted) and tfs;
// docLens holds the lengths of documents base, base+1, .... The work is
// linear in the postings plus each term's tf range, with no sort: per tf,
// the shortest and the longest document seen go into scratch arrays
// indexed by tf, then one sweep down the tfs collects Upper and one sweep
// up collects Lower. Terms with a side over SkylineCap, or with a posting
// whose tf or length is not positive, get none. All skylines share one
// backing array.
func buildSkylines(order []string, terms map[string]TermInfo, docids, tfs, docLens []int64, base int64) []Skyline {
	type span struct {
		term         string
		lo, mid, end int
	}
	spans := make([]span, 0, len(order))
	pts := make([]SkyPoint, 0, 2*len(order))
	// minLen[tf]/maxLen[tf]: shortest/longest document among the term's
	// postings with that tf; maxLen 0 marks a tf the term does not have.
	// Both are zero outside the term being processed.
	var minLen, maxLen []int64
	for _, t := range order {
		ti := terms[t]
		if ti.End <= ti.Start {
			continue
		}
		minTF, maxTF := int64(-1), int64(0)
		valid := true
		for i := ti.Start; i < ti.End; i++ {
			tf, l := tfs[i], docLens[docids[i]-base]
			if tf <= 0 || l <= 0 {
				valid = false
				break
			}
			if tf >= int64(len(maxLen)) {
				grown := max(2*int64(len(maxLen)), tf+1, 64)
				minLen = append(minLen, make([]int64, grown-int64(len(minLen)))...)
				maxLen = append(maxLen, make([]int64, grown-int64(len(maxLen)))...)
			}
			if maxLen[tf] == 0 {
				minLen[tf], maxLen[tf] = l, l
			} else {
				minLen[tf], maxLen[tf] = min(minLen[tf], l), max(maxLen[tf], l)
			}
			if minTF < 0 || tf < minTF {
				minTF = tf
			}
			maxTF = max(maxTF, tf)
		}
		if !valid {
			if minTF > 0 {
				clear(minLen[minTF : maxTF+1])
				clear(maxLen[minTF : maxTF+1])
			}
			continue
		}
		lo := len(pts)
		best := int64(-1) // shortest length at a larger tf; -1 = none yet
		for tf := maxTF; tf >= minTF; tf-- {
			if l := minLen[tf]; maxLen[tf] != 0 && (best < 0 || l < best) {
				pts, best = append(pts, SkyPoint{tf, l}), l
			}
		}
		mid := len(pts)
		best = 0 // longest length at a smaller tf
		for tf := minTF; tf <= maxTF; tf++ {
			if l := maxLen[tf]; l > best {
				pts, best = append(pts, SkyPoint{tf, l}), l
			}
		}
		clear(minLen[minTF : maxTF+1])
		clear(maxLen[minTF : maxTF+1])
		if mid-lo > SkylineCap || len(pts)-mid > SkylineCap {
			pts = pts[:lo]
			continue
		}
		spans = append(spans, span{t, lo, mid, len(pts)})
	}
	sky := make([]Skyline, len(spans))
	for i, s := range spans {
		sky[i] = Skyline{Term: s.term, Upper: pts[s.lo:s.mid:s.mid], Lower: pts[s.mid:s.end:s.end]}
	}
	return sky
}
