package storage

import (
	"math"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/primitives"
	"repro/internal/vector"
)

// mergedStats recomputes the collection-wide statistics over existing
// segment manifests — of one directory or several — plus an optional
// un-indexed batch: exact integer document and length totals, and global
// document frequencies as the sum of per-segment posting-range widths.
// Terms are numbered as they are first counted (slot), so the bounds fold
// reads a segment's document frequencies by slot instead of hashing every
// term of every segment again.
type mergedStats struct {
	numDocs int
	lenSum  int64
	slot    map[string]int // term -> index into df
	df      []int
	params  primitives.BM25Params
	segs    []foldedSeg // every folded segment, in fold order
}

// foldedSeg is one segment folded into mergedStats: where it lives, its
// manifest, and the slot of each term of its byRow (nil when it has none).
type foldedSeg struct {
	dir, name string
	m         *Manifest
	slots     []int
}

// collectStats folds the segments of sm, read from dir, and batch when it
// is not nil.
func collectStats(dir string, sm *SegmentsManifest, batch *corpus.Collection) (*mergedStats, error) {
	st := &mergedStats{}
	if err := st.addSegments(dir, sm.Segments); err != nil {
		return nil, err
	}
	if batch != nil {
		for termID, list := range batch.Postings {
			if len(list) > 0 {
				st.count(batch.TermStrings[termID], len(list))
			}
		}
		st.numDocs += len(batch.DocLens)
		for _, l := range batch.DocLens {
			st.lenSum += l
		}
	}
	st.setParams()
	return st, nil
}

// count adds n postings to term t's document frequency and returns its
// slot.
func (st *mergedStats) count(t string, n int) int {
	i, ok := st.slot[t]
	if !ok {
		i = len(st.df)
		st.slot[t] = i
		st.df = append(st.df, 0)
	}
	st.df[i] += n
	return i
}

// addSegments folds committed segments of dir into the statistics: their
// documents, summed lengths and per-term posting counts. The BM25
// parameters are the caller's to re-derive (setParams).
func (st *mergedStats) addSegments(dir string, segs []SegmentEntry) error {
	first, vocab := len(st.segs), 0
	for _, e := range segs {
		m, err := readManifest(dir, e.Name)
		if err != nil {
			return err
		}
		st.segs = append(st.segs, foldedSeg{dir: dir, name: e.Name, m: m})
		vocab = max(vocab, len(m.Terms))
	}
	if st.slot == nil {
		// The largest dictionary is a lower bound on the merged one.
		st.slot = make(map[string]int, vocab)
	}
	for i, e := range segs {
		s := &st.segs[first+i]
		if s.m.byRow != nil {
			s.slots = make([]int, len(s.m.byRow))
			for j, r := range s.m.byRow {
				s.slots[j] = st.count(r.term, r.rows)
			}
		} else {
			for t, ti := range s.m.Terms {
				st.count(t, ti.End-ti.Start)
			}
		}
		st.numDocs += e.Docs
		st.lenSum += e.DocLenSum
	}
	return nil
}

// setParams derives the BM25 parameters from the folded totals.
func (st *mergedStats) setParams() {
	st.params = ir.OkapiParams(float64(st.numDocs), float64(st.lenSum)/float64(st.numDocs))
}

// scanInt64Column reads an Int64 column sequentially in vector-sized
// steps, handing each batch of values to fn — the one read discipline
// every segmented-layer column scan (length sums, merge streaming) goes
// through.
func scanInt64Column(col *colbm.Column, fn func(vals []int64)) error {
	v := vector.New(vector.Int64, vector.DefaultSize)
	cur := colbm.NewCursor(col)
	for pos := 0; pos < col.N; pos += v.Len() {
		n := col.N - pos
		if n > vector.DefaultSize {
			n = vector.DefaultSize
		}
		if err := cur.Read(v, pos, n); err != nil {
			return err
		}
		fn(v.I64[:n])
	}
	return nil
}

// scanStrColumn is scanInt64Column for string columns.
func scanStrColumn(col *colbm.Column, fn func(vals []string)) error {
	v := vector.New(vector.Str, vector.DefaultSize)
	cur := colbm.NewCursor(col)
	for pos := 0; pos < col.N; pos += v.Len() {
		n := col.N - pos
		if n > vector.DefaultSize {
			n = vector.DefaultSize
		}
		if err := cur.Read(v, pos, n); err != nil {
			return err
		}
		fn(v.S[:n])
	}
	return nil
}

// sumInt64Column folds an Int64 column into its exact total.
func sumInt64Column(col *colbm.Column) (int64, error) {
	var sum int64
	err := scanInt64Column(col, func(vals []int64) {
		for _, v := range vals {
			sum += v
		}
	})
	return sum, err
}

// postingCursors returns cursors over a segment's compressed docid and tf
// columns.
func postingCursors(ix *ir.Index) (docCur, tfCur *colbm.Cursor, err error) {
	docCol, err := ix.TD.Column(ir.ColDocIDC)
	if err != nil {
		return nil, nil, err
	}
	tfCol, err := ix.TD.Column(ir.ColTFC)
	if err != nil {
		return nil, nil, err
	}
	return colbm.NewCursor(docCol), colbm.NewCursor(tfCol), nil
}

// scanPostings streams the named terms' postings of a segment through its
// compressed docid and tf columns, docids shifted by delta, handing each vector of parallel (docids, tfs)
// to fn.
func scanPostings(ix *ir.Index, terms []string, delta int64, fn func(term string, docids, tfs []int64)) error {
	docCur, tfCur, err := postingCursors(ix)
	if err != nil {
		return err
	}
	docVec := vector.New(vector.Int64, vector.DefaultSize)
	tfVec := vector.New(vector.Int64, vector.DefaultSize)
	for _, t := range terms {
		ti := ix.Terms[t]
		for pos := ti.Start; pos < ti.End; {
			n := min(ti.End-pos, vector.DefaultSize)
			if err := docCur.ReadOffset(docVec, pos, n, delta); err != nil {
				return err
			}
			if err := tfCur.Read(tfVec, pos, n); err != nil {
				return err
			}
			fn(t, docVec.I64[:n], tfVec.I64[:n])
			pos += n
		}
	}
	return nil
}

// bounds are Global-By-Value quantization bounds; ok is false when there
// are none (no posting at all).
type bounds struct {
	ok     bool
	lo, hi float64
}

// segmentBounds returns the exact Global-By-Value bounds of the folded
// segments under the merged statistics — what a build of their postings
// would compute. A term with a
// skyline in its segment's manifest costs its skyline points, which
// include the postings of its extreme weights (ir.Skyline); the terms
// without one — over ir.SkylineCap, or in a manifest written before
// skylines — are read from the segment's tf and docid columns and its
// document lengths (scanScoreBounds). Either way the result is the same,
// bit for bit. An append's batch is not folded here: its build widens
// these bounds by the weights it computes (ir.IndexWriter).
func (st *mergedStats) segmentBounds() (bounds, error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	idf := make([]float64, len(st.df))
	for i, f := range st.df {
		idf[i] = st.params.IDF(float64(f))
	}
	for _, s := range st.segs {
		for j, sky := range s.m.skylines {
			for _, side := range [2][]ir.SkyPoint{sky.Upper, sky.Lower} {
				for _, p := range side {
					foldBounds(st.params.WeightIDF(idf[s.slots[j]], float64(p.TF), float64(p.Len)), &lo, &hi)
				}
			}
		}
		var scan []string
		if s.m.byRow != nil {
			for _, r := range s.m.byRow[len(s.m.skylines):] {
				scan = append(scan, r.term)
			}
		} else {
			for t := range s.m.Terms {
				scan = append(scan, t)
			}
		}
		if len(scan) > 0 {
			if err := st.scanScoreBounds(s, scan, idf, &lo, &hi); err != nil {
				return bounds{}, err
			}
		}
	}
	if lo > hi {
		return bounds{}, nil
	}
	return bounds{true, lo, hi}, nil
}

// scanScoreBounds folds the Okapi weights of the named terms of segment
// s, read from its columns, into [lo, hi]; idf is per slot.
func (st *mergedStats) scanScoreBounds(s foldedSeg, terms []string, idf []float64, lo, hi *float64) error {
	ix, err := openSegment(s.dir, s.name, s.m, colbm.NewManager(scanPoolBytes), nil)
	if err != nil {
		return err
	}
	defer ix.Close()
	lenCol, err := ix.D.Column("len")
	if err != nil {
		return err
	}
	lens := make([]int64, 0, ix.NumDocs())
	if err := scanInt64Column(lenCol, func(vals []int64) {
		lens = append(lens, vals...)
	}); err != nil {
		return err
	}
	// Stored docids are global; rebase to local document-table rows.
	return scanPostings(ix, terms, -ix.DocBase(), func(t string, docids, tfs []int64) {
		termIDF := idf[st.slot[t]]
		for i := range docids {
			foldBounds(st.params.WeightIDF(termIDF, float64(tfs[i]), float64(lens[docids[i]])), lo, hi)
		}
	})
}

// globalStats assembles the ir build override from the merged view.
func (st *mergedStats) globalStats(b bounds) *ir.GlobalStats {
	ftd := make(map[string]int, len(st.slot))
	for t, i := range st.slot {
		ftd[t] = st.df[i]
	}
	return &ir.GlobalStats{
		NumDocs:        st.params.NumDocs,
		AvgDocLen:      st.params.AvgDocLn,
		Ftd:            ftd,
		HasScoreBounds: b.ok,
		ScoreLo:        b.lo,
		ScoreHi:        b.hi,
	}
}
