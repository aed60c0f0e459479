package storage

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/primitives"
	"repro/internal/vector"
)

// RunningStats is the collection statistics of one generation of an index
// directory: exact integer document and length totals, the global document
// frequency of every term (the sum of the segments' posting-range widths),
// the statistics epoch and quantization bounds (its super-manifest), and
// per segment the manifest and term slots the bounds re-derivation reads.
// Terms are numbered as they are first counted (slot), so the bounds fold
// reads a segment's document frequencies by slot instead of hashing every
// term of every segment again.
//
// One fold builds it (sync): the first writer that needs it reads every
// segment's manifest. After that it is carried from commit to commit by
// whoever holds it — the serving core, under its commit lock — and hands
// it to every append and merge it commits: an append adds its batch's
// delta, a merge swaps its run's segments for the merged one (the
// collection, and so every total and df, is unchanged). A writer uses the
// value only while it describes the generation the writer reads; a value
// that describes another one — a split, an absorb, an install, a commit by
// another handle or process — is folded again, and a commit that fails
// after changing it drops it. Every input is an integer, so the carried
// value equals a fold exactly. The zero value describes no generation; a
// nil *RunningStats handed to AppendSegment or BuildMergedSegment folds
// into a value nobody keeps. Not safe for concurrent use.
type RunningStats struct {
	dir string
	// sm is the generation described; nil for none (the zero value, a
	// dropped one, and the folds that describe no one generation of one
	// directory). A held manifest is never modified: a commit replaces it.
	sm      *SegmentsManifest
	numDocs int
	lenSum  int64
	slot    map[string]int // term -> index into df
	df      []int
	params  primitives.BM25Params
	segs    []foldedSeg // every folded segment, in fold order
}

// foldedSeg is one segment folded into RunningStats: where it lives, its
// manifest, and the slot of each term of its byRow (nil when it has none).
type foldedSeg struct {
	dir, name string
	m         *Manifest
	slots     []int
}

// statsFolds counts the folds of a directory's segments (collectStats and
// every sync that found its value stale): the work carrying the value from
// commit to commit saves.
var statsFolds atomic.Int64

// StatsFolds returns how many times this process folded the collection
// statistics of a directory's segments from their manifests.
func StatsFolds() int64 { return statsFolds.Load() }

// collectStats folds the segments of sm, read from dir.
func collectStats(dir string, sm *SegmentsManifest) (*RunningStats, error) {
	st := &RunningStats{}
	if err := st.fold(dir, sm); err != nil {
		return nil, err
	}
	return st, nil
}

// fold rebuilds st from the manifests of sm's segments, read from dir: the
// value that then describes sm.
func (st *RunningStats) fold(dir string, sm *SegmentsManifest) error {
	statsFolds.Add(1)
	*st = RunningStats{}
	if err := st.addSegments(dir, sm.Segments); err != nil {
		return err
	}
	st.setParams()
	st.dir, st.sm = dir, sm
	return nil
}

// sync makes st describe sm, the generation of dir a writer just read:
// kept when it already does, folded again otherwise.
func (st *RunningStats) sync(dir string, sm *SegmentsManifest) error {
	if st.describes(dir, sm) {
		return nil
	}
	return st.fold(dir, sm)
}

// describes reports whether st is the statistics of generation sm of dir.
func (st *RunningStats) describes(dir string, sm *SegmentsManifest) bool {
	h := st.sm
	return h != nil && st.dir == dir && h.Generation == sm.Generation && h.StatsEpoch == sm.StatsEpoch &&
		h.HasBounds == sm.HasBounds && h.ScoreLo == sm.ScoreLo && h.ScoreHi == sm.ScoreHi &&
		slices.Equal(h.Segments, sm.Segments)
}

// drop forgets what st describes; the next writer folds.
func (st *RunningStats) drop() { *st = RunningStats{} }

// slotOf returns term t's slot, numbering it when it is new.
func (st *RunningStats) slotOf(t string) int {
	i, ok := st.slot[t]
	if !ok {
		i = len(st.df)
		st.slot[t] = i
		st.df = append(st.df, 0)
	}
	return i
}

// addSegments folds committed segments of dir into the statistics: their
// documents, summed lengths and per-term posting counts. The BM25
// parameters are the caller's to re-derive (setParams).
func (st *RunningStats) addSegments(dir string, segs []SegmentEntry) error {
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
		st.slotSegment(&st.segs[first+i], true)
		st.numDocs += e.Docs
		st.lenSum += e.DocLenSum
	}
	return nil
}

// slotSegment fills s.slots from s's dictionary, numbering its terms and,
// when add is set (a segment new to the collection), counting their
// posting ranges into df. A merged segment's postings are counted
// already.
func (st *RunningStats) slotSegment(s *foldedSeg, add bool) {
	if s.m.byRow != nil {
		s.slots = make([]int, len(s.m.byRow))
		for j, r := range s.m.byRow {
			s.slots[j] = st.slotOf(r.term)
			if add {
				st.df[s.slots[j]] += r.rows
			}
		}
		return
	}
	for t, ti := range s.m.Terms {
		i := st.slotOf(t)
		if add {
			st.df[i] += ti.End - ti.Start
		}
	}
}

// addBatch folds an un-indexed batch into the statistics — its documents,
// summed lengths and per-term posting counts — and returns the terms it
// holds postings of, the ones its build writes.
func (st *RunningStats) addBatch(batch *corpus.Collection) []string {
	if st.slot == nil {
		st.slot = make(map[string]int, len(batch.TermStrings))
	}
	terms := make([]string, 0, len(batch.TermStrings))
	for termID, list := range batch.Postings {
		if len(list) > 0 {
			st.df[st.slotOf(batch.TermStrings[termID])] += len(list)
			terms = append(terms, batch.TermStrings[termID])
		}
	}
	st.numDocs += len(batch.DocLens)
	for _, l := range batch.DocLens {
		st.lenSum += l
	}
	st.setParams()
	return terms
}

// batchStats folds batch into the statistics (addBatch) and returns the
// build override of its segment: the document frequencies of its terms,
// and the bounds of the existing segments under the new statistics, which
// the build widens by the batch's own weights.
func (st *RunningStats) batchStats(batch *corpus.Collection) (*ir.GlobalStats, error) {
	terms := st.addBatch(batch)
	existing, err := st.segmentBounds()
	if err != nil {
		return nil, err
	}
	return st.globalStats(terms, existing), nil
}

// setParams derives the BM25 parameters from the folded totals.
func (st *RunningStats) setParams() {
	st.params = ir.OkapiParams(float64(st.numDocs), float64(st.lenSum)/float64(st.numDocs))
}

// committed records the commit of generation sm, which put segment name,
// written as manifest m, in place of the segments at [at, at+n) of the
// generation st describes: after the last one for an append (n = 0), whose
// batch st holds already (addBatch), or over a merged run, whose postings
// it holds already. Every term of m has its slot.
func (st *RunningStats) committed(sm *SegmentsManifest, at, n int, name string, m *Manifest) {
	s := foldedSeg{dir: st.dir, name: name, m: m}
	st.slotSegment(&s, false)
	st.segs = slices.Replace(st.segs, at, at+n, s)
	st.sm = sm
}

// PlanMerge picks the run the tiered policy would merge in dir's current
// generation (SegmentsManifest.PlanMerge; nil when no merge is due) and
// returns it with the statistics a build of it reads (BuildMergedSegment):
// a copy of what the build needs of st — the run's segments and the
// document frequencies of their terms, the totals, the epoch and the
// bounds — so the commits st goes on to record while the run builds do not
// change it under the build. st is synced to the generation first.
func (st *RunningStats) PlanMerge(dir string, maxSegments int) ([]string, *RunningStats, error) {
	sm, err := ReadSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	if sm.External {
		return nil, nil, fmt.Errorf("storage: merge in %q: %w", dir, ErrExternalStats)
	}
	names := sm.PlanMerge(maxSegments)
	if names == nil {
		return nil, nil, nil
	}
	if err := st.sync(dir, sm); err != nil {
		return nil, nil, err
	}
	at, err := sm.findRun(names)
	if err != nil {
		return nil, nil, err
	}
	run := *sm
	run.Segments = slices.Clone(sm.Segments[at : at+len(names)])
	cp := &RunningStats{dir: dir, sm: &run, numDocs: st.numDocs, lenSum: st.lenSum, params: st.params,
		slot: make(map[string]int)}
	for _, s := range st.segs[at : at+len(names)] {
		c := foldedSeg{dir: s.dir, name: s.name, m: s.m}
		for t := range s.m.Terms {
			cp.df[cp.slotOf(t)] = st.df[st.slot[t]]
		}
		cp.slotSegment(&c, false)
		cp.segs = append(cp.segs, c)
	}
	return names, cp, nil
}

// runTerms returns the sorted union of the dictionaries of segs: the
// terms a rewrite of them writes, in the order it writes them.
func runTerms(segs []foldedSeg) []string {
	set := make(map[string]struct{})
	for _, s := range segs {
		for t := range s.m.Terms {
			set[t] = struct{}{}
		}
	}
	terms := make([]string, 0, len(set))
	for t := range set {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	return terms
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
func (st *RunningStats) segmentBounds() (bounds, error) {
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
func (st *RunningStats) scanScoreBounds(s foldedSeg, terms []string, idf []float64, lo, hi *float64) error {
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

// globalStats assembles the ir build override from the statistics: the
// totals, bounds b, and the document frequency of each of terms — the ones
// the build writes, not the whole vocabulary.
func (st *RunningStats) globalStats(terms []string, b bounds) *ir.GlobalStats {
	ftd := make(map[string]int, len(terms))
	for _, t := range terms {
		ftd[t] = st.df[st.slot[t]]
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
