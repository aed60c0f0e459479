package ir

import (
	"fmt"
	"math"

	"repro/internal/colbm"
	"repro/internal/primitives"
)

// IndexWriter is the one code path that turns postings into an index and
// the one place a build computes Okapi weights. Build streams a
// corpus.Collection through it; the segmented merge, split and absorb feed
// it one input segment's postings at a time, so their run is never
// materialized as per-term Posting slices. The writer holds exactly the
// flattened row arrays the physical tables encode from — pre-sized once
// from the declared totals, so they never regrow. Finish encodes the
// columns from them a chunk at a time straight into the block store (the
// segment's own directory, for a storage build): the rows and the bytes
// the store keeps are the build's only whole-column memory.
//
// Protocol: add every document (AddDocLens, then AddDocNames, both in
// local docid order) before the first BeginTerm — scoring reads document
// lengths by local docid as postings arrive. Then, once per term:
// BeginTerm(t) followed by any number of Postings calls carrying local
// docids ascending across the term. The TD rows hold the terms in the
// order they arrive; the merge streams them ascending, Build in the
// collection's term-id order. Finish seals the last term and encodes the
// tables.
//
// Statistics are mandatory (bc.Stats non-nil; Build alone resolves a nil
// one to the collection's own): a streaming caller is by definition
// rebuilding part of a larger collection, and every term's global document
// frequency must be present in Stats.Ftd — the writer refuses a term it is
// missing rather than fall back to a list length it never sees whole.
// Stats' score bounds, when present, are a floor and a ceiling: the index
// quantizes against them widened by the weights the writer computes.
type IndexWriter struct {
	bc     BuildConfig
	stats  *GlobalStats
	params primitives.BM25Params

	numDocs     int
	numPostings int

	docLens  []int64
	docNames []string

	docids []int64
	tfs    []int64
	scores []float64
	terms  map[string]TermInfo
	order  []string // terms in the order they streamed

	lo, hi float64

	// current open term
	open  bool
	term  string
	start int
	ftd   int
	idf   float64
	maxW  float64
}

// NewIndexWriter starts a streaming build for exactly numDocs documents
// and numPostings posting rows under the given configuration. The counts are a
// contract, not a hint: the writer allocates its row arrays once from
// them and rejects rows beyond either bound.
func NewIndexWriter(bc BuildConfig, numDocs, numPostings int) (*IndexWriter, error) {
	if bc.Stats == nil {
		return nil, fmt.Errorf("ir: streaming builds need a global statistics override (Stats is nil)")
	}
	if numDocs <= 0 || numPostings <= 0 {
		return nil, fmt.Errorf("ir: streaming build of %d documents / %d postings", numDocs, numPostings)
	}
	return newIndexWriter(bc, bc.Stats, numDocs, numPostings), nil
}

// newIndexWriter is NewIndexWriter scoring against st, which may differ
// from bc.Stats (Build resolves a nil one), for any non-negative counts.
func newIndexWriter(bc BuildConfig, st *GlobalStats, numDocs, numPostings int) *IndexWriter {
	return &IndexWriter{
		bc:          bc,
		stats:       st,
		params:      OkapiParams(st.NumDocs, st.AvgDocLen),
		numDocs:     numDocs,
		numPostings: numPostings,
		docLens:     make([]int64, 0, numDocs),
		docNames:    make([]string, 0, numDocs),
		docids:      make([]int64, 0, numPostings),
		tfs:         make([]int64, 0, numPostings),
		scores:      make([]float64, 0, numPostings),
		terms:       make(map[string]TermInfo),
		lo:          math.Inf(1),
		hi:          math.Inf(-1),
	}
}

// AddDocLens appends document lengths in local docid order.
func (w *IndexWriter) AddDocLens(lens []int64) error {
	if w.open || len(w.terms) > 0 {
		return fmt.Errorf("ir: AddDocLens after postings began")
	}
	if len(w.docLens)+len(lens) > w.numDocs {
		return fmt.Errorf("ir: more document lengths than the declared %d", w.numDocs)
	}
	w.docLens = append(w.docLens, lens...)
	return nil
}

// AddDocNames appends document names in local docid order.
func (w *IndexWriter) AddDocNames(names []string) error {
	if len(w.docNames)+len(names) > w.numDocs {
		return fmt.Errorf("ir: more document names than the declared %d", w.numDocs)
	}
	w.docNames = append(w.docNames, names...)
	return nil
}

// BeginTerm seals the posting list in progress and opens the next term's.
// Each term arrives once; the TD table holds the terms in the order they
// arrive, and the writer never re-sorts.
func (w *IndexWriter) BeginTerm(term string) error {
	if len(w.docLens) != w.numDocs {
		return fmt.Errorf("ir: BeginTerm with %d of %d document lengths added", len(w.docLens), w.numDocs)
	}
	if _, dup := w.terms[term]; dup || w.open && term == w.term {
		return fmt.Errorf("ir: term %q streamed twice", term)
	}
	ftd, ok := w.stats.Ftd[term]
	if !ok {
		return fmt.Errorf("ir: term %q missing from the global document-frequency map", term)
	}
	w.sealTerm()
	w.open, w.term, w.start, w.ftd, w.maxW = true, term, len(w.docids), ftd, 0
	w.idf = w.params.IDF(float64(ftd))
	w.order = append(w.order, term)
	return nil
}

// sealTerm records the open term in the dictionary. A term that got no
// postings is not a dictionary entry: it is dropped from the stream order.
func (w *IndexWriter) sealTerm() {
	if !w.open {
		return
	}
	w.open = false
	if len(w.docids) == w.start {
		w.order = w.order[:len(w.order)-1]
		return
	}
	w.terms[w.term] = TermInfo{Start: w.start, End: len(w.docids), Ftd: w.ftd, MaxScore: w.maxW}
}

// Postings appends rows to the open term's list: parallel local docids
// (the writer adds DocIDBase) and term frequencies. Scores are computed
// here, and only here, against the global statistics, folding into the running bounds and
// the term's MaxScore.
func (w *IndexWriter) Postings(docids, tfs []int64) error {
	if !w.open {
		return fmt.Errorf("ir: Postings before BeginTerm")
	}
	if len(docids) != len(tfs) {
		return fmt.Errorf("ir: %d docids vs %d tfs", len(docids), len(tfs))
	}
	if len(w.docids)+len(docids) > w.numPostings {
		return fmt.Errorf("ir: more postings than the declared %d", w.numPostings)
	}
	for i, d := range docids {
		if d < 0 || d >= int64(w.numDocs) {
			return fmt.Errorf("ir: local docid %d outside [0,%d)", d, w.numDocs)
		}
		w.docids = append(w.docids, d+w.bc.DocIDBase)
		w.tfs = append(w.tfs, tfs[i])
		s := w.params.WeightIDF(w.idf, float64(tfs[i]), float64(w.docLens[d]))
		w.scores = append(w.scores, s)
		if s < w.lo {
			w.lo = s
		}
		if s > w.hi {
			w.hi = s
		}
		if s > w.maxW {
			w.maxW = s
		}
	}
	return nil
}

// Finish seals the last term and encodes the physical tables into a fresh
// SimDisk, returning the built index. The declared document and posting
// totals must have been reached exactly. The quantization bounds are the
// computed weights' min and max widened by Stats' bounds.
func (w *IndexWriter) Finish() (*Index, error) {
	return w.FinishInto(colbm.NewSimDisk(colbm.DefaultDiskParams()))
}

// FinishInto is Finish writing the tables into store, under the table
// names the writer's BuildConfig.TablePrefix gives them.
func (w *IndexWriter) FinishInto(store colbm.BlockStore) (*Index, error) {
	w.sealTerm()
	if len(w.docLens) != w.numDocs || len(w.docNames) != w.numDocs {
		return nil, fmt.Errorf("ir: finished with %d lengths / %d names of %d documents",
			len(w.docLens), len(w.docNames), w.numDocs)
	}
	if len(w.docids) != w.numPostings {
		return nil, fmt.Errorf("ir: finished with %d of %d declared postings", len(w.docids), w.numPostings)
	}
	lo, hi := w.lo, w.hi
	if w.stats.HasScoreBounds {
		lo, hi = min(lo, w.stats.ScoreLo), max(hi, w.stats.ScoreHi)
	}
	return w.assemble(store, lo, hi)
}
