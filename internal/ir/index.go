package ir

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/primitives"
	"repro/internal/vector"
)

// Column names of the TD (term-document) table. Each storage treatment of
// the paper's ladder is a separate physical column over the same logical
// rows. There is one layout: every index stores all six columns, so every
// strategy runs on every segment and reads touch only what it needs:
//
//	docid32/tf32  — uncompressed 32-bit baseline (runs BoolAND..BM25T)
//	docidc/tfc    — PFOR-DELTA / PFOR with 8-bit codewords (run BM25TC)
//	score         — materialized 32-bit float w(D,T) (run BM25TCM)
//	qscore        — 8-bit Global-By-Value quantized score (run BM25TCMQ8)
const (
	ColDocID32 = "docid32"
	ColTF32    = "tf32"
	ColDocIDC  = "docidc"
	ColTFC     = "tfc"
	ColScore   = "score"
	ColQScore  = "qscore"
)

// tdColumns lists the TD table's columns in the order the build writes
// them; RestoreIndex refuses a posting table without any one of them.
var tdColumns = [...]string{ColDocID32, ColTF32, ColDocIDC, ColTFC, ColScore, ColQScore}

// postingChunkLen is the values per storage chunk of every column but the
// names when BuildConfig.ChunkLen is 0: 16 Ki values, 128 PFOR-DELTA entry
// strides. A query does not scan TD end to end; each term is a range scan
// over its own rows (the range index), and a bounded scan skips the strides
// the top-k cannot reach. Chunks sized to a posting list rather than to a
// table scan make a miss read about the term it serves, not 128 Ki rows
// around it. D.len is fetched by position, so it takes the same size, and
// so does the dictionary T.
const postingChunkLen = 16 * 1024

// nameChunkLen is the values per storage chunk of the document table's name
// column. Names are read one at a time, after top-k (Index.DocName), so
// their chunk is sized for a point lookup: a miss reads a page or two of the
// column, not all of it.
const nameChunkLen = 256

// TermInfo is the range-index entry for one term: its posting rows occupy
// TD rows [Start, End), and Ftd documents contain the term (equal to
// End-Start except under a distributed global-statistics override).
// MaxScore is the largest w(D,T) in the term's posting list, the per-term
// bound of max-score pruning (§5, Buckley & Lewit); the build computes it
// and it is persisted with the range index.
type TermInfo struct {
	Start, End int
	Ftd        int
	MaxScore   float64
}

// BuildConfig holds what one build needs beyond its documents: where its
// docids start, what it scores against and how its tables are named. Which
// columns an index carries is fixed (tdColumns), and so is how they are
// chunked (postingChunkLen) and the disk an in-memory build simulates
// (colbm.DefaultDiskParams); only tests set ChunkLen or PoolBytes.
type BuildConfig struct {
	ChunkLen int // values per storage chunk of every column but the names (nameChunkLen); 0 = postingChunkLen

	// PoolBytes is the in-memory build's chunk-cache budget (0 =
	// unbounded). It describes the building process, not the index, so a
	// persisted segment does not record it.
	PoolBytes int64 `json:"-"`

	// DocIDBase is the global docid of the collection's first document.
	// Segmented indexes assign each segment a disjoint docid range by
	// building it from a batch with local docids and a non-zero base: the
	// stored docid columns (and the document table's docid column) carry
	// base-shifted — i.e. global — identifiers, so results from different
	// segments merge without any per-query remapping, exactly as dist
	// partitions do.
	DocIDBase int64

	// TablePrefix namespaces the table (and therefore column blob and
	// chunk-cache) names. Segments of one segmented directory share a
	// buffer manager, and cache keys are blob-derived — without a
	// per-segment prefix every segment's "TD.docid32#0" would alias the
	// same frame and serve one segment's postings to another's cursors.
	TablePrefix string

	// Stats, when non-nil, overrides the collection-derived BM25
	// statistics. Distributed deployments pass the *global* statistics to
	// every partition build so that per-node scores are comparable and the
	// merged top-N equals the centralized top-N (§3.4; without this each
	// node would rank by partition-local idf).
	Stats *GlobalStats
}

// GlobalStats carries the collection-wide quantities BM25 needs.
type GlobalStats struct {
	NumDocs   float64
	AvgDocLen float64
	Ftd       map[string]int // term -> number of documents containing it

	// Global-By-Value quantization bounds: the collection-wide min and max
	// w(D,T). Like idf, these must be shared by every partition build, or
	// 8-bit quantized scores from different servers are not comparable and
	// the distributed merge diverges from the centralized ranking.
	HasScoreBounds   bool
	ScoreLo, ScoreHi float64
}

// OkapiParams returns the BM25 parameters for a collection of numDocs
// documents of mean length avgDocLen, with the Okapi constants k1 = 1.2
// and b = 0.75: the one declaration of the constants every baked weight,
// quantization bound and query-time kernel uses.
func OkapiParams(numDocs, avgDocLen float64) primitives.BM25Params {
	return primitives.BM25Params{K1: 1.2, B: 0.75, NumDocs: numDocs, AvgDocLn: avgDocLen}
}

// CollectionStats extracts the global statistics of a collection, for
// distribution to partition indexes, including the collection-wide score
// bounds every partition quantizes against.
func CollectionStats(c *corpus.Collection) *GlobalStats {
	st := localStats(c)
	params := OkapiParams(st.NumDocs, st.AvgDocLen)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, list := range c.Postings {
		if len(list) == 0 {
			continue
		}
		idf := params.IDF(float64(len(list)))
		for _, p := range list {
			w := params.WeightIDF(idf, float64(p.TF), float64(c.DocLens[p.DocID]))
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
		}
	}
	if lo <= hi {
		st.HasScoreBounds = true
		st.ScoreLo, st.ScoreHi = lo, hi
	}
	return st
}

// localStats is a collection's own statistics without score bounds: what
// Build scores against when the caller gives none.
func localStats(c *corpus.Collection) *GlobalStats {
	st := &GlobalStats{
		NumDocs:   float64(len(c.DocLens)),
		AvgDocLen: c.AvgDocLen(),
		Ftd:       make(map[string]int),
	}
	for termID, list := range c.Postings {
		if len(list) > 0 {
			st.Ftd[c.TermStrings[termID]] = len(list)
		}
	}
	return st
}

// DefaultBuildConfig is the build configuration every caller uses: the
// zero value, the default chunk length with the collection's own
// statistics from docid 0.
func DefaultBuildConfig() BuildConfig { return BuildConfig{} }

// Index is a searchable inverted-file index stored in ColumnBM.
type Index struct {
	TD *colbm.Table // posting table, ordered on (term, docid)
	D  *colbm.Table // document table: len, name; row i is document DocBase()+i
	// T is the term dictionary as a relation (dict.go), what Terms and
	// Skylines are decoded from; nil for an index restored from a format-1
	// segment, which stored its dictionary in the manifest.
	T *colbm.Table

	// Terms is the range index, resident: one map lookup per query term.
	Terms  map[string]TermInfo
	Params primitives.BM25Params

	// Skylines holds the terms' (tf, len) skylines (see Skyline), in T's
	// order (the posting row order of a format-1 segment); a term over
	// SkylineCap has none.
	Skylines []Skyline

	// Quantization bounds: min and max w(D,T) over the collection (the L
	// and U of the paper's Global-By-Value formula).
	ScoreLo, ScoreHi float64

	// Store holds the column blobs (a SimDisk for in-memory builds, a
	// storage.FileStore for persisted indexes); Cache is the compressed
	// chunk cache all cursor reads go through.
	Store colbm.BlockStore
	Cache colbm.ChunkCache

	// maxima caches the terms' per-stride qscore maxima, computed on first
	// use by a bounded BM25TCMQ8 plan; nil on an Index not made by Build or
	// RestoreIndex, whose plans then run unbounded.
	maxima *StrideMaxima

	cfg BuildConfig
}

// Build constructs an index from a collection by streaming its non-empty
// posting lists through an IndexWriter in term-id order: a generated
// collection numbers its terms by frequency rank, which keeps the frequent
// terms' rows together. Scores use bc.Stats when set — every term must
// then be in Stats.Ftd — and the collection's own statistics otherwise;
// Config().Stats stays what the caller passed. The columns go to a fresh
// SimDisk over colbm.DefaultDiskParams.
func Build(c *corpus.Collection, bc BuildConfig) (*Index, error) {
	return BuildInto(c, bc, colbm.NewSimDisk(colbm.DefaultDiskParams()))
}

// BuildInto is Build writing the columns into store, under the table names
// bc.TablePrefix gives them: storage builds a segment straight into its
// directory this way.
func BuildInto(c *corpus.Collection, bc BuildConfig, store colbm.BlockStore) (*Index, error) {
	st := bc.Stats
	if st == nil {
		st = localStats(c)
	}
	w := newIndexWriter(bc, st, len(c.DocLens), c.NumPostings())
	if err := w.AddDocLens(c.DocLens); err != nil {
		return nil, err
	}
	if err := w.AddDocNames(c.DocNames); err != nil {
		return nil, err
	}
	docids, tfs := make([]int64, vector.DefaultSize), make([]int64, vector.DefaultSize)
	for id, list := range c.Postings {
		if len(list) == 0 {
			continue
		}
		if err := w.BeginTerm(c.TermStrings[id]); err != nil {
			return nil, err
		}
		for len(list) > 0 {
			n := min(len(list), len(docids))
			for i, p := range list[:n] {
				docids[i], tfs[i] = p.DocID, p.TF
			}
			if err := w.Postings(docids[:n], tfs[:n]); err != nil {
				return nil, err
			}
			list = list[n:]
		}
	}
	return w.FinishInto(store)
}

// assemble encodes the writer's flattened posting rows into the physical
// TD, D and T tables in store, quantizing against [lo, hi] — the tail of
// Finish. Both docid columns of TD encode from the same flattened slice,
// and TD's qscore is produced a chunk at a time as the builder encodes it:
// the writer's row arrays are the only place the whole run exists as Go
// slices. D stores no docid column: row i is document DocIDBase + i. T
// holds the dictionary in sorted term order, whatever order the TD rows
// keep. This is the one place term skylines are computed.
func (w *IndexWriter) assemble(store colbm.BlockStore, lo, hi float64) (*Index, error) {
	bc, docids, tfs, scores, docLens := w.bc, w.docids, w.tfs, w.scores, w.docLens
	chunkLen := bc.ChunkLen
	if chunkLen == 0 {
		chunkLen = postingChunkLen
	}
	cache := colbm.NewManager(bc.PoolBytes)
	// TD table, in tdColumns order.
	tdb := colbm.NewBuilder(bc.TablePrefix+"TD", store, cache, []colbm.ColumnSpec{
		{Name: ColDocID32, Type: vector.Int64, Enc: colbm.EncFixed32, ChunkLen: chunkLen},
		{Name: ColTF32, Type: vector.Int64, Enc: colbm.EncFixed32, ChunkLen: chunkLen},
		{Name: ColDocIDC, Type: vector.Int64, Enc: colbm.EncPFORDelta, Bits: 8, ChunkLen: chunkLen},
		{Name: ColTFC, Type: vector.Int64, Enc: colbm.EncPFOR, Bits: 8, ChunkLen: chunkLen},
		{Name: ColScore, Type: vector.Float64, ChunkLen: chunkLen},
		{Name: ColQScore, Type: vector.UInt8, ChunkLen: chunkLen},
	})
	tdb.SetInt64(ColDocID32, docids)
	tdb.SetInt64(ColTF32, tfs)
	tdb.SetInt64(ColDocIDC, docids)
	tdb.SetInt64(ColTFC, tfs)
	tdb.SetFloat64(ColScore, scores)
	tdb.SetUInt8Func(ColQScore, len(scores), func(dst []uint8, off int) {
		primitives.QuantizeGlobalByValue(dst, scores[off:], lo, hi, 256, nil, len(dst))
	})
	td, err := tdb.Build()
	if err != nil {
		return nil, err
	}

	// D table: length, name. Row i is document DocIDBase + i: plans fetch
	// a document's row by position.
	db := colbm.NewBuilder(bc.TablePrefix+"D", store, cache, []colbm.ColumnSpec{
		{Name: "len", Type: vector.Int64, Enc: colbm.EncPFOR, Bits: 8, ChunkLen: chunkLen},
		{Name: "name", Type: vector.Str, ChunkLen: nameChunkLen},
	})
	db.SetInt64("len", docLens)
	db.AppendStr("name", w.docNames...)
	d, err := db.Build()
	if err != nil {
		return nil, err
	}

	// T table: the dictionary in sorted term order. An append's batch and
	// a merge stream their terms sorted already.
	order := w.order
	if !slices.IsSorted(order) {
		order = slices.Clone(order)
		slices.Sort(order)
	}
	sky := buildSkylines(order, w.terms, docids, tfs, docLens, bc.DocIDBase)
	t, err := buildDictionary(bc.TablePrefix+"T", store, cache, chunkLen, order, w.terms, sky)
	if err != nil {
		return nil, err
	}

	return &Index{
		TD:       td,
		D:        d,
		T:        t,
		Terms:    w.terms,
		Params:   w.params,
		Skylines: sky,
		ScoreLo:  lo,
		ScoreHi:  hi,
		Store:    store,
		Cache:    cache,
		maxima:   NewStrideMaxima(),
		cfg:      bc,
	}, nil
}

// RestoreIndex reassembles an Index from persisted components: the tables
// reopened over a block store and chunk cache (dict is nil for a format-1
// segment), plus the scalar state the manifest carries. The storage
// package's segment opener, under storage.OpenSegmented, is the only
// intended caller; Build remains the constructor of a fresh index over a
// SimDisk. A document table that stores a docid column (format 1) has it
// decoded once, and it must be dense — row i holds cfg.DocIDBase + i, what
// every plan's positional fetch of D assumes — or the error wraps
// ErrDocTableNotDense. The posting table must carry every TD column, since
// any strategy may read any of them; the error names the first missing
// one. maxima is the segment's stride-maxima cache, shared
// with every other Index restored from the same segment.
func RestoreIndex(td, d, dict *colbm.Table, terms map[string]TermInfo, params primitives.BM25Params,
	scoreLo, scoreHi float64, store colbm.BlockStore, cache colbm.ChunkCache, cfg BuildConfig,
	maxima *StrideMaxima) (*Index, error) {
	for _, name := range tdColumns {
		if _, err := td.Column(name); err != nil {
			return nil, err
		}
	}
	if _, err := d.Column("docid"); err == nil {
		if err := checkDense(d, cfg.DocIDBase); err != nil {
			return nil, err
		}
	}
	return &Index{
		TD:      td,
		D:       d,
		T:       dict,
		Terms:   terms,
		Params:  params,
		ScoreLo: scoreLo,
		ScoreHi: scoreHi,
		Store:   store,
		Cache:   cache,
		maxima:  maxima,
		cfg:     cfg,
	}, nil
}

// ErrDocTableNotDense is returned, wrapped, for a document table whose row
// i does not hold docid DocIDBase + i.
var ErrDocTableNotDense = errors.New("ir: document table is not dense on docid")

// checkDense reads d's docid column through one cursor and checks row i
// holds base + i.
func checkDense(d *colbm.Table, base int64) error {
	col, err := d.Column("docid")
	if err != nil {
		return err
	}
	cur, v := colbm.NewCursor(col), vector.New(vector.Int64, vector.DefaultSize)
	for pos := 0; pos < col.N; pos += vector.DefaultSize {
		n := min(vector.DefaultSize, col.N-pos)
		if err := cur.Read(v, pos, n); err != nil {
			return err
		}
		for i, id := range v.I64[:n] {
			if want := base + int64(pos+i); id != want {
				return fmt.Errorf("%w: row %d of table %q holds docid %d, want %d",
					ErrDocTableNotDense, pos+i, d.Name, id, want)
			}
		}
	}
	return nil
}

// Config returns the build configuration the index was made with.
func (ix *Index) Config() BuildConfig { return ix.cfg }

// Close releases the index's store (a no-op for simulated disks, real
// file handles for persisted indexes). The index is unusable afterwards.
func (ix *Index) Close() error { return ix.Store.Close() }

// NumDocs returns the collection size.
func (ix *Index) NumDocs() int { return ix.D.N }

// NumPostings returns the TD row count.
func (ix *Index) NumPostings() int { return ix.TD.N }

// DocBase returns the global docid of this index's first document (0 for
// non-segmented indexes; a segment's docid-range start otherwise).
func (ix *Index) DocBase() int64 { return ix.cfg.DocIDBase }

// DocName fetches one document name by global docid (the post-TopN lookup
// of the materialized plans). The document table stores this index's docid
// range only, so the global id maps to row docid-DocBase.
func (ix *Index) DocName(docid int64) (string, error) {
	return (&nameReader{ix: ix}).name(docid)
}

// nameReader resolves the index's docids to document names through one
// cursor and one vector, made on the first lookup, so that every lookup
// after it allocates the name and nothing else.
type nameReader struct {
	ix  *Index
	cur *colbm.Cursor
	v   *vector.Vector
}

func (r *nameReader) name(docid int64) (string, error) {
	if r.cur == nil {
		col, err := r.ix.D.Column("name")
		if err != nil {
			return "", err
		}
		r.cur, r.v = colbm.NewCursor(col), vector.New(vector.Str, 1)
	}
	if err := r.cur.Read(r.v, int(docid-r.ix.cfg.DocIDBase), 1); err != nil {
		return "", err
	}
	return r.v.S[0], nil
}

// BitsPerPosting reports the stored bits per TD tuple for a column, the
// §3.3 compression-ratio metric (the paper reports docid 32 -> 11.98 and
// tf 32 -> 8.13 with 8-bit codewords).
func (ix *Index) BitsPerPosting(col string) (float64, error) {
	c, err := ix.TD.Column(col)
	if err != nil {
		return 0, err
	}
	return c.BitsPerValue(), nil
}
