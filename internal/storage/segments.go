package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/primitives"
	"repro/internal/vector"
)

// Index directory layout — the only one. An index directory holds an
// *ordered set of immutable segments*; an index nobody has appended to is
// the one-segment case:
//
//	dir/
//	  SEGMENTS.json      generation-stamped super-manifest (written last,
//	                     atomically — the only mutable file)
//	  seg-000001/        one segment: MANIFEST.json + one .col file per
//	  seg-000002/        column
//	  ...
//
// Appending documents writes a brand-new segment directory and commits a
// new generation of SEGMENTS.json; nothing already on disk is modified, so
// readers of older generations keep serving from their open segments until
// they drain, and crash recovery is "whatever generation SEGMENTS.json
// names" — a half-written segment directory is simply never referenced.
//
// Statistics. BM25 scores and the Global-By-Value quantization bounds are
// collection-wide quantities; every append changes them. The manifest
// tracks a StatsEpoch that increments per append, and each segment records
// the epoch whose statistics its *baked* score/qscore columns reflect.
// Query-time statistics (df, document counts, mean length) are recomputed
// from the manifests on open — exact integer sums — and patched into every
// segment, so tf-reading strategies always score as a single
// whole-collection index would; segments whose baked columns lag the
// current epoch are flagged and score materialized strategies through the
// virtual kernels (see ir.Snapshot) until a merge re-bakes them.
const (
	// SegmentsManifestName is the super-manifest filename.
	SegmentsManifestName = "SEGMENTS.json"
	// SegmentsMagic identifies a segmented-index super-manifest.
	SegmentsMagic = "x100-segments"
	// SegmentsFormatVersion is the current super-manifest version.
	SegmentsFormatVersion = 1
)

// segDirPrefix prefixes every segment subdirectory. Names are allocated
// monotonically and never reused, so a merged segment can never be
// confused with one of its inputs.
const segDirPrefix = "seg-"

// scanPoolBytes is the private chunk-cache budget of the maintenance scans
// (the bounds scan of terms without a skyline, merge, absorb) that stream
// a segment once, outside any serving buffer manager.
const scanPoolBytes = 64 << 20

// Okapi constants, identical to the ones ir.Build bakes in.
const (
	okapiK1 = 1.2
	okapiB  = 0.75
)

// SegmentEntry describes one segment of the current generation.
type SegmentEntry struct {
	Name string `json:"name"` // subdirectory holding the segment
	Docs int    `json:"docs"`
	// Postings is the segment's TD row count (merge policy sizes runs by
	// it).
	Postings int `json:"postings"`
	// DocBase is the global docid of the segment's first document; segment
	// ranges are contiguous and disjoint in manifest order.
	DocBase int64 `json:"doc_base"`
	// DocLenSum is the exact summed token length of the segment's
	// documents — the integer the merged AvgDocLen is derived from, so
	// append-built and single-built statistics match bitwise.
	DocLenSum int64 `json:"doclen_sum"`
	// StatsEpoch is the statistics epoch the segment's baked score columns
	// reflect. Equal to the manifest's StatsEpoch = fresh (baked columns
	// served directly); older = stale (materialized strategies recompute at
	// query time until a merge re-bakes).
	StatsEpoch uint64 `json:"stats_epoch"`
}

// SegmentsManifest is the generation-stamped super-manifest of a segmented
// index directory.
type SegmentsManifest struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`

	// Generation increments on every commit (append or merge). Readers
	// serve one generation until refreshed.
	Generation uint64 `json:"generation"`
	// StatsEpoch increments on every append (merges leave the collection —
	// and therefore its statistics — unchanged).
	StatsEpoch uint64 `json:"stats_epoch"`
	// NextSeq seeds segment-directory name allocation.
	NextSeq uint64 `json:"next_seq"`
	// External marks directories whose segment statistics are coordinated
	// outside this directory (dist partition builds share collection-wide
	// stats across directories): open-time stats patching is skipped and
	// local appends are refused — appending here would silently break the
	// cross-partition score comparability dist guarantees.
	External bool `json:"external,omitempty"`

	// HasBounds/ScoreLo/ScoreHi are the collection-wide Global-By-Value
	// quantization bounds segments are baked (and virtually scored)
	// against as of StatsEpoch: always exact. (Directories written while an
	// approximate-bounds mode existed may also carry bounds_drift, has_obs,
	// obs_lo and obs_hi; decoding ignores them and the next commit drops
	// them.)
	HasBounds bool    `json:"has_bounds,omitempty"`
	ScoreLo   float64 `json:"score_lo,omitempty"`
	ScoreHi   float64 `json:"score_hi,omitempty"`

	// BaseDocID is the global docid the directory's first segment starts
	// at (0 for standalone directories). Live dist partitions stride their
	// docid ranges — partition i is initialized at i*stride — so every
	// partition appends into a disjoint global docid space with no
	// cross-partition coordination per batch.
	BaseDocID int64 `json:"base_docid,omitempty"`

	Segments []SegmentEntry `json:"segments"`
}

// Names returns the generation's segment directory names in docid order —
// the set a reader of this generation keeps alive against segment GC.
func (sm *SegmentsManifest) Names() []string {
	names := make([]string, len(sm.Segments))
	for i, e := range sm.Segments {
		names[i] = e.Name
	}
	return names
}

func segmentsPath(dir string) string { return filepath.Join(dir, SegmentsManifestName) }

// ReadSegments loads and validates the super-manifest of an index
// directory. A directory that holds no index returns an error wrapping
// os.ErrNotExist — the one "is there an index here" probe.
func ReadSegments(dir string) (*SegmentsManifest, error) {
	_, sm, err := ReadSegmentsRaw(dir)
	return sm, err
}

// ReadSegmentsRaw is ReadSegments returning the serialized manifest bytes
// alongside the decoded form — the distributed ingest path ships the
// exact committed bytes to replicas, so install commits byte-identical
// manifests instead of re-marshaling.
//
// This is the one place that knows a pre-segment layout existed: a
// directory with a top-level MANIFEST.json and no SEGMENTS.json (written
// before every directory became segmented) reads as one External segment
// named "." — it opens and serves exactly as it always did, and because
// its statistics cannot be recomputed from a super-manifest it never had,
// it takes no appends; "." is not a shippable name, so it does not
// replicate either. Re-save it to convert.
func ReadSegmentsRaw(dir string) ([]byte, *SegmentsManifest, error) {
	data, err := os.ReadFile(segmentsPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		m, merr := readManifest(dir, ".")
		if errors.Is(merr, os.ErrNotExist) {
			return nil, nil, fmt.Errorf("storage: %q is not a segmented index directory (no %s): %w",
				dir, SegmentsManifestName, os.ErrNotExist)
		}
		if merr != nil {
			return nil, nil, merr
		}
		sm := &SegmentsManifest{
			Magic: SegmentsMagic, Version: SegmentsFormatVersion,
			Generation: 1, NextSeq: 1, External: true,
			Segments: []SegmentEntry{{Name: ".", Docs: m.D.N, Postings: m.TD.N, DocBase: m.Config.DocIDBase}},
		}
		data, err = json.Marshal(sm)
		return data, sm, err
	}
	if err != nil {
		return nil, nil, fmt.Errorf("storage: %w", err)
	}
	sm, err := decodeSegments(dir, data)
	if err != nil {
		return nil, nil, err
	}
	return data, sm, nil
}

// ErrBadManifest reports manifest bytes that fail validation — malformed
// JSON, wrong magic or version; in SEGMENTS.json, segment names that are
// not distinct dotless path components or docid ranges that are not
// contiguous and disjoint (overlaps, gaps, duplicates); in a segment's
// MANIFEST.json, table or blob names outside the segment's own prefix.
// Manifests arrive off the wire and out of fuzzers as well as off local
// disk, so every decode failure is this typed error, never a panic.
var ErrBadManifest = errors.New("storage: invalid manifest")

// decodeSegments unmarshals and validates super-manifest bytes, whether
// read locally or received over the wire; dir only labels errors.
func decodeSegments(dir string, data []byte) (*SegmentsManifest, error) {
	var sm SegmentsManifest
	if err := json.Unmarshal(data, &sm); err != nil {
		return nil, fmt.Errorf("storage: corrupt segments manifest in %q: %v: %w", dir, err, ErrBadManifest)
	}
	if sm.Magic != SegmentsMagic {
		return nil, fmt.Errorf("storage: %q is not a segments manifest (magic %q): %w", dir, sm.Magic, ErrBadManifest)
	}
	if sm.Version != SegmentsFormatVersion {
		return nil, fmt.Errorf("storage: segmented index in %q has format version %d, this build reads version %d: %w",
			dir, sm.Version, SegmentsFormatVersion, ErrBadManifest)
	}
	var base int64
	seen := make(map[string]bool, len(sm.Segments))
	for i, e := range sm.Segments {
		// Names become paths under dir and chunk-cache key prefixes: one
		// that climbs out of dir would read (or install) another
		// directory's files, one that repeats would alias two segments'
		// cached chunks, and so would a dotted one ("a" and "a.TD" can
		// both name a blob "a.TD.TD.docidc").
		if err := validShipName(e.Name); err != nil || strings.Contains(e.Name, ".") || seen[e.Name] {
			return nil, fmt.Errorf("storage: segments manifest in %q: segment name %q is repeated, dotted or not a single path component: %w",
				dir, e.Name, ErrBadManifest)
		}
		seen[e.Name] = true
		if e.Docs < 0 {
			return nil, fmt.Errorf("storage: segments manifest in %q: segment %q has negative doc count %d: %w",
				dir, e.Name, e.Docs, ErrBadManifest)
		}
		if i == 0 {
			base = e.DocBase
		}
		if e.DocBase != base {
			return nil, fmt.Errorf("storage: segments manifest in %q: segment %q starts at docid %d, want %d: %w",
				dir, e.Name, e.DocBase, base, ErrBadManifest)
		}
		base += int64(e.Docs)
	}
	return &sm, nil
}

// InitSegmented creates an empty segmented directory whose first appended
// segment will start at baseDocID. Standalone directories never need
// this (AppendSegment initializes at docid 0 on first use); live dist
// partitions do, to claim disjoint global docid ranges up front.
func InitSegmented(dir string, baseDocID int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if _, err := ReadSegments(dir); !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("storage: %q already holds an index", dir)
	}
	if baseDocID < 0 {
		return fmt.Errorf("storage: negative base docid %d", baseDocID)
	}
	return writeSegments(dir, &SegmentsManifest{
		Magic:     SegmentsMagic,
		Version:   SegmentsFormatVersion,
		NextSeq:   1,
		BaseDocID: baseDocID,
	})
}

// ErrExternalStats is the one refusal a directory gives a local writer
// (append, merge): its collection statistics are coordinated outside it —
// a dist partition built with global statistics, or an index saved from
// such a build — so a local commit would silently break the score
// comparability those statistics guarantee. The directory
// serves and ships; change it by rebuilding where the statistics live.
var ErrExternalStats = errors.New("the index does not own its statistics (they are coordinated outside its directory); it serves but takes no local appends, merges or installs")

// ErrConcurrentWriter reports that another writer committed a generation
// of SEGMENTS.json between this writer's read and its commit (or is
// holding the writer lock past the acquisition timeout). The losing
// append has already cleaned up its segment directory; callers retry by
// re-running the append against the new generation.
var ErrConcurrentWriter = errors.New("storage: concurrent segments writer")

// segmentsLockName is the cross-handle commit lock file. It exists for
// writers the in-process engine lock cannot see: a second Engine handle
// on the same directory, another process, or a shipped install racing a
// local append. Creation with O_EXCL is the acquisition; the file holds
// the owner's pid. A lock left behind by a crashed process must be
// removed manually (the acquisition error names the path).
const segmentsLockName = "SEGMENTS.lock"

// WriterLockName is the commit lock's file name, exported so tooling
// that clones or inspects partition directories can recognize (and skip)
// it — a copied lock file would wedge the destination's writers behind a
// writer that never existed there.
const WriterLockName = segmentsLockName

// writerLockWait bounds how long an acquirer spins on a held lock before
// giving up with ErrConcurrentWriter. Commits hold the lock for one
// manifest read-modify-write — milliseconds — so a lock held for seconds
// is either a crashed writer or severe contention; both should surface.
const writerLockWait = 2 * time.Second

// acquireWriterLock takes the directory's commit lock, returning the
// release func. It spins (2ms steps) while another writer holds the
// lock, failing with ErrConcurrentWriter after writerLockWait.
func acquireWriterLock(dir string) (func(), error) {
	path := filepath.Join(dir, segmentsLockName)
	deadline := time.Now().Add(writerLockWait)
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			return func() { os.Remove(path) }, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("storage: writer lock: %w", err)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("storage: writer lock %q held for over %v (crashed writer? remove the file manually): %w",
				path, writerLockWait, ErrConcurrentWriter)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// writeSegments serializes the super-manifest atomically (temp + rename):
// the commit point of every append and merge.
func writeSegments(dir string, sm *SegmentsManifest) error {
	data, err := json.Marshal(sm)
	if err != nil {
		return fmt.Errorf("storage: encode segments manifest: %w", err)
	}
	if err := WriteFileAtomic(dir, ".segments-*", segmentsPath(dir), data); err != nil {
		return fmt.Errorf("storage: write segments manifest: %w", err)
	}
	return nil
}

// AllocSegmentDir creates and returns a fresh, uniquely named segment
// subdirectory (the Mkdir is the lock: concurrent allocators can never
// collide, whatever the manifest says). The caller fills it and commits it
// into the manifest — or removes it on failure.
func AllocSegmentDir(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("storage: %w", err)
	}
	seq := uint64(1)
	if sm, err := ReadSegments(dir); err == nil {
		seq = sm.NextSeq
	}
	for ; ; seq++ {
		name := fmt.Sprintf("%s%06d", segDirPrefix, seq)
		err := os.Mkdir(filepath.Join(dir, name), 0o755)
		if err == nil {
			return name, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return "", fmt.Errorf("storage: %w", err)
		}
	}
}

func segSeq(name string) uint64 {
	var seq uint64
	fmt.Sscanf(strings.TrimPrefix(name, segDirPrefix), "%d", &seq)
	return seq
}

// mergedStats recomputes the collection-wide statistics over existing
// segment manifests plus an optional un-indexed batch: exact integer
// document and length totals, and global document frequencies as the sum
// of per-segment posting-range widths. Terms are numbered as they are
// first counted (slot), so the bounds fold reads a segment's document
// frequencies by slot instead of hashing every term of every segment
// again.
type mergedStats struct {
	numDocs  int
	lenSum   int64
	slot     map[string]int // term -> index into df
	df       []int
	params   primitives.BM25Params
	segs     []*Manifest // manifest per existing segment, entry order
	segSlots [][]int     // per segment: the slot of each term of its byRow, nil when it has none
	nextBase int64       // docid base for the next appended segment
}

func collectStats(dir string, sm *SegmentsManifest, batch *corpus.Collection) (*mergedStats, error) {
	st := &mergedStats{nextBase: sm.BaseDocID}
	vocab := 0
	for _, e := range sm.Segments {
		m, err := readManifest(dir, e.Name)
		if err != nil {
			return nil, err
		}
		st.segs = append(st.segs, m)
		vocab = max(vocab, len(m.Terms))
	}
	// The largest dictionary is a lower bound on the merged one.
	st.slot = make(map[string]int, vocab)
	for i, e := range sm.Segments {
		st.addSegment(e, st.segs[i])
		st.nextBase = e.DocBase + int64(e.Docs)
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

// addSegment folds one committed segment, entry e with manifest m, into
// the statistics: its documents, its summed length and its per-term
// posting counts.
func (st *mergedStats) addSegment(e SegmentEntry, m *Manifest) {
	var slots []int
	if m.byRow != nil {
		slots = make([]int, len(m.byRow))
		for j, r := range m.byRow {
			slots[j] = st.count(r.term, r.rows)
		}
	} else {
		for t, ti := range m.Terms {
			st.count(t, ti.End-ti.Start)
		}
	}
	st.segSlots = append(st.segSlots, slots)
	st.numDocs += e.Docs
	st.lenSum += e.DocLenSum
}

// setParams derives the BM25 parameters from the folded totals.
func (st *mergedStats) setParams() {
	st.params = primitives.BM25Params{
		K1: okapiK1, B: okapiB,
		NumDocs:  float64(st.numDocs),
		AvgDocLn: float64(st.lenSum) / float64(st.numDocs),
	}
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

// ErrBuildCanceled aborts a segment build whose cancel hook fired (an
// engine shutting down mid-merge); the partially written directory is the
// caller's to remove.
var ErrBuildCanceled = errors.New("storage: segment build canceled")

// postingCursors returns cursors over a segment's docid and tf columns —
// compressed or fixed-width, whichever its layout stores.
func postingCursors(ix *ir.Index) (docCur, tfCur *colbm.Cursor, err error) {
	docName, tfName := ir.ColDocIDC, ir.ColTFC
	if !ix.Config().Compressed {
		docName, tfName = ir.ColDocID32, ir.ColTF32
	}
	docCol, err := ix.TD.Column(docName)
	if err != nil {
		return nil, nil, err
	}
	tfCol, err := ix.TD.Column(tfName)
	if err != nil {
		return nil, nil, err
	}
	return colbm.NewCursor(docCol), colbm.NewCursor(tfCol), nil
}

// scanPostings streams the named terms' postings of a segment through its
// docid and tf columns (compressed or fixed, per the segment's layout),
// docids shifted by delta, handing each vector of parallel (docids, tfs)
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

// scoreBounds returns the exact Global-By-Value bounds of the existing
// segments plus batch under the merged statistics — what a
// whole-collection build would compute. A term with a skyline in its
// segment's manifest costs its skyline points, which include the postings
// of its extreme weights (ir.Skyline); the terms without one — over
// ir.SkylineCap, or in a manifest written before skylines — are read from
// the segment's tf and docid columns and its document lengths
// (scanScoreBounds), and the batch is read whole. Either way the result is
// the same, bit for bit. ok is false when there is no posting at all.
func (st *mergedStats) scoreBounds(dir string, sm *SegmentsManifest, batch *corpus.Collection) (lo, hi float64, ok bool, err error) {
	lo, hi = math.Inf(1), math.Inf(-1)
	idf := make([]float64, len(st.df))
	for i, f := range st.df {
		idf[i] = st.params.IDF(float64(f))
	}
	for i, e := range sm.Segments {
		m, slots := st.segs[i], st.segSlots[i]
		for j, sky := range m.skylines {
			for _, side := range [2][]ir.SkyPoint{sky.Upper, sky.Lower} {
				for _, p := range side {
					foldBounds(st.params.WeightIDF(idf[slots[j]], float64(p.TF), float64(p.Len)), &lo, &hi)
				}
			}
		}
		var scan []string
		if m.byRow != nil {
			for _, r := range m.byRow[len(m.skylines):] {
				scan = append(scan, r.term)
			}
		} else {
			for t := range m.Terms {
				scan = append(scan, t)
			}
		}
		if len(scan) > 0 {
			if err := st.scanScoreBounds(dir, e.Name, m, scan, idf, &lo, &hi); err != nil {
				return 0, 0, false, err
			}
		}
	}
	for termID, list := range batch.Postings {
		if len(list) == 0 {
			continue
		}
		termIDF := idf[st.slot[batch.TermStrings[termID]]]
		for _, p := range list {
			foldBounds(st.params.WeightIDF(termIDF, float64(p.TF), float64(batch.DocLens[p.DocID])), &lo, &hi)
		}
	}
	return lo, hi, lo <= hi, nil
}

// scanScoreBounds folds the Okapi weights of the named terms of segment
// seg, read from its columns, into [lo, hi]; idf is per slot.
func (st *mergedStats) scanScoreBounds(dir, seg string, m *Manifest, terms []string, idf []float64, lo, hi *float64) error {
	ix, err := openSegment(dir, seg, m, colbm.NewManager(scanPoolBytes), nil)
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
func (st *mergedStats) globalStats(hasBounds bool, lo, hi float64) *ir.GlobalStats {
	ftd := make(map[string]int, len(st.slot))
	for t, i := range st.slot {
		ftd[t] = st.df[i]
	}
	return &ir.GlobalStats{
		NumDocs:        st.params.NumDocs,
		AvgDocLen:      st.params.AvgDocLn,
		Ftd:            ftd,
		HasScoreBounds: hasBounds,
		ScoreLo:        lo,
		ScoreHi:        hi,
	}
}

// compatibleLayout verifies an append's build configuration matches the
// physical layout the directory's segments already use — mixed layouts
// would leave some strategies runnable on only part of the collection.
func compatibleLayout(cfg ir.BuildConfig, m *Manifest) error {
	have := m.Config
	if cfg.Uncompressed != have.Uncompressed || cfg.Compressed != have.Compressed ||
		cfg.Materialized != have.Materialized || cfg.Quantized != have.Quantized ||
		cfg.ChunkLen != have.ChunkLen {
		return fmt.Errorf("storage: append layout %+v does not match the directory's existing segments", struct {
			Uncompressed, Compressed, Materialized, Quantized bool
			ChunkLen                                          int
		}{cfg.Uncompressed, cfg.Compressed, cfg.Materialized, cfg.Quantized, cfg.ChunkLen})
	}
	return nil
}

// AppendSegment indexes a document batch into one fresh immutable segment
// of the segmented directory and commits a new generation. A directory
// without a super-manifest is initialized (first segment at docid 0).
// Existing segments are not touched: the new segment is built with the
// *merged* collection statistics (so its baked score columns are current),
// the commit records the new statistics epoch and exact quantization
// bounds, and previously baked segments — now one epoch behind — serve
// materialized strategies through the query-time kernels until a merge
// re-bakes them. Cost is O(batch) to index plus, for quantized layouts,
// O(Σ skyline points) to re-derive the exact collection-wide score bounds
// from the existing segments' term skylines (scoreBounds; a term without
// a skyline is read from its segment's columns instead).
//
// Commits are read-modify-write on SEGMENTS.json, guarded two ways: the
// engine serializes its own appends/merges in process, and the on-disk
// writer lock plus a compare-and-swap on the generation covers writers
// the engine cannot see (a second handle on the directory, another
// process, a shipped install). A writer that loses the race removes its
// built segment and returns ErrConcurrentWriter instead of clobbering
// the other commit.
func AppendSegment(dir string, batch *corpus.Collection, cfg ir.BuildConfig) (uint64, error) {
	if batch == nil || len(batch.DocLens) == 0 {
		return 0, errors.New("storage: AppendSegment with an empty batch")
	}
	if cfg.Stats != nil || cfg.DocIDBase != 0 {
		return 0, errors.New("storage: AppendSegment derives Stats and DocIDBase itself; leave them zero")
	}
	sm, err := ReadSegments(dir)
	if errors.Is(err, os.ErrNotExist) {
		sm = &SegmentsManifest{Magic: SegmentsMagic, Version: SegmentsFormatVersion, NextSeq: 1}
		err = nil
	}
	if err != nil {
		return 0, err
	}
	// The statistics collected below describe this generation exactly; the
	// commit-time CAS re-checks it so a concurrent commit (which would make
	// them stale) fails this append instead of corrupting the directory.
	startGen := sm.Generation
	if sm.External {
		return 0, fmt.Errorf("storage: append to %q: %w", dir, ErrExternalStats)
	}
	st, err := collectStats(dir, sm, batch)
	if err != nil {
		return 0, err
	}
	if len(st.segs) > 0 {
		if err := compatibleLayout(cfg, st.segs[0]); err != nil {
			return 0, err
		}
	}

	hasBounds := false
	var lo, hi float64
	if cfg.Quantized {
		if lo, hi, hasBounds, err = st.scoreBounds(dir, sm, batch); err != nil {
			return 0, err
		}
	}

	name, err := AllocSegmentDir(dir)
	if err != nil {
		return 0, err
	}
	segDir := filepath.Join(dir, name)
	bc := cfg
	bc.Stats = st.globalStats(hasBounds, lo, hi)
	bc.DocIDBase = st.nextBase
	ix, err := ir.Build(batch, bc)
	if err == nil {
		err = writeSegment(segDir, ix)
	}
	if err != nil {
		os.RemoveAll(segDir)
		return 0, err
	}

	// Commit: take the cross-handle writer lock, re-read the manifest, and
	// fail if any other writer committed since our read — its commit
	// invalidates the statistics (and possibly the docid base) this
	// segment was built with.
	unlock, err := acquireWriterLock(dir)
	if err != nil {
		os.RemoveAll(segDir)
		return 0, err
	}
	defer unlock()
	switch cur, err := ReadSegments(dir); {
	case err == nil:
		if cur.Generation != startGen {
			os.RemoveAll(segDir)
			return 0, fmt.Errorf("storage: %q advanced from generation %d to %d during append: %w",
				dir, startGen, cur.Generation, ErrConcurrentWriter)
		}
	case errors.Is(err, os.ErrNotExist):
		if startGen != 0 {
			os.RemoveAll(segDir)
			return 0, fmt.Errorf("storage: segments manifest vanished from %q during append", dir)
		}
	default:
		os.RemoveAll(segDir)
		return 0, err
	}

	var batchLen int64
	for _, l := range batch.DocLens {
		batchLen += l
	}
	sm.Generation++
	sm.StatsEpoch++
	if seq := segSeq(name); seq >= sm.NextSeq {
		sm.NextSeq = seq + 1
	}
	sm.HasBounds, sm.ScoreLo, sm.ScoreHi = hasBounds, lo, hi
	if !hasBounds {
		sm.ScoreLo, sm.ScoreHi = 0, 0
	}
	sm.Segments = append(sm.Segments, SegmentEntry{
		Name:       name,
		Docs:       len(batch.DocLens),
		Postings:   batch.NumPostings(),
		DocBase:    bc.DocIDBase,
		DocLenSum:  batchLen,
		StatsEpoch: sm.StatsEpoch,
	})
	if err := writeSegments(dir, sm); err != nil {
		os.RemoveAll(segDir)
		return 0, err
	}
	return sm.Generation, nil
}

// OpenSegmented opens the current generation of a segmented directory as
// an ir.Snapshot: every segment opens lazily (manifest only) against the
// one buffer manager the caller hands in, so the caller decides the byte
// budget; collection-wide statistics are recomputed from the manifests and
// patched in, and segments whose baked columns lag the statistics epoch
// are flagged for virtual scoring. A caller that reopens the directory
// generation after generation passes the same manager each time: chunk
// keys are segment-name-scoped and segment names are never reused, so the
// unchanged segments stay warm and stale entries cannot alias. The
// returned snapshot owns the segments' storage.
func OpenSegmented(dir string, cache *colbm.Manager) (*ir.Snapshot, error) {
	sm, err := ReadSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(sm.Segments) == 0 {
		return nil, fmt.Errorf("storage: segmented index in %q has no segments", dir)
	}
	segs := make([]*ir.Index, 0, len(sm.Segments))
	virtual := make([]bool, 0, len(sm.Segments))
	var lenSum int64
	fail := func(err error) (*ir.Snapshot, error) {
		for _, ix := range segs {
			ix.Close()
		}
		return nil, err
	}
	for _, e := range sm.Segments {
		m, release, err := acquireManifest(dir, e.Name)
		if err != nil {
			return fail(err)
		}
		ix, err := openSegment(dir, e.Name, m, cache, release)
		if err != nil {
			return fail(err)
		}
		if ix.DocBase() != e.DocBase || ix.NumDocs() != e.Docs {
			ix.Close()
			return fail(fmt.Errorf("storage: segment %q covers docids [%d,%d), manifest says [%d,%d)",
				e.Name, ix.DocBase(), ix.DocBase()+int64(ix.NumDocs()), e.DocBase, e.DocBase+int64(e.Docs)))
		}
		segs = append(segs, ix)
		virtual = append(virtual, !sm.External && e.StatsEpoch != sm.StatsEpoch)
		lenSum += e.DocLenSum
	}
	snap, err := ir.NewSnapshot(segs, ir.SnapshotConfig{
		Gen:        sm.Generation,
		Virtual:    virtual,
		MergeStats: !sm.External,
		DocLenSum:  lenSum,
		HasBounds:  !sm.External && sm.HasBounds,
		ScoreLo:    sm.ScoreLo,
		ScoreHi:    sm.ScoreHi,
		Owned:      true,
	})
	if err != nil {
		return fail(err)
	}
	return snap, nil
}

// PlanMerge picks the adjacent run of segments the tiered policy would
// merge: when the segment count exceeds maxSegments, the run is sized so
// one merge restores the bound (at least 2) and placed where the summed
// posting count is smallest — merging small segments amortizes; adjacency
// is mandatory because segment order is docid order. Returns nil when no
// merge is due.
func (sm *SegmentsManifest) PlanMerge(maxSegments int) []string {
	if maxSegments < 1 {
		maxSegments = 1
	}
	n := len(sm.Segments)
	if n <= maxSegments {
		return nil
	}
	width := n - maxSegments + 1
	if width < 2 {
		width = 2
	}
	bestAt, bestSum := 0, int64(math.MaxInt64)
	var sum int64
	for i := 0; i < n; i++ {
		sum += int64(sm.Segments[i].Postings)
		if i >= width {
			sum -= int64(sm.Segments[i-width].Postings)
		}
		if i >= width-1 && sum < bestSum {
			bestAt, bestSum = i-width+1, sum
		}
	}
	names := make([]string, width)
	for i := range names {
		names[i] = sm.Segments[bestAt+i].Name
	}
	return names
}

// findRun locates names as a consecutive run inside the manifest's
// segment list, returning its index range [i, i+len(names)).
func (sm *SegmentsManifest) findRun(names []string) (int, error) {
	if len(names) == 0 {
		return 0, errors.New("storage: empty merge run")
	}
	for i := 0; i+len(names) <= len(sm.Segments); i++ {
		if sm.Segments[i].Name != names[0] {
			continue
		}
		for j := 1; j < len(names); j++ {
			if sm.Segments[i+j].Name != names[j] {
				return 0, fmt.Errorf("storage: merge run %v is not adjacent in the current generation", names)
			}
		}
		return i, nil
	}
	return 0, fmt.Errorf("storage: merge run %v not found in the current generation", names)
}

// streamSegments feeds the segments of dir, in docid order, into w —
// the rewrite both a merge and a partition absorb are. Documents go first
// (posting scores read lengths by writer-local docid); postings follow
// term-at-a-time in the sorted union of the sources' dictionaries, and
// within a term the sources stream in order, so rewritten lists stay
// docid-ordered with no sort. Docids are rebased from source-global to
// writer-local (minus base) on the offset read path. Every source opens
// once, from its manifest in ms (parallel to segs, as the caller read
// them), and keeps its cursors across terms; nothing is materialized
// beyond one vector per cursor. cancel, when non-nil, is polled between
// terms.
func streamSegments(w *ir.IndexWriter, dir string, segs []SegmentEntry, ms []*Manifest, base int64, cancel func() bool) error {
	type source struct {
		ix            *ir.Index
		docCur, tfCur *colbm.Cursor
	}
	srcs := make([]source, 0, len(segs))
	defer func() {
		for _, s := range srcs {
			s.ix.Close()
		}
	}()
	termSet := make(map[string]bool)
	for i, e := range segs {
		ix, err := openSegment(dir, e.Name, ms[i], colbm.NewManager(scanPoolBytes), nil)
		if err != nil {
			return err
		}
		docCur, tfCur, err := postingCursors(ix)
		if err != nil {
			ix.Close()
			return err
		}
		srcs = append(srcs, source{ix, docCur, tfCur})
		for t := range ix.Terms {
			termSet[t] = true
		}

		lenCol, err := ix.D.Column("len")
		if err != nil {
			return err
		}
		nameCol, err := ix.D.Column("name")
		if err != nil {
			return err
		}
		var addErr error
		if err := scanInt64Column(lenCol, func(vals []int64) {
			if addErr == nil {
				addErr = w.AddDocLens(vals)
			}
		}); err != nil {
			return err
		}
		if err := scanStrColumn(nameCol, func(vals []string) {
			if addErr == nil {
				addErr = w.AddDocNames(vals)
			}
		}); err != nil {
			return err
		}
		if addErr != nil {
			return addErr
		}
	}

	terms := make([]string, 0, len(termSet))
	for t := range termSet {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	docVec := vector.New(vector.Int64, vector.DefaultSize)
	tfVec := vector.New(vector.Int64, vector.DefaultSize)
	for _, t := range terms {
		if cancel != nil && cancel() {
			return ErrBuildCanceled
		}
		if err := w.BeginTerm(t); err != nil {
			return err
		}
		for _, s := range srcs {
			ti, ok := s.ix.Terms[t]
			if !ok {
				continue
			}
			for pos := ti.Start; pos < ti.End; {
				n := min(ti.End-pos, vector.DefaultSize)
				if err := s.docCur.ReadOffset(docVec, pos, n, -base); err != nil {
					return err
				}
				if err := s.tfCur.Read(tfVec, pos, n); err != nil {
					return err
				}
				if err := w.Postings(docVec.I64[:n], tfVec.I64[:n]); err != nil {
					return err
				}
				pos += n
			}
		}
	}
	return nil
}

// BuildMergedSegment merges the named adjacent segments into the
// preallocated segment directory `into` (from AllocSegmentDir), re-baking
// score columns with the collection statistics current at build time.
// Postings stream term-at-a-time, in sorted term order across the run's
// dictionaries, straight from the input segments' cursors (docids rebased
// from global to merged-local with the offset read path) into an
// ir.IndexWriter — the merged run is never materialized as intermediate
// posting lists, so peak memory is the writer's exactly pre-sized output
// rows plus one vector per cursor. Nothing is committed: the manifest is
// untouched until CommitMerge, and concurrent appends stay legal (they
// only ever add segments after the run; if one lands mid-build, the
// merged segment simply commits one epoch stale and serves virtually
// until the next merge). cancel, when non-nil, is polled while streaming;
// a true return abandons the build with ErrBuildCanceled so a
// shutting-down engine never waits out a long merge it is about to
// discard — and the poll doubles as the merge-throttle yield point, so a
// throttled engine's merges park between terms, not mid-read. Returns the
// statistics epoch the merged segment was baked against.
func BuildMergedSegment(dir string, names []string, into string, cancel func() bool) (uint64, error) {
	// First poll before any I/O: a throttled merge parks here until query
	// traffic drains, having touched nothing.
	if cancel != nil && cancel() {
		return 0, ErrBuildCanceled
	}
	sm, err := ReadSegments(dir)
	if err != nil {
		return 0, err
	}
	if sm.External {
		return 0, fmt.Errorf("storage: merge in %q: %w", dir, ErrExternalStats)
	}
	at, err := sm.findRun(names)
	if err != nil {
		return 0, err
	}
	st, err := collectStats(dir, sm, nil)
	if err != nil {
		return 0, err
	}
	run := sm.Segments[at : at+len(names)]
	runBase := run[0].DocBase

	var docs, postings int
	for _, e := range run {
		docs += e.Docs
		postings += e.Postings
	}

	// The merged layout is the run's layout with per-segment identity
	// stripped (manifest configs carry no Stats — writeSegment clears it).
	bc := st.segs[at].Config
	bc.Stats = st.globalStats(sm.HasBounds, sm.ScoreLo, sm.ScoreHi)
	bc.DocIDBase = runBase
	w, err := ir.NewIndexWriter(bc, docs, postings)
	if err != nil {
		return 0, err
	}

	if err := streamSegments(w, dir, run, st.segs[at:at+len(names)], runBase, cancel); err != nil {
		return 0, err
	}

	// Last poll before the (uninterruptible) table encode of the merged
	// segment; cancellation covers the streaming phase, not the encode.
	if cancel != nil && cancel() {
		return 0, ErrBuildCanceled
	}
	ix, err := w.Finish()
	if err == nil {
		err = writeSegment(filepath.Join(dir, into), ix)
	}
	if err != nil {
		return 0, err
	}
	return sm.StatsEpoch, nil
}

// CommitMerge atomically replaces the named adjacent segments with the
// merged segment built into `into`, bumping the generation (the statistics
// epoch is unchanged — a merge moves postings, not the collection). The
// replaced directories are NOT removed here: readers of older generations
// may still hold them open; garbage collection (SweepSegments) reclaims
// them once unreferenced. bakedEpoch is BuildMergedSegment's return.
//
// The commit runs under the cross-handle writer lock with a fresh
// manifest read; no generation CAS is needed — appends that landed since
// the build only add segments after the run, and findRun re-validates
// the run still exists in the generation being spliced.
func CommitMerge(dir string, names []string, into string, bakedEpoch uint64) (uint64, error) {
	unlock, err := acquireWriterLock(dir)
	if err != nil {
		return 0, err
	}
	defer unlock()
	sm, err := ReadSegments(dir)
	if err != nil {
		return 0, err
	}
	at, err := sm.findRun(names)
	if err != nil {
		return 0, err
	}
	run := sm.Segments[at : at+len(names)]
	merged := SegmentEntry{
		Name:       into,
		DocBase:    run[0].DocBase,
		StatsEpoch: bakedEpoch,
	}
	for _, e := range run {
		merged.Docs += e.Docs
		merged.Postings += e.Postings
		merged.DocLenSum += e.DocLenSum
	}
	segs := make([]SegmentEntry, 0, len(sm.Segments)-len(names)+1)
	segs = append(segs, sm.Segments[:at]...)
	segs = append(segs, merged)
	segs = append(segs, sm.Segments[at+len(names):]...)
	sm.Segments = segs
	sm.Generation++
	if seq := segSeq(into); seq >= sm.NextSeq {
		sm.NextSeq = seq + 1
	}
	if err := writeSegments(dir, sm); err != nil {
		return 0, err
	}
	return sm.Generation, nil
}

// SweepSegments garbage-collects segment directories that are neither
// referenced by the current generation nor reported in use (by a live
// reader generation or an in-progress build). Returns the removed names.
func SweepSegments(dir string, inUse func(name string) bool) ([]string, error) {
	sm, err := ReadSegments(dir)
	if err != nil {
		return nil, err
	}
	keep := make(map[string]bool, len(sm.Segments))
	for _, e := range sm.Segments {
		keep[e.Name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var removed []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, segDirPrefix) {
			continue
		}
		if keep[name] || (inUse != nil && inUse(name)) {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
			return removed, fmt.Errorf("storage: sweep %q: %w", name, err)
		}
		removed = append(removed, name)
	}
	return removed, nil
}

// WriteSegmentedIndex persists pre-built indexes as the segments of a new
// index directory, generation 1. Indexes built with a statistics override
// (BuildConfig.Stats — the dist partition path, where collection-wide
// statistics and quantization bounds were shared across *directories* at
// build time) are marked External: nothing recomputes their statistics
// from this directory's segments, and local appends are refused. A single
// index built with its own statistics is an ordinary appendable directory,
// exactly what AppendSegment leaves after a first batch. Segment docid
// ranges must be contiguous; bounds are taken from the first index
// (identical across externally coordinated builds by construction).
func WriteSegmentedIndex(dir string, segs []*ir.Index) error {
	if len(segs) == 0 {
		return errors.New("storage: WriteSegmentedIndex with no segments")
	}
	if _, err := ReadSegments(dir); !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("storage: %q already holds an index (a generation-1 manifest over it would orphan what it serves)", dir)
	}
	external := segs[0].Config().Stats != nil
	if !external && len(segs) > 1 {
		return errors.New("storage: WriteSegmentedIndex of several segments needs them built with shared statistics (BuildConfig.Stats)")
	}
	sm := &SegmentsManifest{
		Magic:      SegmentsMagic,
		Version:    SegmentsFormatVersion,
		Generation: 1,
		StatsEpoch: 1,
		External:   external,
		HasBounds:  external || segs[0].Config().Quantized,
		NextSeq:    1,
	}
	if sm.HasBounds {
		sm.ScoreLo, sm.ScoreHi = segs[0].ScoreLo, segs[0].ScoreHi
	}
	next := segs[0].DocBase()
	for _, ix := range segs {
		if ix.DocBase() != next {
			return fmt.Errorf("storage: segment docid ranges not contiguous at %d (want base %d)", ix.DocBase(), next)
		}
		next += int64(ix.NumDocs())
		name, err := AllocSegmentDir(dir)
		if err != nil {
			return err
		}
		if err := writeSegment(filepath.Join(dir, name), ix); err != nil {
			return err
		}
		lenCol, err := ix.D.Column("len")
		if err != nil {
			return err
		}
		lenSum, err := sumInt64Column(lenCol)
		if err != nil {
			return err
		}
		sm.Segments = append(sm.Segments, SegmentEntry{
			Name:       name,
			Docs:       ix.NumDocs(),
			Postings:   ix.NumPostings(),
			DocBase:    ix.DocBase(),
			DocLenSum:  lenSum,
			StatsEpoch: sm.StatsEpoch,
		})
		if seq := segSeq(name); seq >= sm.NextSeq {
			sm.NextSeq = seq + 1
		}
	}
	return writeSegments(dir, sm)
}
