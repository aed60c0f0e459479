package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
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
// Query-time statistics are exact integer sums: document counts and mean
// length are recomputed from the manifests on open and patched into every
// segment, and a query term's df is summed over the segments' dictionaries
// per query (ir.Snapshot), so tf-reading strategies always score as a
// single whole-collection index would; segments whose baked columns lag the
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
	if baseDocID < 0 {
		return fmt.Errorf("storage: negative base docid %d", baseDocID)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return commitFresh(dir, &SegmentsManifest{
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

// nextDocID is the global docid of the directory's next appended document.
func (sm *SegmentsManifest) nextDocID() int64 {
	if n := len(sm.Segments); n > 0 {
		return sm.Segments[n-1].DocBase + int64(sm.Segments[n-1].Docs)
	}
	return sm.BaseDocID
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

// ErrBuildCanceled aborts a segment build whose cancel hook fired (an
// engine shutting down mid-merge); the partially written directory is the
// caller's to remove.
var ErrBuildCanceled = errors.New("storage: segment build canceled")

// AppendSegment indexes a document batch into one fresh immutable segment
// of the segmented directory and commits a new generation. A directory
// without a super-manifest is initialized (first segment at docid 0).
// The caller hands in documents only: the directory supplies the docid
// base and the statistics, and the segment is built the one way every
// segment is (ir.BuildConfig's defaults), so it may sit beside segments
// written with another chunk length. Existing segments are not touched:
// the new segment is built with the *merged* collection statistics (so its
// baked score columns are current), the commit records the new statistics
// epoch and exact quantization bounds, and previously baked segments — now
// one epoch behind — serve materialized strategies through the query-time
// kernels until a merge re-bakes them.
//
// st is the directory's running statistics (RunningStats), which the
// append carries to the generation it commits; nil folds them from the
// directory into a value nobody keeps. Cost, with st describing the
// generation the append reads: O(batch) to index and to add its delta to
// the statistics, plus O(Σ skyline points) to re-derive the existing
// segments' exact score bounds from the term skylines st holds
// (segmentBounds; a term without a skyline is read from its segment's
// columns instead), which the batch's build widens by its own weights.
// What it reads of the directory is SEGMENTS.json. Otherwise a fold reads
// every segment's MANIFEST.json first.
//
// Commits are read-modify-write on SEGMENTS.json, guarded two ways: the
// engine serializes its own appends/merges in process, and the on-disk
// writer lock plus a compare-and-swap on the generation covers writers
// the engine cannot see (a second handle on the directory, another
// process, a shipped install). A writer that loses the race removes its
// built segment and returns ErrConcurrentWriter instead of clobbering
// the other commit.
func AppendSegment(dir string, batch *corpus.Collection, st *RunningStats) (uint64, error) {
	if batch == nil || len(batch.DocLens) == 0 {
		return 0, errors.New("storage: AppendSegment with an empty batch")
	}
	sm, err := ReadSegments(dir)
	if errors.Is(err, os.ErrNotExist) {
		sm = &SegmentsManifest{Magic: SegmentsMagic, Version: SegmentsFormatVersion, NextSeq: 1}
		err = nil
	}
	if err != nil {
		return 0, err
	}
	// The statistics below describe this generation exactly; the
	// commit-time CAS re-checks it so a concurrent commit (which would make
	// them stale) fails this append instead of corrupting the directory.
	startGen := sm.Generation
	if sm.External {
		return 0, fmt.Errorf("storage: append to %q: %w", dir, ErrExternalStats)
	}
	if st == nil {
		st = new(RunningStats)
	}
	if err := st.sync(dir, sm); err != nil {
		return 0, err
	}
	// From here st holds the batch: it describes the committed generation
	// once the commit lands, and nothing if it does not.
	committed := false
	defer func() {
		if !committed {
			st.drop()
		}
	}()
	stats, err := st.batchStats(batch)
	if err != nil {
		return 0, err
	}

	name, err := AllocSegmentDir(dir)
	if err != nil {
		return 0, err
	}
	bc := ir.BuildConfig{DocIDBase: sm.nextDocID(), Stats: stats, TablePrefix: name + "."}
	m, err := buildSegment(dir, name, func(store colbm.BlockStore) (*ir.Index, error) {
		return ir.BuildInto(batch, bc, store)
	})
	if err != nil {
		DiscardSegment(dir, name)
		return 0, err
	}
	// The build widened the existing segments' bounds by the batch's own
	// weights: its bounds are the whole collection's.
	var b bounds
	if m.ScoreLo <= m.ScoreHi {
		b = bounds{true, m.ScoreLo, m.ScoreHi}
	}

	var batchLen int64
	for _, l := range batch.DocLens {
		batchLen += l
	}
	next := *sm
	gen, err := commitSegments(dir, func(cur *SegmentsManifest) ([]byte, error) {
		// Any commit since our read (a vanished manifest reads as
		// generation 0) invalidates the statistics and possibly the docid
		// base this segment was built with.
		if cur.generation() != startGen {
			return nil, fmt.Errorf("storage: %q advanced from generation %d to %d during append: %w",
				dir, startGen, cur.generation(), ErrConcurrentWriter)
		}
		next.Generation++
		next.newEpoch(b)
		next.claim(name)
		next.Segments = append(slices.Clip(sm.Segments), SegmentEntry{
			Name:       name,
			Docs:       len(batch.DocLens),
			Postings:   batch.NumPostings(),
			DocBase:    bc.DocIDBase,
			DocLenSum:  batchLen,
			StatsEpoch: next.StatsEpoch,
		})
		return next.encode()
	})
	if err != nil {
		DiscardSegment(dir, name)
		return 0, err
	}
	st.committed(&next, len(st.segs), 0, name, m)
	committed = true
	return gen, nil
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
		// The open segment holds its own reference now: a writer's or an
		// install's parked one has served its purpose.
		memo.unpark(filepath.Join(dir, e.Name))
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

// spanning is the manifest entry of one segment, named name, holding
// exactly the documents and postings of run and starting where run starts.
func spanning(name string, run []SegmentEntry) SegmentEntry {
	e := SegmentEntry{Name: name, DocBase: run[0].DocBase}
	for _, r := range run {
		e.Docs += r.Docs
		e.Postings += r.Postings
		e.DocLenSum += r.DocLenSum
	}
	return e
}

// streamSegments feeds the folded segments segs, in docid order, into w —
// the rewrite both a merge and a partition absorb are. Documents go first
// (posting scores read lengths by writer-local docid); postings follow
// term-at-a-time in terms, the sorted union of the sources' dictionaries
// (runTerms), and within a term the sources stream in order, so rewritten
// lists stay docid-ordered with no sort. Docids are rebased from source-global to
// writer-local (minus base) on the offset read path. Every source opens
// once, from the manifest the caller folded, and keeps its cursors across
// terms; nothing is materialized beyond one vector per cursor. cancel,
// when non-nil, is polled between terms.
func streamSegments(w *ir.IndexWriter, segs []foldedSeg, terms []string, base int64, cancel func() bool) error {
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
	for _, s := range segs {
		ix, err := openSegment(s.dir, s.name, s.m, colbm.NewManager(scanPoolBytes), nil)
		if err != nil {
			return err
		}
		docCur, tfCur, err := postingCursors(ix)
		if err != nil {
			ix.Close()
			return err
		}
		srcs = append(srcs, source{ix, docCur, tfCur})

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
// score columns with the collection statistics of the generation st
// describes. Postings stream term-at-a-time, in sorted term order across
// the run's dictionaries, straight from the input segments' cursors
// (docids rebased from global to merged-local with the offset read path)
// into an ir.IndexWriter — the merged run is never materialized as
// intermediate posting lists, so peak memory is the writer's exactly
// pre-sized output rows plus one vector per cursor. The merged segment
// takes the default chunk length, whatever its inputs were written with.
// Nothing is committed: the manifest is untouched until CommitMerge, and
// concurrent appends stay legal (they only ever add segments after the
// run; if one lands mid-build, the merged segment simply commits one epoch
// stale and serves virtually until the next merge). cancel, when non-nil,
// is polled while streaming; a true return abandons the build with
// ErrBuildCanceled so a shutting-down engine never waits out a long merge
// it is about to discard. Returns the statistics epoch the merged segment
// was baked against.
//
// st is all the build reads of the collection — the run's manifests, the
// document frequencies of its terms, the totals, the epoch and the bounds
// — and must not change while it runs: nil folds the directory's current
// generation; a holder that goes on committing passes the copy
// RunningStats.PlanMerge returned.
func BuildMergedSegment(dir string, names []string, into string, cancel func() bool, st *RunningStats) (uint64, error) {
	// First poll before any I/O: a canceled merge touches nothing.
	if cancel != nil && cancel() {
		return 0, ErrBuildCanceled
	}
	if st == nil {
		sm, err := ReadSegments(dir)
		if err != nil {
			return 0, err
		}
		if sm.External {
			return 0, fmt.Errorf("storage: merge in %q: %w", dir, ErrExternalStats)
		}
		if st, err = collectStats(dir, sm); err != nil {
			return 0, err
		}
	}
	sm := st.sm
	if sm == nil || st.dir != dir {
		return 0, fmt.Errorf("storage: merge in %q handed statistics of no generation of it", dir)
	}
	at, err := sm.findRun(names)
	if err != nil {
		return 0, err
	}
	run := spanning(into, sm.Segments[at:at+len(names)])
	segs := st.segs[at : at+len(names)]
	terms := runTerms(segs)

	w, err := ir.NewIndexWriter(ir.BuildConfig{
		DocIDBase:   run.DocBase,
		Stats:       st.globalStats(terms, bounds{sm.HasBounds, sm.ScoreLo, sm.ScoreHi}),
		TablePrefix: into + ".",
	}, run.Docs, run.Postings)
	if err != nil {
		return 0, err
	}

	if err := streamSegments(w, segs, terms, run.DocBase, cancel); err != nil {
		return 0, err
	}

	// Last poll before the (uninterruptible) table encode of the merged
	// segment; cancellation covers the streaming phase, not the encode.
	if cancel != nil && cancel() {
		return 0, ErrBuildCanceled
	}
	if _, err := buildSegment(dir, into, w.FinishInto); err != nil {
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
//
// st, when not nil, is the directory's running statistics: describing the
// generation the commit replaces, it is carried to the one it commits —
// the merged segment's manifest, parked by its build, takes the run's
// place — and is dropped otherwise.
func CommitMerge(dir string, names []string, into string, bakedEpoch uint64, st *RunningStats) (uint64, error) {
	var held bool
	var next *SegmentsManifest
	var at int
	gen, err := commitSegments(dir, func(sm *SegmentsManifest) ([]byte, error) {
		if sm == nil {
			return nil, fmt.Errorf("storage: merge in %q: %w", dir, os.ErrNotExist)
		}
		var err error
		if at, err = sm.findRun(names); err != nil {
			return nil, err
		}
		held = st != nil && st.describes(dir, sm)
		merged := spanning(into, sm.Segments[at:at+len(names)])
		merged.StatsEpoch = bakedEpoch
		segs := make([]SegmentEntry, 0, len(sm.Segments)-len(names)+1)
		segs = append(segs, sm.Segments[:at]...)
		segs = append(segs, merged)
		segs = append(segs, sm.Segments[at+len(names):]...)
		next = sm
		next.Segments = segs
		next.Generation++
		next.claim(into)
		return next.encode()
	})
	if err != nil || st == nil {
		return gen, err
	}
	if !held {
		st.drop()
		return gen, nil
	}
	m, err := readManifest(dir, into)
	if err != nil {
		st.drop()
		return gen, nil
	}
	st.committed(next, at, len(names), into, m)
	return gen, nil
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
		if err := DiscardSegment(dir, name); err != nil {
			return removed, fmt.Errorf("storage: sweep %q: %w", name, err)
		}
		removed = append(removed, name)
	}
	return removed, nil
}

// DiscardSegment removes segment directory name of dir — a build that
// failed or was called off, or one no generation references any more —
// and drops the manifest reference its writer or an install parked in the
// memo. Only segments no commit references may be discarded.
func DiscardSegment(dir, name string) error {
	segDir := filepath.Join(dir, name)
	memo.unpark(segDir)
	return os.RemoveAll(segDir)
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
		return fmt.Errorf("storage: %q already holds an index", dir)
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
		HasBounds:  true,
		ScoreLo:    segs[0].ScoreLo,
		ScoreHi:    segs[0].ScoreHi,
		NextSeq:    1,
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
		if _, err := writeSegment(filepath.Join(dir, name), ix); err != nil {
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
		sm.claim(name)
	}
	return commitFresh(dir, sm)
}
