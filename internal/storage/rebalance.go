package storage

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/ir"
)

// Partition range surgery. The elastic control plane reshapes a cluster's
// docid ranges online: splitting one partition directory into two at a
// segment boundary, or merging an adjacent partition's segments into its
// left neighbor by rewriting their docid bases. Both follow the same
// prepare/commit discipline the rest of the segmented layer uses — all
// heavy I/O happens in a prepare step that touches nothing a reader can
// see, and the commit is one atomic SEGMENTS.json write under the writer
// lock, so a reconciler killed between the two leaves the directory
// exactly as it was and a re-run converges.

// ErrNotSegmentBoundary reports a split point that falls inside a
// segment. Segments are immutable, so a partition can only split where
// one segment ends and the next begins; appending more documents creates
// new boundaries.
var ErrNotSegmentBoundary = errors.New("storage: split point is not a segment boundary")

// ErrRangeOpUnsupported reports a directory whose layout cannot be
// split or merged in place: quantized non-External layouts bake scores
// against collection-wide bounds that a range change invalidates.
var ErrRangeOpUnsupported = errors.New("storage: partition range op unsupported for this layout")

// splitRangeLayout rejects layouts whose baked columns cannot survive a
// range change. Quantized grids are derived from collection-wide score
// bounds; shrinking or growing the collection invalidates the recorded
// bounds, and unlike BM25 the virtual kernels quantize against the
// manifest bounds rather than recomputing them — so the directory would
// keep serving a grid for a collection that no longer exists.
func splitRangeLayout(dir string, sm *SegmentsManifest) error {
	if len(sm.Segments) == 0 {
		return fmt.Errorf("storage: %q has no segments to reshape", dir)
	}
	if sm.External {
		// External stats are coordinated outside the directory and stay
		// valid whatever this directory holds — but appends are refused on
		// External dirs, so the elastic (live-ingest) path never sees one.
		return nil
	}
	m, err := readManifest(dir, sm.Segments[0].Name)
	if err != nil {
		return err
	}
	if m.Config.Quantized {
		return fmt.Errorf("storage: %q uses a quantized layout whose bounds a range change would invalidate: %w",
			dir, ErrRangeOpUnsupported)
	}
	return nil
}

// splitIndex locates the split point as a segment boundary: the index of
// the first segment whose DocBase is at. A point inside a segment (or at
// or before the directory's base) is ErrNotSegmentBoundary.
func splitIndex(dir string, sm *SegmentsManifest, at int64) (int, error) {
	for i, e := range sm.Segments {
		if e.DocBase == at && i > 0 {
			return i, nil
		}
	}
	var bounds []int64
	for i, e := range sm.Segments {
		if i > 0 {
			bounds = append(bounds, e.DocBase)
		}
	}
	return 0, fmt.Errorf("storage: %q cannot split at docid %d (segment boundaries: %v): %w",
		dir, at, bounds, ErrNotSegmentBoundary)
}

// CopyDir clones an index directory into dst — the local bootstrap of a
// replica that will then evolve on its own. Segment files are hardlinked
// where the filesystem allows (see linkOrCopyFile), copied as a stream
// otherwise. The writer lock file is skipped: a copied lock would wedge
// the clone's commits behind a writer that never existed there.
func CopyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		target := filepath.Join(dst, strings.TrimPrefix(p, src))
		switch {
		case d.IsDir():
			if err := os.MkdirAll(target, 0o755); err != nil {
				return fmt.Errorf("storage: %w", err)
			}
			return nil
		case d.Name() == WriterLockName:
			return nil
		}
		return linkOrCopyFile(p, target)
	})
}

// linkOrCopyFile hardlinks src to dst, falling back to a byte copy on
// filesystems without link support. Segment files are immutable, so a
// shared inode is safe: sweeping the source later unlinks only its name.
func linkOrCopyFile(src, dst string) error {
	if err := os.Link(src, dst); err == nil || errors.Is(err, os.ErrExist) {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("storage: %w", err)
	}
	return out.Close()
}

// PrepareSplit materializes the right half of a split: every segment of
// dir starting at docid at is hardlinked (or copied) into rightDir, and
// rightDir gets its own super-manifest based at at. The source directory
// is untouched and keeps serving its full range; rightDir must not be
// live (an existing rightDir — a crashed earlier attempt — is wiped and
// rebuilt). The split point must be a segment boundary.
//
// For non-External directories the right manifest's statistics epoch is
// set past every copied segment's baked epoch, so the new partition
// serves materialized strategies through the virtual kernels against its
// own recomputed local statistics instead of the pre-split collection's.
func PrepareSplit(dir, rightDir string, at int64) error {
	sm, err := ReadSegments(dir)
	if err != nil {
		return err
	}
	if err := splitRangeLayout(dir, sm); err != nil {
		return err
	}
	idx, err := splitIndex(dir, sm, at)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(rightDir); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := os.MkdirAll(rightDir, 0o755); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	rsm := &SegmentsManifest{
		Magic:      SegmentsMagic,
		Version:    SegmentsFormatVersion,
		Generation: 1,
		StatsEpoch: sm.StatsEpoch,
		NextSeq:    sm.NextSeq,
		External:   sm.External,
		HasBounds:  sm.HasBounds,
		ScoreLo:    sm.ScoreLo,
		ScoreHi:    sm.ScoreHi,
		BaseDocID:  at,
		Segments:   append([]SegmentEntry(nil), sm.Segments[idx:]...),
	}
	if !sm.External {
		// Past every baked epoch: all copied segments score virtually
		// against the new partition's own statistics.
		rsm.StatsEpoch = sm.StatsEpoch + 1
	}
	for _, e := range rsm.Segments {
		srcSeg, dstSeg := filepath.Join(dir, e.Name), filepath.Join(rightDir, e.Name)
		if err := os.MkdirAll(dstSeg, 0o755); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		files, err := SegmentFiles(dir, e.Name)
		if err != nil {
			return err
		}
		for _, f := range files {
			if err := linkOrCopyFile(filepath.Join(srcSeg, f.Name), filepath.Join(dstSeg, f.Name)); err != nil {
				return err
			}
		}
	}
	return writeSegments(rightDir, rsm)
}

// CommitSplit shrinks the source directory to the range below at: one
// atomic manifest write under the writer lock dropping every segment the
// prepared right half took over. Idempotent — a directory already
// holding nothing at or past at returns its current generation, so a
// reconciler re-running a killed split converges. The dropped segment
// directories stay on disk for readers of older generations;
// SweepSegments reclaims them once unreferenced.
func CommitSplit(dir string, at int64) (uint64, error) {
	unlock, err := acquireWriterLock(dir)
	if err != nil {
		return 0, err
	}
	defer unlock()
	sm, err := ReadSegments(dir)
	if err != nil {
		return 0, err
	}
	if err := splitRangeLayout(dir, sm); err != nil {
		return 0, err
	}
	idx := len(sm.Segments)
	for i, e := range sm.Segments {
		if e.DocBase >= at {
			idx = i
			break
		}
	}
	if idx == len(sm.Segments) {
		return sm.Generation, nil // already split
	}
	if sm.Segments[idx].DocBase != at || idx == 0 {
		return 0, fmt.Errorf("storage: %q cannot commit split at docid %d: %w", dir, at, ErrNotSegmentBoundary)
	}
	sm.Segments = sm.Segments[:idx]
	sm.Generation++
	if !sm.External {
		// The collection shrank: remaining baked columns reflect the
		// pre-split statistics and must serve virtually until re-baked.
		sm.StatsEpoch++
	}
	if err := writeSegments(dir, sm); err != nil {
		return 0, err
	}
	return sm.Generation, nil
}

// AbsorbPrep is the handoff between PrepareAbsorb and CommitAbsorb: one
// built (but uncommitted) segment holding the source partition's whole
// collection rebased into the destination's docid space.
type AbsorbPrep struct {
	dstDir, srcDir string
	name           string       // freshly allocated segment dir in dstDir
	entry          SegmentEntry // manifest entry to splice at commit
	dstGen, srcGen uint64       // generations the build is valid against
}

// PrepareAbsorb streams every posting of srcDir's current generation into
// one fresh segment of dstDir, rewriting docid bases so the source's
// documents directly follow the destination's last document — the heavy
// half of merging two adjacent partitions. Nothing is committed: dstDir's
// manifest is untouched (the built segment is unreferenced until
// CommitAbsorb) and srcDir is only read. Both directories must use the
// same physical layout; quantized non-External layouts are refused (see
// ErrRangeOpUnsupported). cancel, when non-nil, is polled while
// streaming.
//
// The new segment is baked against the *merged* collection's statistics,
// so its score columns are exact for the post-merge partition; the
// destination's existing segments fall one epoch behind at commit and
// serve materialized strategies virtually until a merge re-bakes them —
// exactly the append discipline.
func PrepareAbsorb(dstDir, srcDir string, cancel func() bool) (*AbsorbPrep, error) {
	dsm, err := ReadSegments(dstDir)
	if err != nil {
		return nil, err
	}
	ssm, err := ReadSegments(srcDir)
	if err != nil {
		return nil, err
	}
	if err := splitRangeLayout(dstDir, dsm); err != nil {
		return nil, err
	}
	if err := splitRangeLayout(srcDir, ssm); err != nil {
		return nil, err
	}
	if dsm.External != ssm.External {
		return nil, fmt.Errorf("storage: cannot absorb %q into %q: external-statistics modes differ", srcDir, dstDir)
	}

	// Merged statistics: the destination's segments plus the source's,
	// counted exactly the way one whole-collection build would.
	st, err := collectStats(dstDir, dsm, nil)
	if err != nil {
		return nil, err
	}
	dstNext := st.nextBase
	srcBase := ssm.Segments[0].DocBase
	var srcDocs, srcPostings int
	var srcLenSum int64
	srcManifests := make([]*Manifest, len(ssm.Segments))
	for i, e := range ssm.Segments {
		if srcManifests[i], err = readManifest(srcDir, e.Name); err != nil {
			return nil, err
		}
		st.addSegment(e, srcManifests[i])
		srcDocs += e.Docs
		srcPostings += e.Postings
		srcLenSum += e.DocLenSum
	}
	st.setParams()
	if len(st.segs) > 0 {
		if err := compatibleLayout(srcManifests[0].Config, st.segs[0]); err != nil {
			return nil, err
		}
	}

	name, err := AllocSegmentDir(dstDir)
	if err != nil {
		return nil, err
	}
	segDir := filepath.Join(dstDir, name)
	fail := func(err error) (*AbsorbPrep, error) {
		os.RemoveAll(segDir)
		return nil, err
	}

	bc := srcManifests[0].Config
	bc.Stats = st.globalStats(false, 0, 0)
	bc.DocIDBase = dstNext
	w, err := ir.NewIndexWriter(bc, srcDocs, srcPostings)
	if err != nil {
		return fail(err)
	}

	// The docid-base rewrite that makes the merged range contiguous: source
	// docids are rebased to writer-local, and the writer re-globalizes
	// them against its own DocIDBase.
	if err := streamSegments(w, srcDir, ssm.Segments, srcManifests, srcBase, cancel); err != nil {
		return fail(err)
	}

	if cancel != nil && cancel() {
		return fail(ErrBuildCanceled)
	}
	ix, err := w.Finish()
	if err == nil {
		err = writeSegment(segDir, ix)
	}
	if err != nil {
		return fail(err)
	}
	return &AbsorbPrep{
		dstDir: dstDir,
		srcDir: srcDir,
		name:   name,
		entry: SegmentEntry{
			Name:      name,
			Docs:      srcDocs,
			Postings:  srcPostings,
			DocBase:   dstNext,
			DocLenSum: srcLenSum,
		},
		dstGen: dsm.Generation,
		srcGen: ssm.Generation,
	}, nil
}

// Abandon removes the prepared (uncommitted) segment — the cleanup path
// when the merge is called off after a successful prepare.
func (p *AbsorbPrep) Abandon() {
	os.RemoveAll(filepath.Join(p.dstDir, p.name))
}

// CommitAbsorb splices the prepared segment into the destination's
// manifest: one atomic write under the writer lock, with a generation
// compare-and-swap against both directories — a commit that landed on
// either side since the prepare (which would invalidate the merged
// statistics or the absorbed contents) fails with ErrConcurrentWriter
// and removes the built segment, exactly like a losing append. On
// success the destination covers both ranges; the source directory is
// unchanged and is the caller's to retire.
func CommitAbsorb(p *AbsorbPrep) (uint64, error) {
	unlock, err := acquireWriterLock(p.dstDir)
	if err != nil {
		p.Abandon()
		return 0, err
	}
	defer unlock()
	sm, err := ReadSegments(p.dstDir)
	if err != nil {
		p.Abandon()
		return 0, err
	}
	if sm.Generation != p.dstGen {
		p.Abandon()
		return 0, fmt.Errorf("storage: %q advanced from generation %d to %d during absorb: %w",
			p.dstDir, p.dstGen, sm.Generation, ErrConcurrentWriter)
	}
	if ssm, err := ReadSegments(p.srcDir); err != nil {
		p.Abandon()
		return 0, err
	} else if ssm.Generation != p.srcGen {
		p.Abandon()
		return 0, fmt.Errorf("storage: absorb source %q advanced from generation %d to %d: %w",
			p.srcDir, p.srcGen, ssm.Generation, ErrConcurrentWriter)
	}
	sm.Generation++
	if !sm.External {
		sm.StatsEpoch++
	}
	p.entry.StatsEpoch = sm.StatsEpoch
	if seq := segSeq(p.name); seq >= sm.NextSeq {
		sm.NextSeq = seq + 1
	}
	sm.Segments = append(sm.Segments, p.entry)
	if err := writeSegments(p.dstDir, sm); err != nil {
		p.Abandon()
		return 0, err
	}
	return sm.Generation, nil
}
