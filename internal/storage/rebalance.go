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
// see, and the commit is one atomic SEGMENTS.json write through the commit
// door (commitSegments), so a reconciler killed between the two leaves the
// directory exactly as it was and a re-run converges. Like an append, each
// split half and an absorbing destination move to a new statistics epoch
// (newEpoch) with bounds folded over the segments they now hold.

// ErrNotSegmentBoundary reports a split point that falls inside a
// segment. Segments are immutable, so a partition can only split where
// one segment ends and the next begins; appending more documents creates
// new boundaries.
var ErrNotSegmentBoundary = errors.New("storage: split point is not a segment boundary")

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
// otherwise. src's SEGMENTS.json is read first and installed last
// (InstallManifest size-checks every segment it names), so a copy cut
// short leaves dst holding no index. The writer lock and manifest temp
// files are skipped: a copied lock would wedge the clone's writers.
func CopyDir(src, dst string) error {
	manifest, err := os.ReadFile(segmentsPath(src))
	legacy := errors.Is(err, os.ErrNotExist) // a pre-segment layout: no commit point to order
	if err != nil && !legacy {
		return fmt.Errorf("storage: %w", err)
	}
	err = filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		target := filepath.Join(dst, strings.TrimPrefix(p, src))
		switch name := d.Name(); {
		case d.IsDir():
			if err := os.MkdirAll(target, 0o755); err != nil {
				return fmt.Errorf("storage: %w", err)
			}
			return nil
		case name == WriterLockName || name == SegmentsManifestName || strings.HasPrefix(name, ".segments-"):
			return nil
		}
		return linkOrCopyFile(p, target)
	})
	if err != nil || legacy {
		return err
	}
	_, err = InstallManifest(dst, manifest)
	return err
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
// The right manifest moves to a new statistics epoch with bounds folded
// over its own segments (reshaped), so the new partition scores through
// the virtual kernels against its own statistics, not the pre-split
// collection's.
func PrepareSplit(dir, rightDir string, at int64) error {
	sm, err := ReadSegments(dir)
	if err != nil {
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
	rsm := *sm
	rsm.Generation, rsm.BaseDocID, rsm.Segments = 1, at, sm.Segments[idx:]
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
		// The linked manifest is byte for byte the source's: hand its
		// decode over, so the right half's statistics pass and open decode
		// nothing either.
		me, err := loadManifest(dir, e.Name, false)
		if err != nil {
			return err
		}
		memo.handOff(dstSeg, e.Name, me.raw, me.m)
	}
	if err := rsm.reshaped(rightDir); err != nil {
		return err
	}
	return commitFresh(rightDir, &rsm)
}

// reshaped moves a split half — a directory that now holds exactly
// sm.Segments, read from dir — to a new statistics epoch whose bounds are
// folded over those segments alone.
func (sm *SegmentsManifest) reshaped(dir string) error {
	st, err := collectStats(dir, sm)
	if err != nil {
		return err
	}
	b, err := st.segmentBounds()
	if err != nil {
		return err
	}
	sm.newEpoch(b)
	return nil
}

// CommitSplit shrinks the source directory to the range below at: one
// atomic manifest write under the writer lock dropping every segment the
// prepared right half took over. Idempotent — a directory already
// holding nothing at or past at returns its current generation, so a
// reconciler re-running a killed split converges. The dropped segment
// directories stay on disk for readers of older generations;
// SweepSegments reclaims them once unreferenced.
func CommitSplit(dir string, at int64) (uint64, error) {
	return commitSegments(dir, func(sm *SegmentsManifest) ([]byte, error) {
		if sm == nil || len(sm.Segments) == 0 {
			return nil, fmt.Errorf("storage: %q has no segments to reshape", dir)
		}
		if sm.Segments[len(sm.Segments)-1].DocBase < at {
			return nil, nil // already split
		}
		idx, err := splitIndex(dir, sm, at)
		if err != nil {
			return nil, err
		}
		// The collection shrank: the remaining segments serve virtually
		// against statistics and bounds of their own until re-baked.
		sm.Segments = sm.Segments[:idx]
		sm.Generation++
		if err := sm.reshaped(dir); err != nil {
			return nil, err
		}
		return sm.encode()
	})
}

// AbsorbPrep is the handoff between PrepareAbsorb and CommitAbsorb: one
// built (but uncommitted) segment holding the source partition's whole
// collection rebased into the destination's docid space.
type AbsorbPrep struct {
	dstDir, srcDir string
	entry          SegmentEntry // manifest entry to splice at commit, naming the segment built in dstDir
	bounds         bounds       // merged quantization bounds the segment is baked against
	dstGen, srcGen uint64       // generations the build is valid against
}

// PrepareAbsorb streams every posting of srcDir's current generation into
// one fresh segment of dstDir, rewriting docid bases so the source's
// documents directly follow the destination's last document — the heavy
// half of merging two adjacent partitions. Nothing is committed: dstDir's
// manifest is untouched (the built segment is unreferenced until
// CommitAbsorb) and srcDir is only read. Like an append, the new segment
// is built the one way every segment is (default chunk length), whatever
// chunk length the source's segments were written with; the directory
// supplies its docid base and statistics. cancel, when non-nil, is polled
// while streaming.
//
// The new segment is baked against the *merged* collection's statistics
// and quantization bounds (folded over both directories' segments), so its
// score columns are exact for the post-merge partition; the
// destination's existing segments fall one epoch behind at commit and
// serve materialized strategies virtually until a merge re-bakes them —
// exactly the append discipline. External directories (BuildPartitions)
// are the exception: their segments were baked against statistics
// coordinated outside both directories, and the new segment is baked
// against those same statistics (externalStats), so a merged cluster keeps
// ranking exactly like the centralized index.
func PrepareAbsorb(dstDir, srcDir string, cancel func() bool) (*AbsorbPrep, error) {
	dsm, err := ReadSegments(dstDir)
	if err != nil {
		return nil, err
	}
	ssm, err := ReadSegments(srcDir)
	if err != nil {
		return nil, err
	}
	if len(dsm.Segments) == 0 || len(ssm.Segments) == 0 {
		return nil, fmt.Errorf("storage: cannot absorb %q into %q: both need segments", srcDir, dstDir)
	}
	if dsm.External != ssm.External {
		return nil, fmt.Errorf("storage: cannot absorb %q into %q: external-statistics modes differ", srcDir, dstDir)
	}

	// Merged statistics and bounds: the destination's segments plus the
	// source's, folded exactly the way one whole-collection build would.
	st, err := collectStats(dstDir, dsm)
	if err != nil {
		return nil, err
	}
	if err := st.addSegments(srcDir, ssm.Segments); err != nil {
		return nil, err
	}
	st.sm = nil // two directories' segments: no one generation
	st.setParams()
	src := st.segs[len(dsm.Segments):]
	terms := runTerms(src)
	var bc ir.BuildConfig
	var b bounds
	if dsm.External {
		// The folded statistics are the two partitions' own; the segments
		// were baked against the collection's, coordinated outside both
		// directories, and the absorbed segment keeps those.
		bc.Stats, err = externalStats(dstDir, srcDir, st.segs, src)
	} else if b, err = st.segmentBounds(); err == nil {
		bc.Stats = st.globalStats(terms, b)
	}
	if err != nil {
		return nil, err
	}

	name, err := AllocSegmentDir(dstDir)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*AbsorbPrep, error) {
		DiscardSegment(dstDir, name)
		return nil, err
	}

	entry := spanning(name, ssm.Segments)
	entry.DocBase = dsm.nextDocID()
	bc.DocIDBase, bc.TablePrefix = entry.DocBase, name+"."
	w, err := ir.NewIndexWriter(bc, entry.Docs, entry.Postings)
	if err != nil {
		return fail(err)
	}

	// The docid-base rewrite that makes the merged range contiguous: source
	// docids are rebased to writer-local, and the writer re-globalizes
	// them against its own DocIDBase.
	if err := streamSegments(w, src, terms, ssm.Segments[0].DocBase, cancel); err != nil {
		return fail(err)
	}

	if cancel != nil && cancel() {
		return fail(ErrBuildCanceled)
	}
	if _, err := buildSegment(dstDir, name, w.FinishInto); err != nil {
		return fail(err)
	}
	return &AbsorbPrep{dstDir, srcDir, entry, b, dsm.Generation, ssm.Generation}, nil
}

// externalStats returns the statistics External segments were baked
// against: the BM25 parameters and quantization bounds every segment of
// segs must share — segments baked for different collections refuse — and
// the global document frequency of every term of src.
func externalStats(dstDir, srcDir string, segs, src []foldedSeg) (*ir.GlobalStats, error) {
	m := segs[0].m
	for _, s := range segs[1:] {
		if s.m.Params != m.Params || s.m.ScoreLo != m.ScoreLo || s.m.ScoreHi != m.ScoreHi {
			return nil, fmt.Errorf("storage: cannot absorb %q into %q: external statistics differ (%s: %+v in [%v, %v]; %s: %+v in [%v, %v])",
				srcDir, dstDir, filepath.Join(segs[0].dir, segs[0].name), m.Params, m.ScoreLo, m.ScoreHi,
				filepath.Join(s.dir, s.name), s.m.Params, s.m.ScoreLo, s.m.ScoreHi)
		}
	}
	ftd := make(map[string]int)
	for _, s := range src {
		for t, ti := range s.m.Terms {
			ftd[t] = ti.Ftd
		}
	}
	return &ir.GlobalStats{
		NumDocs:        m.Params.NumDocs,
		AvgDocLen:      m.Params.AvgDocLn,
		Ftd:            ftd,
		HasScoreBounds: true,
		ScoreLo:        m.ScoreLo,
		ScoreHi:        m.ScoreHi,
	}, nil
}

// Abandon removes the prepared (uncommitted) segment — the cleanup path
// when the merge is called off after a successful prepare.
func (p *AbsorbPrep) Abandon() {
	DiscardSegment(p.dstDir, p.entry.Name)
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
	gen, err := commitSegments(p.dstDir, func(sm *SegmentsManifest) ([]byte, error) {
		if sm.generation() != p.dstGen {
			return nil, fmt.Errorf("storage: %q advanced from generation %d to %d during absorb: %w",
				p.dstDir, p.dstGen, sm.generation(), ErrConcurrentWriter)
		}
		if ssm, err := ReadSegments(p.srcDir); err != nil {
			return nil, err
		} else if ssm.Generation != p.srcGen {
			return nil, fmt.Errorf("storage: absorb source %q advanced from generation %d to %d: %w",
				p.srcDir, p.srcGen, ssm.Generation, ErrConcurrentWriter)
		}
		sm.Generation++
		sm.newEpoch(p.bounds)
		p.entry.StatsEpoch = sm.StatsEpoch
		sm.claim(p.entry.Name)
		sm.Segments = append(sm.Segments, p.entry)
		return sm.encode()
	})
	if err != nil {
		p.Abandon()
		return 0, err
	}
	return gen, nil
}
