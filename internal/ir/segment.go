package ir

import (
	"errors"
	"fmt"
	"sort"
)

// Snapshot is an immutable view over an ordered set of index segments —
// one generation of a segmented index. Each segment is a complete Index
// over a disjoint, contiguous global docid range (its columns store global
// docids, see BuildConfig.DocIDBase), so a snapshot searches like one
// logical index: per-segment plans run over per-segment cursors and their
// top-k lists merge by (score, docid), exactly the discipline the dist
// broker applies across partition servers.
//
// Statistics: BM25 needs collection-wide document frequencies, document
// counts and mean lengths, or per-segment scores are not comparable and
// the merged ranking diverges from a single-index build. A snapshot built
// with MergeStats patches every segment's in-memory Params at construction
// time — from exact integer document/length totals — and its searchers
// take a query term's global df as the sum of the per-segment
// posting-range widths (Searcher.resolve), mirroring how dist bakes global
// stats into partition builds. Snapshots over externally coordinated
// segments (dist partitions, plain single indexes) skip the patch and
// score with each segment's baked df.
//
// A Snapshot is immutable after construction and safe for concurrent use
// through SearcherPool. Closing it (owned snapshots only) releases every
// segment's storage.
type Snapshot struct {
	subs  []snapSeg
	gen   uint64
	owned bool
	// mergeStats: a term's df is the sum of its posting counts over the
	// segments, not a segment's baked Ftd (SnapshotConfig.MergeStats).
	mergeStats bool

	numDocs     int
	numPostings int
}

// snapSeg is one member segment plus its query-time disposition.
type snapSeg struct {
	ix *Index
	// virtual marks a segment whose baked score/qscore columns predate the
	// current collection statistics (appends happened after it was built):
	// materialized strategies recompute its scores at query time through
	// the BM25Stored kernels — bitwise what a fresh bake would hold — so
	// stale segments rank identically to freshly baked ones.
	virtual bool
}

// SnapshotConfig shapes NewSnapshot.
type SnapshotConfig struct {
	// Gen is the generation this snapshot serves (0 for ungenerated views).
	Gen uint64
	// Virtual flags segments whose baked score columns are stale (nil =
	// none). Must be empty or len(segs).
	Virtual []bool
	// MergeStats recomputes collection-wide statistics over the segment
	// set: each segment's Params are patched, and per-term document
	// frequencies are summed over the segments at query time
	// (self-contained segmented directories). Leave false when
	// the segments were built with externally guaranteed global statistics
	// (dist partitions) or for plain single-index views.
	MergeStats bool
	// DocLenSum is the exact summed document length across all segments,
	// required with MergeStats (the storage layer records it per segment
	// precisely so the merged AvgDocLen is derived from exact integers).
	DocLenSum int64
	// HasBounds/ScoreLo/ScoreHi carry the collection-wide Global-By-Value
	// quantization bounds to patch into every segment (MergeStats only) —
	// the exact bounds the segmented commit recorded, which virtual
	// scoring must quantize against.
	HasBounds        bool
	ScoreLo, ScoreHi float64
	// Owned snapshots close their segments' storage on Close.
	Owned bool
}

// NewSnapshot assembles a snapshot over segments ordered by docid base.
// Segment docid ranges must be contiguous and disjoint.
func NewSnapshot(segs []*Index, cfg SnapshotConfig) (*Snapshot, error) {
	if len(segs) == 0 {
		return nil, errors.New("ir: snapshot with no segments")
	}
	if len(cfg.Virtual) != 0 && len(cfg.Virtual) != len(segs) {
		return nil, fmt.Errorf("ir: snapshot has %d segments but %d virtual flags", len(segs), len(cfg.Virtual))
	}
	sn := &Snapshot{gen: cfg.Gen, owned: cfg.Owned, mergeStats: cfg.MergeStats, subs: make([]snapSeg, len(segs))}
	next := segs[0].DocBase()
	for i, ix := range segs {
		if ix == nil {
			return nil, fmt.Errorf("ir: snapshot segment %d is nil", i)
		}
		if ix.DocBase() != next {
			return nil, fmt.Errorf("ir: segment %d starts at docid %d, want %d (ranges must be contiguous)",
				i, ix.DocBase(), next)
		}
		next += int64(ix.NumDocs())
		sn.subs[i] = snapSeg{ix: ix}
		if len(cfg.Virtual) > 0 {
			sn.subs[i].virtual = cfg.Virtual[i]
		}
		sn.numDocs += ix.NumDocs()
		sn.numPostings += ix.NumPostings()
	}
	if cfg.MergeStats {
		if err := sn.patchMergedStats(cfg); err != nil {
			return nil, err
		}
	}
	return sn, nil
}

// SingleSnapshot wraps one index as a single-segment snapshot, statistics
// untouched (the index's own are authoritative: a plain build's local
// stats, or a dist partition's externally provided global ones). The
// caller keeps ownership of the index's storage.
func SingleSnapshot(ix *Index) *Snapshot {
	return &Snapshot{
		subs:        []snapSeg{{ix: ix}},
		numDocs:     ix.NumDocs(),
		numPostings: ix.NumPostings(),
	}
}

// patchMergedStats installs the collection-wide BM25 inputs into every
// segment: Params from exact integer totals, and the recorded
// collection-wide quantization bounds. After the patch, and with the
// per-query df of Searcher.resolve, dynamic (tf-reading) plans on any
// segment score exactly as a single whole-collection index would.
//
// Dictionaries are left alone: a segment's is its decoded manifest's,
// which the storage layer shares with every other open of the same
// segment — the previous generation's in-flight searches among them — so
// a commit costs nothing per term of the segments it did not write.
func (sn *Snapshot) patchMergedStats(cfg SnapshotConfig) error {
	lenSum := cfg.DocLenSum
	if lenSum <= 0 {
		return errors.New("ir: snapshot with MergeStats needs the exact DocLenSum (non-empty segments always have one)")
	}
	params := sn.subs[0].ix.Params
	params.NumDocs = float64(sn.numDocs)
	params.AvgDocLn = float64(lenSum) / float64(sn.numDocs)
	for _, sub := range sn.subs {
		sub.ix.Params = params
		if cfg.HasBounds {
			sub.ix.ScoreLo, sub.ix.ScoreHi = cfg.ScoreLo, cfg.ScoreHi
		}
	}
	return nil
}

// Gen returns the generation this snapshot serves.
func (sn *Snapshot) Gen() uint64 { return sn.gen }

// NumDocs returns the total document count across segments.
func (sn *Snapshot) NumDocs() int { return sn.numDocs }

// NumPostings returns the total posting count across segments.
func (sn *Snapshot) NumPostings() int { return sn.numPostings }

// NumSegments returns the segment count.
func (sn *Snapshot) NumSegments() int { return len(sn.subs) }

// NumVirtual returns how many segments score materialized strategies
// through the virtual (query-time) kernels because their baked columns are
// stale. Zero after a full merge.
func (sn *Snapshot) NumVirtual() int {
	n := 0
	for _, sub := range sn.subs {
		if sub.virtual {
			n++
		}
	}
	return n
}

// Segments returns the member indexes in docid order. Treat as read-only.
func (sn *Snapshot) Segments() []*Index {
	out := make([]*Index, len(sn.subs))
	for i, sub := range sn.subs {
		out[i] = sub.ix
	}
	return out
}

// Primary returns the first segment — the representative callers inspect
// for physical configuration, compression ratios, BM25 constants.
func (sn *Snapshot) Primary() *Index { return sn.subs[0].ix }

// Resolve maps a requested strategy to the one that runs (Index.Resolve);
// every segment stores the same columns.
func (sn *Snapshot) Resolve(strat Strategy) (Strategy, error) {
	return sn.subs[0].ix.Resolve(strat)
}

// segmentOf returns the position of the segment owning a global docid.
func (sn *Snapshot) segmentOf(docid int64) (int, error) {
	i := sort.Search(len(sn.subs), func(i int) bool {
		ix := sn.subs[i].ix
		return ix.DocBase()+int64(ix.NumDocs()) > docid
	})
	if i == len(sn.subs) || docid < sn.subs[i].ix.DocBase() {
		return 0, fmt.Errorf("ir: docid %d outside the snapshot's ranges", docid)
	}
	return i, nil
}

// Close releases every segment's storage for owned snapshots; a view that
// does not own its segments is left untouched. The engine calls this when
// a generation's last in-flight search drains.
func (sn *Snapshot) Close() error {
	if !sn.owned {
		return nil
	}
	var first error
	for _, sub := range sn.subs {
		if err := sub.ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
