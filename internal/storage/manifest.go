package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/colbm"
	"repro/internal/ir"
	"repro/internal/primitives"
)

// FormatMagic identifies a segment manifest.
const FormatMagic = "x100-index"

// FormatVersion is the current on-disk segment format version. Readers
// reject other versions outright: the format carries compressed physical
// blocks whose layout has no in-band schema, so cross-version guessing
// would corrupt silently rather than fail loudly.
const FormatVersion = 1

// ManifestName is the manifest filename inside a segment directory.
const ManifestName = "MANIFEST.json"

// Manifest is the versioned root of one on-disk segment: everything about
// the segment's index except the column data itself. The column blobs live
// next to it as one <blob>.col file each; the manifest records their
// logical structure (specs, chunk extents) so openSegment can reattach
// cursors without reading a byte of posting data.
type Manifest struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`

	// Config is the build configuration the index was constructed with; it
	// determines which strategies the reopened index supports.
	Config ir.BuildConfig `json:"config"`
	// Params are the Okapi BM25 constants and collection statistics.
	Params primitives.BM25Params `json:"params"`
	// ScoreLo/ScoreHi are the Global-By-Value quantization bounds.
	ScoreLo float64 `json:"score_lo"`
	ScoreHi float64 `json:"score_hi"`
	// Terms is the range index: term -> posting row range + statistics.
	Terms map[string]ir.TermInfo `json:"terms"`
	// Skylines are a quantized segment's term skylines (ir.Skyline), in
	// the varint encoding of encodeSkylines. From them an append derives
	// the segment's exact score bounds under new statistics without
	// reading its postings. Optional: a term without one — over
	// ir.SkylineCap, or in a manifest written before skylines — is scanned.
	Skylines []byte `json:"skylines,omitempty"`
	// skylines is Skylines decoded and validated (decodeManifest), in
	// posting row order. When there are any, byRow lists every dictionary
	// term with its posting count: the terms of skylines first, in the same
	// order, then the terms without one.
	skylines []ir.Skyline
	byRow    []termRows

	// TD and D describe the posting and document tables.
	TD colbm.StoredTable `json:"td"`
	D  colbm.StoredTable `json:"d"`
}

// manifestPath returns the manifest location inside dir.
func manifestPath(dir string) string { return filepath.Join(dir, ManifestName) }

// writeManifest serializes the manifest into dir, via a temp file and
// rename so a torn write never yields a plausible manifest.
func writeManifest(dir string, m *Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("storage: encode manifest: %w", err)
	}
	if err := WriteFileAtomic(dir, ".manifest-*", manifestPath(dir), data); err != nil {
		return fmt.Errorf("storage: write manifest: %w", err)
	}
	return nil
}

// readManifest loads and validates the manifest of segment seg of the
// index directory dir ("." is the legacy one-segment layout). While an open
// segment of that directory holds a decode of exactly these bytes, that
// decode is returned instead of a new one: a *Manifest may be shared, so
// every caller treats it as immutable.
func readManifest(dir, seg string) (*Manifest, error) {
	m, _, err := loadManifest(dir, seg, false)
	return m, err
}

// acquireManifest is readManifest for a segment being opened: it also
// takes a reference that keeps the decode in the manifest memo until
// release runs (when the opened segment's store closes).
func acquireManifest(dir, seg string) (m *Manifest, release func(), err error) {
	return loadManifest(dir, seg, true)
}

func loadManifest(dir, seg string, hold bool) (*Manifest, func(), error) {
	segDir := filepath.Join(dir, seg)
	data, err := os.ReadFile(manifestPath(segDir))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, fmt.Errorf("storage: %q holds no segment (no %s): %w", segDir, ManifestName, os.ErrNotExist)
		}
		return nil, nil, fmt.Errorf("storage: %w", err)
	}
	e := memo.find(segDir, seg, data, hold)
	if e == nil {
		m, err := decodeManifest(segDir, seg, data)
		if err != nil || !hold {
			return m, nil, err
		}
		e = memo.add(segDir, seg, data, m)
	}
	if !hold {
		return e.m, nil, nil
	}
	return e.m, func() { memo.release(segDir, e) }, nil
}

// manifestMemo shares decoded segment manifests, keyed by segment
// directory: decoding a term dictionary costs O(vocabulary), and every
// append, merge and refresh reads every segment's manifest. An entry lives
// exactly as long as some open segment references it (openSegment's store
// releases it on Close) or an install has parked it for the open that
// follows (park); reads that open nothing use it only while it is live. A
// hit needs byte-identical content, so a rewritten, recreated or
// shipped-over segment is decoded — and validated — afresh, and a decode
// error is never kept.
type manifestMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry // keyed by segment directory path
	parked  map[string][]func()   // keyed by index directory path
}

type memoEntry struct {
	seg  string // segment name the bytes were validated against
	raw  []byte // the exact bytes m was decoded from
	m    *Manifest
	refs int // open segments holding the entry
}

func (e *memoEntry) decodedFrom(seg string, data []byte) bool {
	return e != nil && e.seg == seg && bytes.Equal(e.raw, data)
}

var memo = manifestMemo{entries: make(map[string]*memoEntry), parked: make(map[string][]func())}

// park keeps refs, references an install took on the manifests of dir's
// segments, until dir is next installed or opened, so that open reuses
// the install's decodes; it releases whatever was parked for dir before.
func (mm *manifestMemo) park(dir string, refs []func()) {
	mm.mu.Lock()
	if refs, mm.parked[dir] = mm.parked[dir], refs; mm.parked[dir] == nil {
		delete(mm.parked, dir)
	}
	mm.mu.Unlock()
	for _, release := range refs {
		release()
	}
}

// find returns segDir's entry if it was decoded from exactly data as
// segment seg, taking a reference on it when hold is set.
func (mm *manifestMemo) find(segDir, seg string, data []byte, hold bool) *memoEntry {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	e := mm.entries[segDir]
	if !e.decodedFrom(seg, data) {
		return nil
	}
	if hold {
		e.refs++
	}
	return e
}

// add makes m, decoded from data, segDir's entry and takes a reference on
// it. An identical entry that raced in first wins (m is dropped); a
// different one is replaced — its holders keep their manifest, and it
// leaves the memo when they release it.
func (mm *manifestMemo) add(segDir, seg string, data []byte, m *Manifest) *memoEntry {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	e := mm.entries[segDir]
	if !e.decodedFrom(seg, data) {
		e = &memoEntry{seg: seg, raw: data, m: m}
		mm.entries[segDir] = e
	}
	e.refs++
	return e
}

// release drops one reference on e, forgetting it with the last one.
func (mm *manifestMemo) release(segDir string, e *memoEntry) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	e.refs--
	if e.refs == 0 && mm.entries[segDir] == e {
		delete(mm.entries, segDir)
	}
}

// manifestDecodes counts decodeManifest calls: the work the memo exists
// to avoid, which the decode-count tests pin per append and merge.
var manifestDecodes atomic.Int64

// decodeManifest unmarshals and validates the manifest bytes of segment
// seg; dir only labels errors. Table and blob names become file names and
// chunk-cache keys, so every one must carry the segment's own prefix
// "<seg>." — segment names hold no dot (decodeSegments), so no two segments
// of a directory can then share a key — and every blob must name a file
// inside the segment directory. The legacy "." segment keeps the prefix it
// was built with: it is synthesized, never shipped, and always alone in its
// generation. Skylines must name dictionary terms, hold 1..ir.SkylineCap
// positive points per side, and keep sweep order.
func decodeManifest(dir, seg string, data []byte) (*Manifest, error) {
	manifestDecodes.Add(1)
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("storage: corrupt manifest in %q: %v: %w", dir, err, ErrBadManifest)
	}
	if m.Magic != FormatMagic {
		return nil, fmt.Errorf("storage: %q is not an index manifest (magic %q): %w", dir, m.Magic, ErrBadManifest)
	}
	if m.Version != FormatVersion {
		return nil, fmt.Errorf("storage: index in %q has format version %d, this build reads version %d: %w",
			dir, m.Version, FormatVersion, ErrBadManifest)
	}
	prefix := m.Config.TablePrefix
	if seg != "." && prefix != seg+"." {
		return nil, fmt.Errorf("storage: manifest in %q has table prefix %q, want %q: %w", dir, prefix, seg+".", ErrBadManifest)
	}
	for _, st := range []*colbm.StoredTable{&m.TD, &m.D} {
		if !strings.HasPrefix(st.Name, prefix) {
			return nil, fmt.Errorf("storage: manifest in %q: table %q lacks prefix %q: %w", dir, st.Name, prefix, ErrBadManifest)
		}
		for _, col := range st.Columns {
			if !strings.HasPrefix(col.Blob, prefix) || validShipName(col.Blob+blobExt) != nil {
				return nil, fmt.Errorf("storage: manifest in %q: blob %q lacks prefix %q or leaves the segment directory: %w",
					dir, col.Blob, prefix, ErrBadManifest)
			}
		}
	}
	sky, byRow, err := decodeSkylines(m.Terms, m.Skylines)
	if err != nil {
		return nil, fmt.Errorf("storage: manifest in %q: skylines: %v: %w", dir, err, ErrBadManifest)
	}
	m.skylines, m.byRow = sky, byRow
	return &m, nil
}
