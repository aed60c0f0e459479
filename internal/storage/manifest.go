package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/colbm"
	"repro/internal/ir"
	"repro/internal/primitives"
)

// FormatMagic identifies a segment manifest.
const FormatMagic = "x100-index"

// FormatVersion is the segment format version every write produces.
// Format 2 stores the term dictionary as relation T, column files beside
// TD's and D's, records a CRC32C per chunk of every column and drops D's
// docid column. Format 1 (formatV1) — the dictionary and skylines inline
// in the manifest, no checksums, a dense D.docid — stays readable;
// nothing writes it. Readers reject every other version outright: the
// format carries compressed physical blocks whose layout has no in-band
// schema, so cross-version guessing would corrupt silently rather than
// fail loudly.
const FormatVersion = 2

// formatV1 is the first segment format, read but never written.
const formatV1 = 1

// ManifestName is the manifest filename inside a segment directory.
const ManifestName = "MANIFEST.json"

// Manifest is the versioned root of one on-disk segment: everything about
// the segment's index except the column data itself. The column blobs live
// next to it as one <blob>.col file each; the manifest records their
// logical structure (specs, chunk extents and checksums) so openSegment can
// reattach cursors without reading a byte of posting data. A decode reads
// one table's data, the dictionary T, into Terms and the skylines.
type Manifest struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`

	// Config is the build configuration the index was constructed with: its
	// chunk length is what an append to the directory builds with.
	Config ir.BuildConfig `json:"config"`
	// Params are the Okapi BM25 constants and collection statistics.
	Params primitives.BM25Params `json:"params"`
	// ScoreLo/ScoreHi are the Global-By-Value quantization bounds.
	ScoreLo float64 `json:"score_lo"`
	ScoreHi float64 `json:"score_hi"`
	// Terms is the range index: term -> posting row range + statistics,
	// decoded from T (from the manifest's "terms" in format 1).
	Terms map[string]ir.TermInfo `json:"-"`
	// skylines are the segment's term skylines (ir.Skyline), in T's order
	// (format 1: posting row order). From them an append derives the
	// segment's exact score bounds under new statistics without reading
	// its postings. A term without one — over ir.SkylineCap, or in a
	// format-1 manifest written before skylines — is scanned. When there
	// are any, byRow lists every dictionary term with its posting count:
	// the terms of skylines first, in the same order, then the terms
	// without one.
	skylines []ir.Skyline
	byRow    []termRows
	// maxima is the segment's stride-maxima cache: every Index opened from
	// this manifest shares it (openSegment), so a segment's qscore maxima
	// are computed once while any generation holds the manifest.
	maxima *ir.StrideMaxima

	// TD, D and T describe the posting, document and dictionary tables
	// (format 1 has no T).
	TD colbm.StoredTable `json:"td"`
	D  colbm.StoredTable `json:"d"`
	T  colbm.StoredTable `json:"t"`
}

// tables returns the manifest's stored tables: TD, D and, from format 2
// on, T.
func (m *Manifest) tables() []*colbm.StoredTable {
	if m.Version == formatV1 {
		return []*colbm.StoredTable{&m.TD, &m.D}
	}
	return []*colbm.StoredTable{&m.TD, &m.D, &m.T}
}

// formatV1Dictionary is what a format-1 manifest carried beside the
// fields of Manifest: the range index, and the skylines in the varint
// encoding decodeSkylines reads.
type formatV1Dictionary struct {
	Terms    map[string]ir.TermInfo `json:"terms,omitempty"`
	Skylines []byte                 `json:"skylines,omitempty"`
}

// manifestJSON is the JSON of a manifest of either format.
type manifestJSON struct {
	*Manifest
	*formatV1Dictionary
}

// manifestPath returns the manifest location inside dir.
func manifestPath(dir string) string { return filepath.Join(dir, ManifestName) }

// writeManifest serializes the manifest into dir, via a temp file and
// rename so a torn write never yields a plausible manifest, and returns
// the bytes written.
func writeManifest(dir string, m *Manifest) ([]byte, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("storage: encode manifest: %w", err)
	}
	if err := WriteFileAtomic(dir, ".manifest-*", manifestPath(dir), data); err != nil {
		return nil, fmt.Errorf("storage: write manifest: %w", err)
	}
	return data, nil
}

// readManifest loads and validates the manifest of segment seg of the
// index directory dir ("." is the legacy one-segment layout). While the
// memo holds a manifest of exactly these bytes — an open segment's decode,
// or a writer's or an install's parked handoff — that manifest is returned
// instead of a new decode: a *Manifest may be shared, so every caller
// treats it as immutable.
func readManifest(dir, seg string) (*Manifest, error) {
	e, err := loadManifest(dir, seg, false)
	if err != nil {
		return nil, err
	}
	return e.m, nil
}

// acquireManifest is readManifest for a segment being opened: it also
// takes a reference that keeps the manifest in the memo until release
// runs (when the opened segment's store closes).
func acquireManifest(dir, seg string) (m *Manifest, release func(), err error) {
	e, err := loadManifest(dir, seg, true)
	if err != nil {
		return nil, nil, err
	}
	segDir := filepath.Join(dir, seg)
	return e.m, func() { memo.release(segDir, e) }, nil
}

// loadManifest reads segment seg's manifest bytes and returns the memo
// entry that matches them, decoding them when none does; with hold it
// takes a reference on the entry. Without hold, a fresh decode is returned
// in an entry the memo does not keep.
func loadManifest(dir, seg string, hold bool) (*memoEntry, error) {
	segDir := filepath.Join(dir, seg)
	data, err := os.ReadFile(manifestPath(segDir))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("storage: %q holds no segment (no %s): %w", segDir, ManifestName, os.ErrNotExist)
		}
		return nil, fmt.Errorf("storage: %w", err)
	}
	manifestBytesRead.Add(int64(len(data)))
	if e := memo.find(segDir, seg, data, hold); e != nil {
		return e, nil
	}
	m, err := decodeManifest(segDir, seg, data)
	if err != nil {
		return nil, err
	}
	if !hold {
		return &memoEntry{seg: seg, raw: data, m: m}, nil
	}
	return memo.add(segDir, seg, data, m), nil
}

// manifestMemo shares segment manifests, keyed by segment directory:
// decoding a term dictionary costs O(vocabulary), and every append, merge
// and refresh reads every segment's manifest. An entry lives exactly as
// long as some open segment references it (openSegment's store releases
// it on Close) or a reference is parked on it for the open that follows
// (park): a writer parks the manifest it just wrote (writeSegment), an
// install the decodes it made. Reads that open nothing use an entry only
// while it is live. A hit needs byte-identical content, so a rewritten,
// recreated or shipped-over segment is decoded — and validated — afresh,
// and a decode error is never kept.
type manifestMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry // keyed by segment directory path
	parked  []parkedRef           // oldest first, at most maxParked
}

// parkedRef is a reference parked on e for the segment directory segDir.
type parkedRef struct {
	segDir string
	e      *memoEntry
}

// maxParked bounds the parked references. A segment's open normally takes
// its parked reference over within the same commit, so a handful are
// parked at a time; the bound keeps a process that writes segments it
// never opens (offline appends, an index saved for another process) from
// holding their manifests for good. A reference that falls off the end
// costs a decode at the open, nothing else.
const maxParked = 16

type memoEntry struct {
	seg  string // segment name the bytes were validated against
	raw  []byte // the exact bytes m was decoded from, or encoded into
	m    *Manifest
	refs int // open segments and parked references holding the entry
}

func (e *memoEntry) decodedFrom(seg string, data []byte) bool {
	return e != nil && e.seg == seg && bytes.Equal(e.raw, data)
}

var memo = manifestMemo{entries: make(map[string]*memoEntry)}

// handOff makes m — validated, and encoded into exactly data — segDir's
// entry and parks a reference on it, so the open (or append, or merge)
// that next reads the segment decodes nothing.
func (mm *manifestMemo) handOff(segDir, seg string, data []byte, m *Manifest) {
	mm.park(segDir, mm.add(segDir, seg, data, m))
}

// park keeps a reference taken on e until segDir is next opened
// (unpark), swept or discarded, or parked again, or until maxParked later
// references push it out; it releases whatever was parked for segDir
// before. Parking is per segment, so an install, an append and a
// concurrent merge never drop each other's references.
func (mm *manifestMemo) park(segDir string, e *memoEntry) {
	mm.mu.Lock()
	drop := mm.takeLocked(segDir)
	mm.parked = append(mm.parked, parkedRef{segDir, e})
	if len(mm.parked) > maxParked {
		drop = append(drop, mm.parked[0])
		mm.parked = slices.Delete(mm.parked, 0, 1)
	}
	mm.mu.Unlock()
	mm.releaseAll(drop)
}

// unpark releases the reference parked for segDir, if any.
func (mm *manifestMemo) unpark(segDir string) {
	mm.mu.Lock()
	drop := mm.takeLocked(segDir)
	mm.mu.Unlock()
	mm.releaseAll(drop)
}

// takeLocked removes the reference parked for segDir, if any, and returns
// it for the caller to release once it has unlocked mm.
func (mm *manifestMemo) takeLocked(segDir string) []parkedRef {
	i := slices.IndexFunc(mm.parked, func(r parkedRef) bool { return r.segDir == segDir })
	if i < 0 {
		return nil
	}
	r := mm.parked[i]
	mm.parked = slices.Delete(mm.parked, i, i+1)
	return []parkedRef{r}
}

func (mm *manifestMemo) releaseAll(refs []parkedRef) {
	for _, r := range refs {
		mm.release(r.segDir, r.e)
	}
}

// find returns segDir's entry if it holds exactly data as segment seg,
// taking a reference on it when hold is set.
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

// add makes m, decoded from (or encoded into) data, segDir's entry and
// takes a reference on it. An identical entry that raced in first wins (m
// is dropped); a different one is replaced — its holders keep their
// manifest, and it leaves the memo when they release it.
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

// ManifestDecodes returns how many segment manifests this process has
// decoded: with the memo, that is the manifests of segments it did not
// write itself and held no open decode of.
func ManifestDecodes() int64 { return manifestDecodes.Load() }

// manifestBytesRead counts the segment manifest bytes loadManifest read
// from disk — decoded or matched against the memo — the per-commit cost
// that grows with every segment's dictionary.
var manifestBytesRead atomic.Int64

// ManifestBytesRead returns how many bytes of segment manifests this
// process has read from disk.
func ManifestBytesRead() int64 { return manifestBytesRead.Load() }

// decodeManifest unmarshals the manifest bytes of segment seg, validates
// them (validate) and decodes its dictionary: format 2 reads relation T
// from the column files in dir, the segment directory (readDictionary);
// format 1 carries it inline, with its skylines (decodeSkylines). Every
// failure wraps ErrBadManifest, a chunk of T that fails its checksum also
// colbm.ErrChunkChecksum.
func decodeManifest(dir, seg string, data []byte) (*Manifest, error) {
	manifestDecodes.Add(1)
	var m Manifest
	var v1 formatV1Dictionary
	if err := json.Unmarshal(data, &manifestJSON{&m, &v1}); err != nil {
		return nil, fmt.Errorf("storage: corrupt manifest in %q: %v: %w", dir, err, ErrBadManifest)
	}
	if err := m.validate(dir, seg); err != nil {
		return nil, err
	}
	if m.Version == formatV1 {
		m.Terms = v1.Terms
		if err := m.decodeSkylines(v1.Skylines); err != nil {
			return nil, fmt.Errorf("storage: manifest in %q: skylines: %v: %w", dir, err, ErrBadManifest)
		}
		return &m, nil
	}
	if v1.Terms != nil || v1.Skylines != nil {
		return nil, fmt.Errorf("storage: manifest in %q: format %d carries an inline dictionary: %w", dir, m.Version, ErrBadManifest)
	}
	for _, st := range m.tables() {
		st.Checksums = true
	}
	if err := m.readDictionary(dir); err != nil {
		return nil, fmt.Errorf("storage: manifest in %q: dictionary: %w: %w", dir, err, ErrBadManifest)
	}
	return &m, nil
}

// readDictionary decodes relation T from its column files in the segment
// directory dir into Terms, skylines and byRow. The chunks read verify
// their checksums and are cached nowhere else.
func (m *Manifest) readDictionary(dir string) error {
	fs := readStore(dir)
	defer fs.Close()
	t, err := colbm.OpenTable(m.T, fs, colbm.NewManager(0))
	if err != nil {
		return err
	}
	terms, sky, rest, err := ir.ReadDictionary(t, m.TD.N)
	if err != nil {
		return err
	}
	m.Terms = terms
	m.setRows(sky, rest)
	return nil
}

// setRows sets skylines to sky and derives byRow from them and rest, the
// dictionary terms without a skyline. Without skylines both stay nil.
func (m *Manifest) setRows(sky []ir.Skyline, rest []string) {
	m.skylines, m.byRow = nil, nil
	if len(sky) == 0 {
		return
	}
	m.skylines = sky
	m.byRow = make([]termRows, 0, len(sky)+len(rest))
	for _, s := range sky {
		ti := m.Terms[s.Term]
		m.byRow = append(m.byRow, termRows{s.Term, ti.End - ti.Start})
	}
	for _, t := range rest {
		ti := m.Terms[t]
		m.byRow = append(m.byRow, termRows{t, ti.End - ti.Start})
	}
}

// validate checks a manifest of segment seg — decoded, or about to be
// handed to the memo by its writer — and gives it an empty stride-maxima
// cache; dir only labels errors. Table and blob names become
// file names and chunk-cache keys, so every one must carry the segment's
// own prefix "<seg>." — segment names hold no dot (decodeSegments), so no
// two segments of a directory can then share a key — and every blob must
// name a file inside the segment directory. The legacy "." segment keeps
// the prefix it was built with: it is synthesized, never shipped, and
// always alone in its generation.
func (m *Manifest) validate(dir, seg string) error {
	if m.Magic != FormatMagic {
		return fmt.Errorf("storage: %q is not an index manifest (magic %q): %w", dir, m.Magic, ErrBadManifest)
	}
	if m.Version != FormatVersion && m.Version != formatV1 {
		return fmt.Errorf("storage: index in %q has format version %d, this build reads versions %d and %d: %w",
			dir, m.Version, formatV1, FormatVersion, ErrBadManifest)
	}
	prefix := m.Config.TablePrefix
	if seg != "." && prefix != seg+"." {
		return fmt.Errorf("storage: manifest in %q has table prefix %q, want %q: %w", dir, prefix, seg+".", ErrBadManifest)
	}
	for _, st := range m.tables() {
		if !strings.HasPrefix(st.Name, prefix) {
			return fmt.Errorf("storage: manifest in %q: table %q lacks prefix %q: %w", dir, st.Name, prefix, ErrBadManifest)
		}
		for _, col := range st.Columns {
			if !strings.HasPrefix(col.Blob, prefix) || validShipName(col.Blob+blobExt) != nil {
				return fmt.Errorf("storage: manifest in %q: blob %q lacks prefix %q or leaves the segment directory: %w",
					dir, col.Blob, prefix, ErrBadManifest)
			}
		}
	}
	m.maxima = ir.NewStrideMaxima()
	return nil
}
