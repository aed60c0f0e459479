package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

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
// index directory dir ("." is the legacy one-segment layout).
func readManifest(dir, seg string) (*Manifest, error) {
	segDir := filepath.Join(dir, seg)
	data, err := os.ReadFile(manifestPath(segDir))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("storage: %q holds no segment (no %s): %w", segDir, ManifestName, os.ErrNotExist)
		}
		return nil, fmt.Errorf("storage: %w", err)
	}
	return decodeManifest(segDir, seg, data)
}

// decodeManifest unmarshals and validates the manifest bytes of segment
// seg; dir only labels errors. Table and blob names become file names and
// chunk-cache keys, so every one must carry the segment's own prefix
// "<seg>." — segment names hold no dot (decodeSegments), so no two segments
// of a directory can then share a key — and every blob must name a file
// inside the segment directory. The legacy "." segment keeps the prefix it
// was built with: it is synthesized, never shipped, and always alone in its
// generation.
func decodeManifest(dir, seg string, data []byte) (*Manifest, error) {
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
	return &m, nil
}
