package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

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
	if err := atomicWriteFile(dir, ".manifest-*", manifestPath(dir), data); err != nil {
		return fmt.Errorf("storage: write manifest: %w", err)
	}
	return nil
}

// readManifest loads and validates the manifest in dir.
func readManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("storage: %q holds no segment (no %s): %w", dir, ManifestName, os.ErrNotExist)
		}
		return nil, fmt.Errorf("storage: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("storage: corrupt manifest in %q: %w", dir, err)
	}
	if m.Magic != FormatMagic {
		return nil, fmt.Errorf("storage: %q is not an index manifest (magic %q)", dir, m.Magic)
	}
	if m.Version != FormatVersion {
		return nil, fmt.Errorf("storage: index in %q has format version %d, this build reads version %d",
			dir, m.Version, FormatVersion)
	}
	return &m, nil
}
