package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestInstallManifestRefusesEscapingNames: a shipped manifest whose segment
// name points outside the partition directory must fail as ErrBadManifest
// before anything is read or written — not resolve ../victim and install a
// generation that serves another directory's files.
func TestInstallManifestRefusesEscapingNames(t *testing.T) {
	base := t.TempDir()
	victim := filepath.Join(base, "victim")
	_, ix := buildSmallIndex(t)
	if err := writeSegment(victim, ix); err != nil { // a well-formed segment to be lured into
		t.Fatal(err)
	}
	dir := filepath.Join(base, "part")
	manifest := []byte(fmt.Sprintf(`{"magic":"x100-segments","version":1,"generation":1,"external":true,"segments":[`+
		`{"name":"../victim","docs":%d,"postings":%d,"doc_base":0}]}`, ix.NumDocs(), ix.NumPostings()))
	if _, err := InstallManifest(dir, manifest); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("InstallManifest with an escaping segment name: %v, want ErrBadManifest", err)
	}
	if _, err := ManifestSegNames(manifest); !errors.Is(err, ErrBadManifest) {
		t.Errorf("ManifestSegNames with an escaping segment name: %v, want ErrBadManifest", err)
	}
	if _, err := os.Stat(filepath.Join(dir, SegmentsManifestName)); err == nil {
		t.Error("a refused install left a super-manifest behind")
	}
}

// FuzzDecodeSegments is the manifest hardening property: whatever bytes
// land in SEGMENTS.json — truncation, corruption, overlapping or
// non-contiguous segment ranges, segment names that climb out of the
// directory or repeat — decodeSegments either returns a manifest
// satisfying the docid-contiguity and name invariants or an error wrapping
// ErrBadManifest. It never panics: every reader (server restart, replica
// bootstrap, topology observation) sits downstream of this decode.
func FuzzDecodeSegments(f *testing.F) {
	valid, err := json.Marshal(&SegmentsManifest{
		Magic:      SegmentsMagic,
		Version:    SegmentsFormatVersion,
		Generation: 3,
		StatsEpoch: 2,
		NextSeq:    3,
		BaseDocID:  0,
		Segments: []SegmentEntry{
			{Name: "seg-000001", Docs: 100, Postings: 900, DocBase: 0, DocLenSum: 9000, StatsEpoch: 1},
			{Name: "seg-000002", Docs: 50, Postings: 400, DocBase: 100, DocLenSum: 4500, StatsEpoch: 2},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"magic":"x100-topology","version":1}`))
	f.Add([]byte(`{"magic":"x100-segments","version":99}`))
	// Duplicate (overlapping) segment ranges: both claim docid base 0.
	f.Add([]byte(`{"magic":"x100-segments","version":1,"segments":[` +
		`{"name":"a","docs":10,"doc_base":0},{"name":"b","docs":10,"doc_base":0}]}`))
	// Non-contiguous ranges: a hole between the segments.
	f.Add([]byte(`{"magic":"x100-segments","version":1,"segments":[` +
		`{"name":"a","docs":10,"doc_base":0},{"name":"b","docs":10,"doc_base":99}]}`))
	f.Add([]byte(`{"magic":"x100-segments","version":1,"segments":[{"name":"a","docs":-5,"doc_base":0}]}`))
	// Names are joined onto the directory and prefix chunk-cache keys: ones
	// that escape it, nest, or repeat must not decode (ranges here are fine).
	for _, names := range [][2]string{{"../x", "b"}, {"a/b", "c"}, {"a", "a"}, {"", "b"}, {".", "b"}, {"a", ".."}} {
		f.Add([]byte(fmt.Sprintf(`{"magic":"x100-segments","version":1,"segments":[`+
			`{"name":%q,"docs":10,"doc_base":0},{"name":%q,"docs":10,"doc_base":10}]}`, names[0], names[1])))
	}
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		sm, err := decodeSegments("fuzz", data)
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("decodeSegments error %v does not wrap ErrBadManifest", err)
			}
			return
		}
		// Accepted manifests satisfy the invariants every reader assumes.
		if sm.Magic != SegmentsMagic || sm.Version != SegmentsFormatVersion {
			t.Fatalf("accepted manifest with magic %q version %d", sm.Magic, sm.Version)
		}
		base := int64(0)
		seen := map[string]bool{}
		for i, e := range sm.Segments {
			if e.Name == "" || e.Name == "." || e.Name == ".." || e.Name != filepath.Base(e.Name) || seen[e.Name] {
				t.Fatalf("accepted segment %d named %q: not a distinct single path component", i, e.Name)
			}
			seen[e.Name] = true
			if e.Docs < 0 {
				t.Fatalf("accepted segment %d with negative doc count %d", i, e.Docs)
			}
			if i == 0 {
				base = e.DocBase
			} else if e.DocBase != base {
				t.Fatalf("accepted non-contiguous segment %d: docid base %d, want %d", i, e.DocBase, base)
			}
			base += int64(e.Docs)
		}
	})
}
