package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/vector"
)

// TestInstallManifestRefusesEscapingNames: a shipped manifest whose segment
// name points outside the partition directory must fail as ErrBadManifest
// before anything is read or written — not resolve ../victim and install a
// generation that serves another directory's files.
func TestInstallManifestRefusesEscapingNames(t *testing.T) {
	base := t.TempDir()
	victim := filepath.Join(base, "victim")
	_, ix := buildSmallIndex(t)
	if _, err := writeSegment(victim, ix); err != nil { // a well-formed segment to be lured into
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

// TestOpenRefusesBlobNamesOfAnotherSegment: segments of a directory share
// one buffer manager whose keys are blob names, so a segment manifest that
// names its blobs under another segment's prefix would have both segments
// served whichever copy of a chunk loaded first. Open must refuse it (and a
// blob name that climbs out of the segment directory) as ErrBadManifest,
// even when the table prefix itself is the segment's own.
func TestOpenRefusesBlobNamesOfAnotherSegment(t *testing.T) {
	coll := segTestCollection(t)
	for name, rename := range map[string]func(blob string) string{
		"other segment's prefix": func(b string) string { return "seg-000001." + strings.TrimPrefix(b, "seg-000002.") },
		"escaping the segment":   func(b string) string { return "seg-000002./../" + b },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			appendInBatches(t, dir, coll, 2)
			segDir := filepath.Join(dir, "seg-000002")
			m, err := readManifest(dir, "seg-000002")
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range m.tables() {
				st.Name = rename(st.Name)
				for i := range st.Columns {
					col := &st.Columns[i]
					to := rename(col.Blob)
					if !strings.Contains(to, "/") {
						if err := os.Rename(filepath.Join(segDir, col.Blob+blobExt), filepath.Join(segDir, to+blobExt)); err != nil {
							t.Fatal(err)
						}
					}
					col.Blob = to
				}
			}
			if _, err := writeManifest(segDir, m); err != nil {
				t.Fatal(err)
			}
			snap, err := OpenSegmented(dir, colbm.NewManager(0))
			if err == nil {
				snap.Close()
			}
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("OpenSegmented over seg-000002 with blob names %q...: %v, want ErrBadManifest", m.TD.Columns[0].Blob, err)
			}
		})
	}
}

// TestOpenRefusesNonDenseDocTable: plans fetch a document's length from
// row docid - DocIDBase of the document table, so a format-1 segment whose
// D.docid column is not DocIDBase + row — here, one gap before its last
// document, written through colbm.NewBuilder with a manifest that agrees —
// must fail to open with ir.ErrDocTableNotDense naming the segment, and
// serve no ranking. (Format 2 stores no D.docid: row i is the document.)
func TestOpenRefusesNonDenseDocTable(t *testing.T) {
	dir := t.TempDir()
	appendInBatches(t, dir, segTestCollection(t), 2)
	segDir := filepath.Join(dir, "seg-000002")
	toFormatV1(t, dir, "seg-000002", func(m *Manifest) {
		fs, err := NewFileStore(segDir)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		spec := colbm.ColumnSpec{Name: "docid", Type: vector.Int64, Enc: colbm.EncPFORDelta, Bits: 8, ChunkLen: m.D.Columns[0].Spec.ChunkLen}
		b := colbm.NewBuilder(m.D.Name, fs, colbm.NewManager(0), []colbm.ColumnSpec{spec})
		ids := make([]int64, m.D.N)
		for row := range ids {
			ids[row] = m.Config.DocIDBase + int64(row)
		}
		ids[len(ids)-1]++
		b.SetInt64("docid", ids)
		tab, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m.D.Columns = append(slices.Clone(m.D.Columns), tab.Stored().Columns[0])
	})

	snap, err := OpenSegmented(dir, colbm.NewManager(0))
	if err == nil {
		snap.Close()
	}
	if !errors.Is(err, ir.ErrDocTableNotDense) || !strings.Contains(err.Error(), segDir) {
		t.Fatalf("OpenSegmented with a gap in seg-000002's D.docid: %v, want ir.ErrDocTableNotDense naming %s", err, segDir)
	}
}

// TestDecodeSegmentsRefusesDottedNames: segment "a" may name a table
// "a.TD.TD" under its own prefix "a.", which segment "a.TD" also owns, so
// dotted segment names would let two segments share cache keys again.
func TestDecodeSegmentsRefusesDottedNames(t *testing.T) {
	data := []byte(`{"magic":"x100-segments","version":1,"segments":[` +
		`{"name":"a","docs":10,"doc_base":0},{"name":"a.TD","docs":10,"doc_base":10}]}`)
	if _, err := decodeSegments("dotted", data); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("decodeSegments with segments a and a.TD: %v, want ErrBadManifest", err)
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
			if e.Name == "" || strings.Contains(e.Name, ".") || e.Name != filepath.Base(e.Name) || seen[e.Name] {
				t.Fatalf("accepted segment %d named %q: not a distinct dotless path component", i, e.Name)
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

// FuzzDecodeManifest is the same property for a segment's MANIFEST.json,
// which replicas read off shipped files: decodeManifest never panics,
// fails only with ErrBadManifest, and every manifest it accepts keeps its
// names inside the segment — the table prefix is "<segment>." (the legacy
// "." segment keeps its own), every table and blob name starts with it,
// and every blob file lies directly in the segment directory. Accepted
// skylines name dictionary terms, hold 1..ir.SkylineCap positive points a
// side in sweep order, and come with every term counted by row. The seeds
// are format-1 manifests and the format-2 manifests of a real segment,
// whose T files the decode reads from the segment directory.
func FuzzDecodeManifest(f *testing.F) {
	stored := func(prefix, table string) colbm.StoredTable {
		return colbm.StoredTable{Name: prefix + table, N: 1, Columns: []colbm.StoredColumn{
			{N: 1, Blob: prefix + table + ".c", Chunks: []colbm.ChunkInfo{{Off: 0, Size: 8, N: 1}}},
		}}
	}
	terms := map[string]ir.TermInfo{"t": {Start: 0, End: 1, Ftd: 1}, "u": {Start: 1, End: 3, Ftd: 2}}
	manifest := func(prefix, td string, sky ...ir.Skyline) []byte {
		m := Manifest{Magic: FormatMagic, Version: formatV1, Config: ir.BuildConfig{TablePrefix: prefix},
			Terms: terms, TD: stored(td, "TD"), D: stored(prefix, "D")}
		return encodeFormatV1(f, &m, encodeSkylines(terms, sky))
	}
	valid := manifest("seg-000001.", "seg-000001.")
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(manifest("", ""))                       // legacy: built without a prefix
	f.Add(manifest("seg-000001.", "seg-000002.")) // another segment's blobs
	f.Add(manifest("seg-000002.", "seg-000002."))
	f.Add(manifest("seg-000001.", "seg-000001./../"))
	f.Add(manifest("seg-000001.", "../seg-000001."))
	f.Add(manifest("seg-000001.", "seg-000001.",
		ir.Skyline{Term: "t", Upper: []ir.SkyPoint{{TF: 1, Len: 3}}, Lower: []ir.SkyPoint{{TF: 1, Len: 3}}},
		ir.Skyline{Term: "u", Upper: []ir.SkyPoint{{TF: 4, Len: 9}, {TF: 2, Len: 5}}, Lower: []ir.SkyPoint{{TF: 2, Len: 5}, {TF: 4, Len: 9}}}))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"magic":"x100-index","version":99}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	// Format 2: a real segment, its manifest, and the same with its T
	// described under another segment's prefix, with a wrong row count and
	// with a chunk's checksum changed.
	dir := f.TempDir()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs, cfg.Vocab, cfg.AvgDocLen, cfg.NumTopics = 200, 400, 30, 4
	if _, err := AppendSegment(dir, corpus.Generate(cfg), nil); err != nil {
		f.Fatal(err)
	}
	segDir := filepath.Join(dir, "seg-000001")
	v2, err := os.ReadFile(manifestPath(segDir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	for _, edit := range []func(m *Manifest){
		func(m *Manifest) { m.T.Name = "seg-000002.T" },
		func(m *Manifest) { m.T.N++ },
		func(m *Manifest) { m.T.Columns[0].Chunks[0].CRC++ },
		func(m *Manifest) { m.TD.N-- },
	} {
		m, err := decodeManifest(segDir, "seg-000001", v2)
		if err != nil {
			f.Fatal(err)
		}
		edit(m)
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, seg := range []string{"seg-000001", "."} {
			m, err := decodeManifest(segDir, seg, data)
			if err != nil {
				if !errors.Is(err, ErrBadManifest) {
					t.Fatalf("decodeManifest(%q) error %v does not wrap ErrBadManifest", seg, err)
				}
				continue
			}
			prefix := m.Config.TablePrefix
			if seg != "." && prefix != seg+"." {
				t.Fatalf("segment %q accepted with table prefix %q", seg, prefix)
			}
			for _, st := range m.tables() {
				if !strings.HasPrefix(st.Name, prefix) {
					t.Fatalf("segment %q accepted table %q outside prefix %q", seg, st.Name, prefix)
				}
				for _, col := range st.Columns {
					file := filepath.Join("segdir", col.Blob+blobExt)
					if !strings.HasPrefix(col.Blob, prefix) || filepath.Dir(file) != "segdir" {
						t.Fatalf("segment %q accepted blob %q: outside prefix %q or the segment directory", seg, col.Blob, prefix)
					}
				}
			}
			if m.skylines != nil && len(m.byRow) != len(m.Terms) {
				t.Fatalf("accepted %d skylines with %d of %d terms counted by row", len(m.skylines), len(m.byRow), len(m.Terms))
			}
			for _, sky := range m.skylines {
				if _, ok := m.Terms[sky.Term]; !ok {
					t.Fatalf("accepted a skyline for %q, not in the dictionary", sky.Term)
				}
				for dir, side := range map[int64][]ir.SkyPoint{-1: sky.Upper, 1: sky.Lower} {
					if len(side) < 1 || len(side) > ir.SkylineCap {
						t.Fatalf("accepted a skyline side of %d points", len(side))
					}
					for i, p := range side {
						if p.TF <= 0 || p.Len <= 0 {
							t.Fatalf("accepted skyline point %+v", p)
						}
						if i > 0 && (dir*(p.TF-side[i-1].TF) <= 0 || dir*(p.Len-side[i-1].Len) <= 0) {
							t.Fatalf("accepted skyline side %v out of sweep order", side)
						}
					}
				}
			}
		}
	})
}
