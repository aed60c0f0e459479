package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/colbm"
	"repro/internal/ir"
	"repro/internal/vector"
)

// Format-1 test writers: nothing outside the tests writes format 1, whose
// directories the tests still open, append to and merge.

// encodeSkylines is the format-1 skyline string of sky, skylines in
// posting row order, naming terms by their Start in terms.
func encodeSkylines(terms map[string]ir.TermInfo, sky []ir.Skyline) []byte {
	var buf []byte
	end := 0
	for _, s := range sky {
		ti := terms[s.Term]
		buf = binary.AppendUvarint(buf, uint64(ti.Start-end))
		end = ti.End
		buf = ir.AppendSkyline(buf, s)
	}
	return buf
}

// encodeFormatV1 encodes m as a format-1 manifest: its dictionary and
// skylines (the encoded skyline string) inline, no T.
func encodeFormatV1(t testing.TB, m *Manifest, skylines []byte) []byte {
	t.Helper()
	v1 := *m
	v1.Version, v1.T = formatV1, colbm.StoredTable{}
	data, err := json.Marshal(manifestJSON{&v1, &formatV1Dictionary{Terms: m.Terms, Skylines: skylines}})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// toFormatV1 rewrites segment seg of dir as a format-1 segment: its
// dictionary and skylines move into the manifest, T's files go, and edit,
// when set, changes the manifest first. Its chunks keep their CRCs in the
// manifest, which a format-1 read ignores.
func toFormatV1(t *testing.T, dir, seg string, edit func(m *Manifest)) {
	t.Helper()
	segDir := filepath.Join(dir, seg)
	m, err := readManifest(dir, seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range m.T.Columns {
		if err := os.Remove(filepath.Join(segDir, col.Blob+blobExt)); err != nil {
			t.Fatal(err)
		}
	}
	v1 := *m
	if edit != nil {
		edit(&v1)
	}
	sky := slices.Clone(v1.skylines)
	slices.SortFunc(sky, func(a, b ir.Skyline) int { return v1.Terms[a.Term].Start - v1.Terms[b.Term].Start })
	if err := WriteFileAtomic(segDir, ".manifest-*", manifestPath(segDir), encodeFormatV1(t, &v1, encodeSkylines(v1.Terms, sky))); err != nil {
		t.Fatal(err)
	}
}

// copyFiles copies the directory src to dst file by file (never a
// hardlink: the tests corrupt the copy).
func copyFiles(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// flipBit flips one bit in the middle of chunk ci of column col's file in
// segDir.
func flipBit(t *testing.T, segDir string, col colbm.StoredColumn, ci int) {
	t.Helper()
	path := filepath.Join(segDir, col.Blob+blobExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ch := col.Chunks[ci]
	data[ch.Off+ch.Size/2] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// readColumn reads every value of col through one cursor.
func readColumn(col *colbm.Column) (*vector.Vector, error) {
	v := vector.New(col.Spec.Type, max(col.N, 1))
	return v, colbm.NewCursor(col).Read(v, 0, col.N)
}

// TestChecksumCatchesEveryFlippedBit flips one bit in one chunk of each
// column file of a format-2 segment — every column of TD, D and T. A flip
// in T fails the open, which decodes the dictionary from T; a flip in TD
// or D fails every read of that chunk. Either way the error wraps
// colbm.ErrChunkChecksum, names the column's blob (its file is
// <blob>.col) and the chunk's index, and counts in
// colbm.ChecksumFailures; every search either ranks exactly as the intact
// segment does or fails with that error — none ranks from the flipped
// bytes.
func TestChecksumCatchesEveryFlippedBit(t *testing.T) {
	coll := rangeCollection()
	ix, err := ir.Build(coll, ir.BuildConfig{ChunkLen: 128}) // many chunks per column
	if err != nil {
		t.Fatal(err)
	}
	pristine := filepath.Join(t.TempDir(), "pristine")
	saveIndex(t, pristine, ix)
	m, err := readManifest(pristine, "seg-000001")
	if err != nil {
		t.Fatal(err)
	}
	queries := rangeQueries(coll)
	snap, err := OpenSegmented(pristine, colbm.NewManager(0))
	if err != nil {
		t.Fatal(err)
	}
	want := searchAll(t, ir.NewSnapshotSearcher(snap, 0), queries, 10)
	snap.Close()

	files := 0
	for _, table := range m.tables() {
		for _, col := range table.Columns {
			files++
			ci := len(col.Chunks) / 2
			t.Run(col.Blob, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "ix")
				copyFiles(t, pristine, dir)
				flipBit(t, filepath.Join(dir, "seg-000001"), col, ci)
				failures := colbm.ChecksumFailures()
				named := func(err error) {
					t.Helper()
					if !errors.Is(err, colbm.ErrChunkChecksum) || !strings.Contains(err.Error(), strconv.Quote(col.Blob)) ||
						!strings.Contains(err.Error(), fmt.Sprintf("chunk %d", ci)) {
						t.Fatalf("got %v, want colbm.ErrChunkChecksum naming %q and chunk %d", err, col.Blob, ci)
					}
				}
				defer func() {
					if colbm.ChecksumFailures() == failures {
						t.Error("colbm.ChecksumFailures did not count the mismatch")
					}
				}()

				snap, err := OpenSegmented(dir, colbm.NewManager(0))
				if table == &m.T {
					if err == nil {
						snap.Close()
					}
					named(err)
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				defer snap.Close()
				s := ir.NewSnapshotSearcher(snap, 0)
				for _, strat := range ir.AllStrategies {
					for qi, q := range queries {
						res, _, err := s.Search(q.Terms, 10, strat)
						if err != nil {
							if !errors.Is(err, colbm.ErrChunkChecksum) {
								t.Fatalf("%v %v: %v, want colbm.ErrChunkChecksum", strat, q.Terms, err)
							}
							continue
						}
						if !reflect.DeepEqual(res, want[strat][qi]) {
							t.Fatalf("%v %v ranked from a flipped bit:\n got %v\nwant %v", strat, q.Terms, res, want[strat][qi])
						}
					}
				}
				tab := snap.Primary().TD
				if table == &m.D {
					tab = snap.Primary().D
				}
				c, err := tab.Column(col.Spec.Name)
				if err != nil {
					t.Fatal(err)
				}
				_, err = readColumn(c)
				named(err)
			})
		}
	}
	if files != 13 {
		t.Errorf("flipped a bit in %d column files, want TD's 6, D's 2 and T's 5", files)
	}
}

// TestFormatV1FlipGoesUndetected documents what a format-1 segment lacks:
// it records no checksums, so a flipped bit in one of its column files is
// read as data — here a changed score — without an error. Only format 2
// catches it (TestChecksumCatchesEveryFlippedBit).
func TestFormatV1FlipGoesUndetected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "v1")
	copyFiles(t, "../../testdata/v1-segments", dir)
	m, err := readManifest(dir, "seg-000001")
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != formatV1 {
		t.Fatalf("fixture segment has format %d, want %d", m.Version, formatV1)
	}
	read := func() []float64 {
		t.Helper()
		snap, err := OpenSegmented(dir, colbm.NewManager(0))
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		v, err := readColumn(snap.Primary().TD.MustColumn(ir.ColScore))
		if err != nil {
			t.Fatalf("a format-1 read: %v", err)
		}
		return slices.Clone(v.F64)
	}
	before := read()
	i := slices.IndexFunc(m.TD.Columns, func(c colbm.StoredColumn) bool { return c.Spec.Name == ir.ColScore })
	flipBit(t, filepath.Join(dir, "seg-000001"), m.TD.Columns[i], 0)
	if after := read(); slices.Equal(before, after) {
		t.Error("the flipped bit did not change the scores read")
	}
}
