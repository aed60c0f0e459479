package storage

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/colbm"
)

// seededStore opens a store over a fresh directory holding the given blobs.
func seededStore(t *testing.T, blobs map[string][]byte) *FileStore {
	t.Helper()
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	for name, data := range blobs {
		if err := colbm.WriteBlob(fs, name, data); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// pattern fills n bytes with a position-derived pattern so any misaligned
// read is caught byte-for-byte.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// TestFileStoreReadMatchesBlob pins the read path's correctness contract:
// the alignment-widened positioned read hands back exactly the requested
// bytes, across aligned and unaligned offsets, sizes spanning alignment
// boundaries, whole-blob reads, empty reads and a zero-length blob — in a
// slice that is the caller's to scribble on.
func TestFileStoreReadMatchesBlob(t *testing.T) {
	blobs := map[string][]byte{
		"big":   pattern(3*readAlign + 517), // spans several pages, odd tail
		"small": pattern(37),                // sub-page blob
		"empty": {},
	}
	fs := seededStore(t, blobs)
	reqs := []struct {
		name      string
		off, size int
	}{
		{"big", 0, len(blobs["big"])},     // whole blob
		{"big", 0, readAlign},             // aligned prefix
		{"big", readAlign, readAlign},     // aligned interior
		{"big", 13, 517},                  // unaligned, sub-page
		{"big", readAlign - 1, 2},         // straddles a boundary
		{"big", len(blobs["big"]) - 5, 5}, // odd tail
		{"big", len(blobs["big"]), 0},     // empty read at EOF
		{"small", 0, 37},
		{"small", 5, 0},
		{"empty", 0, 0},
	}
	for _, r := range reqs {
		got, err := fs.Read(r.name, r.off, r.size)
		if err != nil {
			t.Fatalf("read %+v: %v", r, err)
		}
		if !bytes.Equal(got, blobs[r.name][r.off:r.off+r.size]) {
			t.Errorf("read %+v: bytes differ from the blob", r)
		}
		for i := range got {
			got[i] = 0xFF // the slice is the caller's: scribbling must not reach the next reader
		}
		if again, _ := fs.Read(r.name, r.off, r.size); !bytes.Equal(again, blobs[r.name][r.off:r.off+r.size]) {
			t.Errorf("read %+v: a caller's scribble reached the next read", r)
		}
	}
	if _, err := fs.Read("big", len(blobs["big"])-1, 2); err == nil {
		t.Error("read past the end of the blob succeeded")
	}
	if _, err := fs.Read("big", -1, 2); err == nil {
		t.Error("read at a negative offset succeeded")
	}
}

// aligned reports whether data starts on an 8-byte boundary with at least 8
// bytes of capacity past its end: what compress.Unmarshal needs to view a
// block's code section in place.
func aligned(data []byte) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0 && cap(data)-len(data) >= 8
}

// Both block stores read into the buffer alloc hands them, wherever in
// memory it starts, and place the requested bytes 8-byte aligned with 8
// bytes of slack; Read does the same into a fresh buffer.
func TestReadIntoPlacesDataAligned(t *testing.T) {
	blob := pattern(3*readAlign + 517)
	fs := seededStore(t, map[string][]byte{"b": blob})
	sim := colbm.NewSimDisk(colbm.DefaultDiskParams())
	colbm.WriteBlob(sim, "b", blob)
	for _, st := range []colbm.BlockStore{fs, sim} {
		for _, r := range []struct{ off, size int }{{0, len(blob)}, {13, 517}, {readAlign - 3, readAlign + 9}, {len(blob) - 5, 5}} {
			want := blob[r.off : r.off+r.size]
			if got, err := st.Read("b", r.off, r.size); err != nil || !bytes.Equal(got, want) || !aligned(got) {
				t.Fatalf("%T.Read(%d, %d): err %v, equal %v, aligned %v", st, r.off, r.size, err, bytes.Equal(got, want), aligned(got))
			}
			for skew := 0; skew < 8; skew++ {
				var given []byte
				alloc := func(n int) []byte {
					given = make([]byte, n+skew)[skew:]
					return given
				}
				data, buf, err := st.ReadInto("b", r.off, r.size, alloc)
				if err != nil || !bytes.Equal(data, want) || !aligned(data) {
					t.Fatalf("%T.ReadInto(%d, %d) skewed by %d: err %v, equal %v, aligned %v", st, r.off, r.size, skew, err, bytes.Equal(data, want), aligned(data))
				}
				if &buf[0] != &given[0] || len(buf) != len(given) {
					t.Fatalf("%T.ReadInto(%d, %d): buf is not the buffer alloc gave", st, r.off, r.size)
				}
			}
		}
	}
}

// TestFileStoreReadCountsAlignedBytes pins what DiskStats report for a
// Read: one read per request, charged the alignment-widened extent (offset
// rounded down, end rounded up to readAlign and clipped at the end of the
// blob), not the requested size.
func TestFileStoreReadCountsAlignedBytes(t *testing.T) {
	data := pattern(2*readAlign + 517)
	fs := seededStore(t, map[string][]byte{"b": data})
	for _, r := range []struct {
		off, size int
		want      int64 // bytes the widened read covers
	}{
		{readAlign + 100, 200, readAlign}, // inside one page
		{readAlign - 1, 2, 2 * readAlign}, // straddles a boundary
		{2*readAlign + 10, 5, 517},        // tail page, clipped at EOF
		{0, len(data), int64(len(data))},  // whole blob
		{readAlign, readAlign, readAlign}, // already aligned
		{2 * readAlign, 0, 0},             // empty read on a boundary
		{3, 0, readAlign},                 // empty read mid-page
	} {
		fs.ResetStats()
		got, err := fs.Read("b", r.off, r.size)
		if err != nil {
			t.Fatalf("read [%d,+%d): %v", r.off, r.size, err)
		}
		if !bytes.Equal(got, data[r.off:r.off+r.size]) {
			t.Errorf("read [%d,+%d): bytes differ from the blob", r.off, r.size)
		}
		if st := fs.Stats(); st.Reads != 1 || st.BytesRead != r.want {
			t.Errorf("read [%d,+%d): %d reads of %d bytes, want 1 of %d",
				r.off, r.size, st.Reads, st.BytesRead, r.want)
		}
	}
}

// TestFileStoreRewriteDropsHandle: rewriting a blob must drop its cached
// read handle and size, so readers see the new bytes, not the renamed-over
// old file's.
func TestFileStoreRewriteDropsHandle(t *testing.T) {
	old := pattern(readAlign)
	fs := seededStore(t, map[string][]byte{"b": old})
	if _, err := fs.Read("b", 0, len(old)); err != nil { // open the handle
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{0xAB}, 2*readAlign)
	if err := colbm.WriteBlob(fs, "b", fresh); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("b", 0, len(fresh))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Error("read served stale bytes after rewrite (handle not invalidated)")
	}
}
