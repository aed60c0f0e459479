package colbm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/vector"
)

// strByHeaderWalk is the reference string read, the oracle of strOffsets:
// it finds row's bytes by summing the length header from row 0. n is the
// chunk's value count.
func strByHeaderWalk(raw []byte, n, row int) string {
	off := 4 * n
	for i := 0; i < row; i++ {
		off += int(leU32(raw[i*4:]))
	}
	return string(raw[off : off+int(leU32(raw[row*4:]))])
}

// strTable builds a one-column string table of n names of varying length.
func strTable(tb testing.TB, n int) (*Table, []string) {
	tb.Helper()
	disk, pool := newTestEnv()
	b := NewBuilder("t", disk, pool, []ColumnSpec{{Name: "name", Type: vector.Str}})
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("GX%03d-%06d", i%1000, i)[:6+i%7]
	}
	b.AppendStr("name", names...)
	tab, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return tab, names
}

func readStr(tb testing.TB, cur *Cursor, v *vector.Vector, row int) string {
	tb.Helper()
	if err := cur.Read(v, row, 1); err != nil {
		tb.Fatal(err)
	}
	return v.S[0]
}

// A string read costs the same at any row: the cached chunk carries the
// offsets (and its Size pays for them), so reading the last row of a full
// 128 Ki-row chunk touches no word of the length header — shown by wiping
// the header of the cached copy and reading on.
func TestStrReadTouchesNoHeaderWords(t *testing.T) {
	const n = DefaultChunkLen
	tab, names := strTable(t, n)
	col := tab.MustColumn("name")
	cur, v := NewCursor(col), vector.New(vector.Str, 1)

	ch, err := cur.loadChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.StrOff) != n+1 || int(ch.StrOff[0]) != 4*n || int(ch.StrOff[n]) != len(ch.Raw) {
		t.Fatalf("offsets: %d entries from %d to %d, want %d from %d to %d",
			len(ch.StrOff), ch.StrOff[0], ch.StrOff[n], n+1, 4*n, len(ch.Raw))
	}
	if want := int64(len(ch.Raw) + 4*(n+1)); ch.Size != want {
		t.Errorf("Size = %d, want %d: the stored bytes plus the offsets", ch.Size, want)
	}
	for _, row := range []int{0, 1, n / 2, n - 1} {
		if want := strByHeaderWalk(ch.Raw, n, row); want != names[row] || readStr(t, cur, v, row) != want {
			t.Fatalf("row %d: cursor %q, header walk %q, built from %q", row, v.S[0], want, names[row])
		}
	}

	for i := 0; i < 4*n; i++ {
		ch.Raw[i] = 0xff
	}
	for _, row := range []int{0, n - 1} {
		if got := readStr(t, cur, v, row); got != names[row] {
			t.Fatalf("row %d read %q after the header was wiped, want %q: the read consulted the header", row, got, names[row])
		}
	}
}

// corruptBlob rewrites a column's blob through fn and empties the cache.
// The chunk's metadata is made to agree with the new bytes — their size and
// checksum — so that what refuses them is the parse behind the checksum.
func corruptBlob(t *testing.T, disk *SimDisk, pool *Manager, col *Column, fn func(blob []byte) []byte) {
	t.Helper()
	blob, err := disk.Read(col.BlobName(), 0, disk.Size(col.BlobName()))
	if err != nil {
		t.Fatal(err)
	}
	blob = fn(blob)
	WriteBlob(disk, col.BlobName(), blob)
	col.chunks[0].size, col.chunks[0].crc = len(blob), Checksum(blob)
	pool.Drop()
}

// Chunk bytes that disagree with the chunk's header or the column's
// metadata are refused where they would enter the cache, with an error
// naming the chunk; no read ever slices them out of range. The checksum
// catches such bytes first (TestChunkChecksumMismatch); these are bytes
// the checksum agrees with, as a column stored without checksums has.
func TestCorruptChunkIsAnErrorNotAPanic(t *testing.T) {
	const n = 1000
	for _, tc := range []struct {
		name    string
		spec    ColumnSpec
		corrupt func(blob []byte) []byte
		want    string
	}{
		{"str length too long", ColumnSpec{Name: "c", Type: vector.Str},
			func(b []byte) []byte { b[4*7]++; return b }, "no value count fits"},
		{"str truncated", ColumnSpec{Name: "c", Type: vector.Str},
			func(b []byte) []byte { return b[:len(b)-3] }, "no value count fits"},
		{"str one value short", ColumnSpec{Name: "c", Type: vector.Str},
			// Drop value 0 whole (empty below): header and bytes agree, the count does not.
			func(b []byte) []byte { return b[4:] }, "holds 999 values"},
		{"float64 short", ColumnSpec{Name: "c", Type: vector.Float64},
			func(b []byte) []byte { return b[:len(b)-4] }, "holds 999 values"},
		{"float64 ragged", ColumnSpec{Name: "c", Type: vector.Float64},
			func(b []byte) []byte { return b[:len(b)-1] }, "not a whole number"},
		{"uint8 short", ColumnSpec{Name: "c", Type: vector.UInt8},
			func(b []byte) []byte { return b[:10] }, "holds 10 values"},
		{"int64 raw short", ColumnSpec{Name: "c", Type: vector.Int64},
			func(b []byte) []byte { return b[:8*10] }, "holds 10 values"},
		{"fixed32 short", ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncFixed32},
			func(b []byte) []byte { return b[:4*10] }, "holds 10 values"},
		{"block of another count", ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncPFOR, Bits: 8},
			func(b []byte) []byte {
				other, err := encodeChunk(&ColumnSpec{Type: vector.Int64, Enc: EncPFOR, Bits: 8}, make([]int64, 10), nil, nil, nil)
				if err != nil {
					panic(err)
				}
				return other
			}, "holds 10 values"},
		{"block truncated", ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncPFOR, Bits: 8},
			func(b []byte) []byte { return b[:len(b)-1] }, "block size"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disk, pool := newTestEnv()
			b := NewBuilder("t", disk, pool, []ColumnSpec{tc.spec})
			for i := 0; i < n; i++ {
				switch tc.spec.Type {
				case vector.Int64:
					b.AppendInt64("c", int64(i%200))
				case vector.Float64:
					b.AppendFloat64("c", float64(i))
				case vector.UInt8:
					b.AppendUInt8("c", uint8(i))
				case vector.Str:
					b.AppendStr("c", strings.Repeat("x", i%5)) // value 0 is empty
				}
			}
			tab, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			col := tab.MustColumn("c")
			corruptBlob(t, disk, pool, col, tc.corrupt)
			err = NewCursor(col).Read(vector.New(tc.spec.Type, n), 0, n)
			if err == nil {
				t.Fatal("read of a corrupt chunk succeeded")
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), ChunkKey("t.c", 0)) {
				t.Fatalf("error %q, want one naming chunk %s and saying %q", err, ChunkKey("t.c", 0), tc.want)
			}
		})
	}
}

// fuzzSpecs are the chunk layouts FuzzParseCachedChunk parses bytes as:
// strings, each fixed-width raw layout, and a block encoding.
var fuzzSpecs = []ColumnSpec{
	{Name: "c", Type: vector.Str},
	{Name: "c", Type: vector.Int64},
	{Name: "c", Type: vector.Int64, Enc: EncFixed32},
	{Name: "c", Type: vector.Float64},
	{Name: "c", Type: vector.UInt8},
	{Name: "c", Type: vector.Int64, Enc: EncPFORDelta},
}

// FuzzParseCachedChunk: whatever bytes arrive as a chunk of whatever
// layout, ParseCachedChunk returns an error or a chunk every one of whose
// values a cursor can read — for strings, the values the header walk finds —
// and whose offsets were sized by the bytes present, never by a length the
// bytes claim. It never panics.
func FuzzParseCachedChunk(f *testing.F) {
	strs := []string{"", "a", "GX000-1", "", "a longer document name"}
	ints := []int64{3, 9, 10, 400, 401, 1 << 20}
	for kind, spec := range fuzzSpecs {
		var raw []byte
		var err error
		switch spec.Type {
		case vector.Str:
			raw, err = encodeChunk(&spec, nil, nil, nil, strs)
		case vector.Float64:
			raw, err = encodeChunk(&spec, nil, []float64{0.5, 2, -1}, nil, nil)
		case vector.UInt8:
			raw, err = encodeChunk(&spec, nil, nil, []uint8{1, 2, 3}, nil)
		default:
			raw, err = encodeChunk(&spec, ints, nil, nil, nil)
		}
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, uint8(kind))
		f.Add(raw[:len(raw)-1], uint8(kind))
		f.Add(append(bytes.Clone(raw), 0, 0, 0, 0), uint8(kind))
	}
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(0))             // one length of 4 GiB
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(0))             // two empty strings
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}, uint8(0)) // second "length" is data

	f.Fuzz(func(t *testing.T, data []byte, kind uint8) {
		spec := fuzzSpecs[int(kind)%len(fuzzSpecs)]
		ch, err := ParseCachedChunk(&spec, bytes.Clone(data))
		if err != nil {
			return
		}
		n := spec.values(ch)
		if n < 0 || n > len(data) {
			t.Fatalf("%d bytes parsed as %d values", len(data), n)
		}
		if spec.Type == vector.Str {
			if want := int64(len(data) + 4*(n+1)); ch.Size != want || len(ch.StrOff) != n+1 {
				t.Fatalf("%d strings in %d bytes: Size %d with %d offsets, want %d with %d",
					n, len(data), ch.Size, len(ch.StrOff), want, n+1)
			}
		}
		if ch.Block != nil {
			return // decoding a hostile block is compress's fuzz target, not this one
		}

		// Read every value back through a cursor over a one-chunk column.
		disk, pool := newTestEnv()
		WriteBlob(disk, "f.c", data)
		spec.ChunkLen = n + 1
		col := &Column{Spec: spec, N: n, blobName: "f.c", store: disk, cache: pool,
			chunks: []chunkMeta{{size: len(data), n: n, key: ChunkKey("f.c", 0)}}}
		v := vector.New(spec.Type, n)
		if err := NewCursor(col).Read(v, 0, n); err != nil {
			t.Fatalf("accepted chunk of %d values does not read: %v", n, err)
		}
		if spec.Type == vector.Str {
			for i, got := range v.S[:n] {
				if want := strByHeaderWalk(data, n, i); got != want {
					t.Fatalf("string %d of %d = %q, header walk says %q", i, n, got, want)
				}
			}
		}
	})
}

// BenchmarkCursorReadStr reads one name from either end of a full 128
// Ki-row string chunk — what Index.DocName does twenty times a query. The
// two must cost the same.
func BenchmarkCursorReadStr(b *testing.B) {
	tab, _ := strTable(b, DefaultChunkLen)
	col := tab.MustColumn("name")
	for _, bc := range []struct {
		name string
		row  int
	}{{"first", 0}, {"last", DefaultChunkLen - 1}} {
		b.Run(bc.name, func(b *testing.B) {
			v := vector.New(vector.Str, 1)
			readStr(b, NewCursor(col), v, bc.row) // load the chunk
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := NewCursor(col).Read(v, bc.row, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A read the chunk cache serves allocates nothing — the cursor hands the
// cache a loader bound once, not a closure per read — and a cursor Reset to
// another column keeps the decode scratch it grew.
func TestCursorHitAllocatesNothing(t *testing.T) {
	spec := ColumnSpec{Name: "id", Type: vector.Int64, Enc: EncPFORDelta, Bits: 8}
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = int64(5 * i)
	}
	a, _, _ := buildInt64Table(t, vals, spec)
	for i := range vals {
		vals[i] = int64(7 * i)
	}
	b, _, _ := buildInt64Table(t, vals, spec)
	cur, v := NewCursor(a.MustColumn("id")), vector.New(vector.Int64, 1024)
	for _, tc := range []struct {
		tab  *Table
		step int64
	}{{a, 5}, {b, 7}} {
		cur.Reset(tc.tab.MustColumn("id"))
		read := func() {
			if err := cur.Read(v, 1000, 1024); err != nil {
				t.Fatal(err)
			}
		}
		read() // the miss loads the chunk
		if v.I64[0] != 1000*tc.step || v.I64[1023] != 2023*tc.step {
			t.Fatalf("read %d..%d, want %d..%d", v.I64[0], v.I64[1023], 1000*tc.step, 2023*tc.step)
		}
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("a read served by the cache allocates %v times", n)
		}
	}
}

// TestChunkChecksumMismatch: one flipped bit in any chunk a Builder wrote
// fails the read that loads it with ErrChunkChecksum, naming the blob and
// the chunk's index, and counts in ChecksumFailures; the same bytes behind
// metadata stored without checksums (a format-1 segment's) are not
// checked, and here decode into wrong values without an error.
func TestChunkChecksumMismatch(t *testing.T) {
	const n, chunkLen = 1000, 256
	disk, pool := newTestEnv()
	b := NewBuilder("t", disk, pool, []ColumnSpec{{Name: "c", Type: vector.Int64, Enc: EncNone, ChunkLen: chunkLen}})
	for i := 0; i < n; i++ {
		b.AppendInt64("c", int64(i))
	}
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	col := tab.MustColumn("c")
	blob, err := disk.Read(col.BlobName(), 0, disk.Size(col.BlobName()))
	if err != nil {
		t.Fatal(err)
	}
	const ci = 2
	blob[col.Chunk(ci).Off+5] ^= 0x10
	WriteBlob(disk, col.BlobName(), blob)
	pool.Drop()

	before := ChecksumFailures()
	v := vector.New(vector.Int64, n)
	err = NewCursor(col).Read(v, 0, n)
	if !errors.Is(err, ErrChunkChecksum) {
		t.Fatalf("read of a flipped bit: %v, want ErrChunkChecksum", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"t.c"`) || !strings.Contains(msg, fmt.Sprintf("chunk %d", ci)) {
		t.Errorf("error %q does not name blob t.c and chunk %d", msg, ci)
	}
	if got := ChecksumFailures() - before; got != 1 {
		t.Errorf("ChecksumFailures rose by %d, want 1", got)
	}
	if err := NewCursor(col).Read(v, 0, 2*chunkLen); err != nil {
		t.Errorf("the chunks before the flipped one: %v", err)
	}

	st := tab.Stored()
	st.Checksums = false
	unchecked, err := OpenTable(st, disk, NewManager(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := NewCursor(unchecked.MustColumn("c")).Read(v, 0, n); err != nil {
		t.Fatalf("an unchecked column reported %v", err)
	}
	if v.I64[ci*chunkLen] == int64(ci*chunkLen) {
		t.Error("the flipped bit did not reach the unchecked read")
	}
}
