package colbm

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/vector"
)

func newTestEnv() (*SimDisk, *Manager) {
	return NewSimDisk(DefaultDiskParams()), NewManager(0)
}

func TestSimDiskAccounting(t *testing.T) {
	d := NewSimDisk(DiskParams{SeekLatency: time.Millisecond, Bandwidth: 1e6})
	WriteBlob(d, "a", make([]byte, 1000))
	if _, err := d.Read("a", 0, 500); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Reads != 1 || st.BytesRead != 500 {
		t.Errorf("stats = %+v", st)
	}
	// 1ms seek + 500B / 1MB/s = 0.5ms transfer.
	want := time.Millisecond + 500*time.Microsecond
	if st.IOTime != want {
		t.Errorf("IOTime = %v, want %v", st.IOTime, want)
	}
	if d.Size("a") != 1000 || d.TotalSize() != 1000 {
		t.Error("size accounting wrong")
	}
	d.ResetStats()
	if d.Stats().Reads != 0 {
		t.Error("ResetStats did not reset")
	}
}

func TestSimDiskErrors(t *testing.T) {
	d := NewSimDisk(DefaultDiskParams())
	if _, err := d.Read("missing", 0, 1); err == nil {
		t.Error("read of missing blob succeeded")
	}
	WriteBlob(d, "a", make([]byte, 10))
	if _, err := d.Read("a", 5, 10); err == nil {
		t.Error("out-of-range read succeeded")
	}
	if _, err := d.Read("a", -1, 2); err == nil {
		t.Error("negative offset accepted")
	}
}

// A SimDisk blob written as several chunks reads back at any offset and
// length as their concatenation, across chunk boundaries; CopyBlob hands
// the chunks on as they are held; nothing is visible before Close, and an
// aborted blob never is.
func TestSimDiskChunkedBlob(t *testing.T) {
	d := NewSimDisk(DefaultDiskParams())
	var whole []byte
	w, err := d.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{5, 0, 9, 1, 13} {
		chunk := make([]byte, n)
		for j := range chunk {
			chunk[j] = byte(10*i + j)
		}
		whole = append(whole, chunk...)
		w.Append(chunk)
		clear(chunk) // the writer keeps its own copy
	}
	if d.Size("a") != 0 {
		t.Fatal("blob visible before Close")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for off := 0; off <= len(whole); off++ {
		for size := 0; off+size <= len(whole); size++ {
			got, err := d.Read("a", off, size)
			if err != nil || !reflect.DeepEqual(got, whole[off:off+size]) {
				t.Fatalf("Read(%d, %d) = %v, %v; want %v", off, size, got, err, whole[off:off+size])
			}
		}
	}
	dst := NewSimDisk(DefaultDiskParams())
	cw, _ := dst.Create("b")
	if err := CopyBlob(cw, d, "a", len(whole)-2); err != nil {
		t.Fatal(err)
	}
	cw.Close()
	if got, err := dst.Read("b", 0, len(whole)-2); err != nil || !reflect.DeepEqual(got, whole[:len(whole)-2]) {
		t.Fatalf("copied blob = %v, %v; want %v", got, err, whole[:len(whole)-2])
	}
	aw, _ := d.Create("c")
	aw.Append([]byte{1, 2, 3})
	aw.Abort()
	aw.Close()
	if d.Size("c") != 0 {
		t.Error("an aborted blob was published")
	}
}

func buildInt64Table(t *testing.T, vals []int64, spec ColumnSpec) (*Table, *SimDisk, *Manager) {
	t.Helper()
	disk, pool := newTestEnv()
	b := NewBuilder("t", disk, pool, []ColumnSpec{spec})
	b.SetInt64(spec.Name, vals)
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tab, disk, pool
}

func readAllInt64(t *testing.T, tab *Table, col string) []int64 {
	t.Helper()
	c := tab.MustColumn(col)
	cur := NewCursor(c)
	out := make([]int64, 0, c.N)
	v := vector.New(vector.Int64, 1024)
	for pos := 0; pos < c.N; {
		n := c.N - pos
		if n > 1024 {
			n = 1024
		}
		if err := cur.Read(v, pos, n); err != nil {
			t.Fatal(err)
		}
		out = append(out, v.I64[:n]...)
		pos += n
	}
	return out
}

func TestColumnRoundTripAllEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n := 300000 // spans multiple default chunks
	sorted := make([]int64, n)
	cur := int64(0)
	for i := range sorted {
		cur += int64(1 + rng.Intn(9))
		sorted[i] = cur
	}
	small := make([]int64, n)
	for i := range small {
		small[i] = int64(1 + rng.Intn(60))
	}
	skewed := make([]int64, n)
	for i := range skewed {
		skewed[i] = int64(rng.Intn(9)) * 77777
	}

	cases := []struct {
		name string
		vals []int64
		spec ColumnSpec
	}{
		{"raw", small, ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncNone}},
		{"pfor8", small, ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncPFOR, Bits: 8}},
		{"pfor-auto", small, ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncPFOR}},
		{"pfordelta8", sorted, ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncPFORDelta, Bits: 8}},
		{"pfordelta-auto", sorted, ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncPFORDelta}},
		{"pdict", skewed, ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncPDict}},
		{"naive-layout", small, ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncPFOR, Bits: 8, Layout: compress.Naive}},
		{"small-chunks", sorted, ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncPFORDelta, Bits: 8, ChunkLen: 1024}},
	}
	for _, c := range cases {
		tab, _, _ := buildInt64Table(t, c.vals, c.spec)
		got := readAllInt64(t, tab, "c")
		if !reflect.DeepEqual(got, c.vals) {
			t.Errorf("%s: round trip mismatch", c.name)
		}
	}
}

func TestColumnCompressionRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	n := 262144
	docids := make([]int64, n)
	cur := int64(0)
	for i := range docids {
		cur += int64(1 + rng.Intn(30))
		docids[i] = cur
	}
	tab, _, _ := buildInt64Table(t, docids,
		ColumnSpec{Name: "docid", Type: vector.Int64, Enc: EncPFORDelta, Bits: 8})
	col := tab.MustColumn("docid")
	if bpv := col.BitsPerValue(); bpv > 14 || bpv < 8 {
		t.Errorf("docid bits/value = %.2f, expected ~9-13 for gap-compressed docids", bpv)
	}

	tfs := make([]int64, n)
	for i := range tfs {
		tfs[i] = 1 + int64(rng.Intn(15))
	}
	tab2, _, _ := buildInt64Table(t, tfs,
		ColumnSpec{Name: "tf", Type: vector.Int64, Enc: EncPFOR, Bits: 8})
	if bpv := tab2.MustColumn("tf").BitsPerValue(); bpv > 10 {
		t.Errorf("tf bits/value = %.2f", bpv)
	}
}

func TestRandomRangeReadsMatchFullDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	n := 50000
	vals := make([]int64, n)
	cur := int64(0)
	for i := range vals {
		cur += int64(1 + rng.Intn(100))
		vals[i] = cur
	}
	tab, _, _ := buildInt64Table(t, vals,
		ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncPFORDelta, Bits: 8, ChunkLen: 4096})
	cursor := NewCursor(tab.MustColumn("c"))
	v := vector.New(vector.Int64, 2048)
	for trial := 0; trial < 100; trial++ {
		start := rng.Intn(n)
		cnt := rng.Intn(n - start)
		if cnt > 2048 {
			cnt = 2048
		}
		if err := cursor.Read(v, start, cnt); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v.I64[:cnt], vals[start:start+cnt]) {
			t.Fatalf("trial %d: range [%d,%d) mismatch", trial, start, start+cnt)
		}
	}
}

func TestFloatUInt8StrColumns(t *testing.T) {
	disk, pool := newTestEnv()
	b := NewBuilder("t", disk, pool, []ColumnSpec{
		{Name: "score", Type: vector.Float64},
		{Name: "q", Type: vector.UInt8},
		{Name: "name", Type: vector.Str},
	})
	n := 10000
	scores := make([]float64, n)
	qs := make([]uint8, n)
	names := make([]string, n)
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < n; i++ {
		scores[i] = rng.Float64() * 20
		qs[i] = uint8(rng.Intn(256))
		names[i] = "GX" + string(rune('A'+i%26)) + "-doc"
	}
	b.SetFloat64("score", scores)
	b.SetUInt8("q", qs)
	for _, s := range names {
		b.AppendStr("name", s)
	}
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	fv := vector.New(vector.Float64, n)
	if err := NewCursor(tab.MustColumn("score")).Read(fv, 0, n); err != nil {
		t.Fatal(err)
	}
	for i := range scores {
		// Stored as float32: compare at float32 precision.
		if float32(fv.F64[i]) != float32(scores[i]) {
			t.Fatalf("score[%d] = %v, want %v", i, fv.F64[i], scores[i])
		}
	}
	// Float columns store 32 bits per value — the I/O regression the
	// BM25TCM cold run exhibits.
	if bpv := tab.MustColumn("score").BitsPerValue(); bpv != 32 {
		t.Errorf("float column bits/value = %v, want 32", bpv)
	}

	uv := vector.New(vector.UInt8, n)
	if err := NewCursor(tab.MustColumn("q")).Read(uv, 0, n); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(uv.U8[:n], qs) {
		t.Error("uint8 column mismatch")
	}
	if bpv := tab.MustColumn("q").BitsPerValue(); bpv != 8 {
		t.Errorf("uint8 column bits/value = %v, want 8", bpv)
	}

	sv := vector.New(vector.Str, 100)
	if err := NewCursor(tab.MustColumn("name")).Read(sv, 26, 52); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sv.S[:52], names[26:78]) {
		t.Error("string column range mismatch")
	}
}

func TestBuilderErrors(t *testing.T) {
	disk, pool := newTestEnv()
	// Ragged columns.
	b := NewBuilder("t", disk, pool, []ColumnSpec{
		{Name: "a", Type: vector.Int64},
		{Name: "b", Type: vector.Int64},
	})
	b.AppendInt64("a", 1, 2, 3)
	b.AppendInt64("b", 1)
	if _, err := b.Build(); err == nil {
		t.Error("ragged build succeeded")
	}
	// Compressed float column is invalid.
	b2 := NewBuilder("t", disk, pool, []ColumnSpec{
		{Name: "f", Type: vector.Float64, Enc: EncPFOR},
	})
	b2.AppendFloat64("f", 1.0)
	if _, err := b2.Build(); err == nil {
		t.Error("compressed float column accepted")
	}
	// Bad chunk alignment.
	b3 := NewBuilder("t", disk, pool, []ColumnSpec{
		{Name: "a", Type: vector.Int64, ChunkLen: 100},
	})
	b3.AppendInt64("a", 1)
	if _, err := b3.Build(); err == nil {
		t.Error("unaligned chunk length accepted")
	}
	// Bool columns are not storable.
	b4 := NewBuilder("t", disk, pool, []ColumnSpec{
		{Name: "x", Type: vector.Bool},
	})
	if _, err := b4.Build(); err == nil {
		t.Error("bool column accepted")
	}
}

func TestTableAccessors(t *testing.T) {
	tab, _, _ := buildInt64Table(t, []int64{1, 2, 3},
		ColumnSpec{Name: "c", Type: vector.Int64})
	if _, err := tab.Column("missing"); err == nil {
		t.Error("missing column lookup succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustColumn(missing) did not panic")
		}
	}()
	tab.MustColumn("missing")
}

func TestEmptyTable(t *testing.T) {
	disk, pool := newTestEnv()
	b := NewBuilder("t", disk, pool, []ColumnSpec{
		{Name: "c", Type: vector.Int64, Enc: EncPFOR},
	})
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tab.N != 0 {
		t.Errorf("empty table N=%d", tab.N)
	}
	cur := NewCursor(tab.MustColumn("c"))
	v := vector.New(vector.Int64, 1)
	if err := cur.Read(v, 0, 0); err != nil {
		t.Errorf("empty read: %v", err)
	}
	if err := cur.Read(v, 0, 1); err == nil {
		t.Error("read past empty column succeeded")
	}
}

func TestColdVsHotIOAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	n := 300000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(100))
	}
	tab, disk, pool := buildInt64Table(t, vals,
		ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncPFOR, Bits: 8})

	disk.ResetStats()
	readAllInt64(t, tab, "c") // cold: every chunk misses
	cold := disk.Stats()
	if cold.Reads == 0 || cold.IOTime == 0 {
		t.Fatalf("cold run did no I/O: %+v", cold)
	}

	disk.ResetStats()
	readAllInt64(t, tab, "c") // hot: all chunks cached
	hot := disk.Stats()
	if hot.Reads != 0 {
		t.Errorf("hot run hit the disk: %+v", hot)
	}

	// Cold again after dropping the pool.
	pool.Drop()
	disk.ResetStats()
	readAllInt64(t, tab, "c")
	cold2 := disk.Stats()
	if cold2.Reads != cold.Reads {
		t.Errorf("second cold run reads %d, first %d", cold2.Reads, cold.Reads)
	}
}

// Invariant: query answers are identical under any buffer pool
// capacity, only the I/O counts change.
func TestPoolCapacityInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	n := 100000
	vals := make([]int64, n)
	cur := int64(0)
	for i := range vals {
		cur += int64(1 + rng.Intn(5))
		vals[i] = cur
	}
	var want []int64
	for _, capBytes := range []int64{0, 1 << 30, 64 << 10, 4 << 10} {
		disk := NewSimDisk(DefaultDiskParams())
		pool := NewManager(capBytes)
		b := NewBuilder("t", disk, pool, []ColumnSpec{
			{Name: "c", Type: vector.Int64, Enc: EncPFORDelta, Bits: 8, ChunkLen: 8192},
		})
		b.SetInt64("c", vals)
		tab, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		got := readAllInt64(t, tab, "c")
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("pool capacity %d changed query answers", capBytes)
		}
	}
}

func TestFixed32Column(t *testing.T) {
	vals := []int64{0, -5, 1 << 20, 42, -(1 << 30)}
	tab, _, _ := buildInt64Table(t, vals,
		ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncFixed32})
	got := readAllInt64(t, tab, "c")
	if !reflect.DeepEqual(got, vals) {
		t.Errorf("fixed32 round trip: %v", got)
	}
	if bpv := tab.MustColumn("c").BitsPerValue(); bpv != 32 {
		t.Errorf("fixed32 bits/value = %v, want 32", bpv)
	}
	// Out-of-range values must be rejected at build time.
	disk, pool := newTestEnv()
	b := NewBuilder("t", disk, pool, []ColumnSpec{
		{Name: "c", Type: vector.Int64, Enc: EncFixed32},
	})
	b.AppendInt64("c", 1<<40)
	if _, err := b.Build(); err == nil {
		t.Error("fixed32 accepted a 40-bit value")
	}
}

func TestSimDiskReadReturnsCopy(t *testing.T) {
	d := NewSimDisk(DefaultDiskParams())
	WriteBlob(d, "a", []byte{10, 20, 30, 40})
	got, err := d.Read("a", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 99 // a misbehaving decoder scribbling on its input
	again, err := d.Read("a", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != 20 || again[1] != 30 {
		t.Errorf("stored blob corrupted through returned slice: %v", again)
	}
}

func TestStoredTableRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	n := 200000
	vals := make([]int64, n)
	cur := int64(0)
	for i := range vals {
		cur += int64(1 + rng.Intn(7))
		vals[i] = cur
	}
	tab, disk, _ := buildInt64Table(t, vals,
		ColumnSpec{Name: "c", Type: vector.Int64, Enc: EncPFORDelta, Bits: 8, ChunkLen: 8192})

	st := tab.Stored()
	if st.N != n || len(st.Columns) != 1 || st.Columns[0].Blob != "t.c" {
		t.Fatalf("stored metadata: %+v", st)
	}
	if st.Columns[0].DiskSize() != tab.DiskSize() {
		t.Errorf("stored size %d, table size %d", st.Columns[0].DiskSize(), tab.DiskSize())
	}

	// Reopen over the same store with a fresh cache: identical data.
	reopened, err := OpenTable(st, disk, NewManager(0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(readAllInt64(t, reopened, "c"), vals) {
		t.Error("reopened table data mismatch")
	}

	// Corrupted metadata is rejected.
	bad := st
	bad.Columns = append([]StoredColumn(nil), st.Columns...)
	bad.Columns[0].Chunks = append([]ChunkInfo(nil), st.Columns[0].Chunks...)
	bad.Columns[0].Chunks[0].N += 5
	if _, err := OpenTable(bad, disk, NewManager(0)); err == nil {
		t.Error("OpenTable accepted inconsistent chunk counts")
	}
}

// TestCursorReadOffset: the docid-remapping read path adds a delta to
// Int64 values (segment merges rebase global docids) and refuses
// non-integer columns.
func TestCursorReadOffset(t *testing.T) {
	store := NewSimDisk(DefaultDiskParams())
	cache := NewManager(0)
	b := NewBuilder("T", store, cache, []ColumnSpec{
		{Name: "id", Type: vector.Int64, Enc: EncPFORDelta, Bits: 8, ChunkLen: 256},
		{Name: "s", Type: vector.Str, ChunkLen: 256},
	})
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(1000 + i)
		b.AppendStr("s", "x")
	}
	b.SetInt64("id", vals)
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	col := tab.MustColumn("id")
	v := vector.New(vector.Int64, 100)
	cur := NewCursor(col)
	if err := cur.ReadOffset(v, 500, 100, -1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if v.I64[i] != int64(500+i) {
			t.Fatalf("row %d: %d, want %d", 500+i, v.I64[i], 500+i)
		}
	}
	// Zero delta is a plain read.
	if err := cur.ReadOffset(v, 0, 10, 0); err != nil {
		t.Fatal(err)
	}
	if v.I64[0] != 1000 {
		t.Fatalf("zero-delta read: %d, want 1000", v.I64[0])
	}
	sv := vector.New(vector.Str, 10)
	if err := NewCursor(tab.MustColumn("s")).ReadOffset(sv, 0, 10, 1); err == nil {
		t.Error("ReadOffset accepted a string column")
	}
}
