package colbm

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vector"
)

// storedFixture builds a table of 1 024 rows whose columns, one per stored
// type, are cut into 256-value chunks, and returns its persisted metadata
// over the disk that holds its blobs.
func storedFixture(tb testing.TB) (StoredTable, *SimDisk) {
	tb.Helper()
	const n = 1024
	disk := NewSimDisk(DefaultDiskParams())
	b := NewBuilder("t", disk, NewManager(0), []ColumnSpec{
		{Name: "id", Type: vector.Int64, Enc: EncPFORDelta, Bits: 8, ChunkLen: 256},
		{Name: "f", Type: vector.Float64, ChunkLen: 256},
		{Name: "q", Type: vector.UInt8, ChunkLen: 256},
		{Name: "s", Type: vector.Str, ChunkLen: 256},
	})
	for i := 0; i < n; i++ {
		b.AppendInt64("id", int64(3*i))
		b.AppendFloat64("f", float64(i)/4)
		b.AppendUInt8("q", uint8(i))
		b.AppendStr("s", strings.Repeat("d", i%7))
	}
	tab, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return tab.Stored(), disk
}

// cloneStored deep-copies a StoredTable so a case can corrupt its copy.
func cloneStored(st StoredTable) StoredTable {
	out := st
	out.Columns = append([]StoredColumn(nil), st.Columns...)
	for i := range out.Columns {
		out.Columns[i].Chunks = append([]ChunkInfo(nil), st.Columns[i].Chunks...)
	}
	return out
}

// readEveryRow reads every row of every column of the table through a
// cursor, one vector at a time, and returns the values of each column up to
// its first read error, and that error.
func readEveryRow(tab *Table) (map[string][]any, error) {
	const batch = 100 // straddles chunk boundaries
	got := map[string][]any{}
	var first error
	for _, name := range tab.ColumnNames() {
		col := tab.MustColumn(name)
		cur := NewCursor(col)
		v := vector.New(col.Spec.Type, batch)
		for pos := 0; pos < col.N; pos += batch {
			n := min(batch, col.N-pos)
			if err := cur.Read(v, pos, n); err != nil {
				if first == nil {
					first = err
				}
				break
			}
			for i := 0; i < n; i++ {
				got[name] = append(got[name], v.Get(i))
			}
		}
	}
	return got, first
}

// TestOpenTableRefusesChunksItsSpecDoesNotCut: a cursor finds row p in chunk
// p / chunkLen, so OpenTable refuses metadata whose chunks are not cut at
// the spec's chunk length — a 256-value layout under a spec that says 512
// read row 300 out of chunk 0 and panicked — and every other layout a
// cursor would misread, each with an error naming the column.
func TestOpenTableRefusesChunksItsSpecDoesNotCut(t *testing.T) {
	st, disk := storedFixture(t)
	if tab, err := OpenTable(st, disk, NewManager(0)); err != nil {
		t.Fatal(err)
	} else if _, err := readEveryRow(tab); err != nil {
		t.Fatal(err)
	}
	idCol := func(st *StoredTable) *StoredColumn { return &st.Columns[1] } // name order: f, id, q, s
	if idCol(&st).Spec.Name != "id" {
		t.Fatalf("column order %+v", st.Columns)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(st *StoredTable)
		want    string
	}{
		{"spec says 512", func(st *StoredTable) { idCol(st).Spec.ChunkLen = 512 }, `"id"`},
		{"spec says 128", func(st *StoredTable) { idCol(st).Spec.ChunkLen = 128 }, `"id"`},
		{"spec says the default", func(st *StoredTable) { idCol(st).Spec.ChunkLen = 0 }, `"id"`},
		{"spec not a whole number of strides", func(st *StoredTable) { idCol(st).Spec.ChunkLen = 300 }, `"id"`},
		{"short chunk before the last", func(st *StoredTable) {
			ch := idCol(st).Chunks
			ch[0].N--
			ch[1].N++
		}, `"id"`},
		{"empty last chunk", func(st *StoredTable) {
			c := idCol(st)
			c.Chunks = append(c.Chunks, ChunkInfo{Off: c.DiskSize()})
		}, `"id"`},
		{"chunk extent overflows", func(st *StoredTable) {
			c := idCol(st)
			c.Chunks[2].Size = math.MaxInt - c.Chunks[2].Off
			c.Chunks[3].Off = math.MaxInt
		}, `"id"`},
		{"unstored type", func(st *StoredTable) { idCol(st).Spec.Type = vector.Bool }, `"id"`},
		{"blob of another column", func(st *StoredTable) { st.Columns[2].Blob = idCol(st).Blob }, `"q"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := cloneStored(st)
			tc.corrupt(&bad)
			tab, err := OpenTable(bad, disk, NewManager(0))
			if err == nil {
				col := tab.MustColumn("id")
				rerr := NewCursor(col).Read(vector.New(col.Spec.Type, 1), 300, 1)
				t.Fatalf("OpenTable accepted the layout; reading row 300: %v", rerr)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name column %s", err, tc.want)
			}
		})
	}

	// An empty column keeps its one empty chunk, and needs it.
	disk2, pool := newTestEnv()
	empty, err := NewBuilder("e", disk2, pool, []ColumnSpec{{Name: "c", Type: vector.Int64, Enc: EncPFOR}}).Build()
	if err != nil {
		t.Fatal(err)
	}
	est := empty.Stored()
	if _, err := OpenTable(est, disk2, NewManager(0)); err != nil {
		t.Fatalf("empty table: %v", err)
	}
	est.Columns[0].Chunks = nil
	if _, err := OpenTable(est, disk2, NewManager(0)); err == nil {
		t.Fatal("empty column without its chunk accepted")
	}
}

// FuzzOpenTable: whatever a manifest says about a table, OpenTable refuses
// it or every row of every column reads without a panic. A read may still
// fail where the metadata names bytes that are not the chunk it describes,
// which only the read can see (ParseChunk refuses them); the metadata the
// table was written with reads back every value.
func FuzzOpenTable(f *testing.F) {
	st, disk := storedFixture(f)
	honest, err := OpenTable(st, disk, NewManager(0))
	if err != nil {
		f.Fatal(err)
	}
	want, err := readEveryRow(honest)
	if err != nil {
		f.Fatal(err)
	}
	seed := func(st StoredTable) {
		raw, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	seed(st)
	for _, corrupt := range []func(st *StoredTable){
		func(st *StoredTable) { st.Columns[1].Spec.ChunkLen = 512 },
		func(st *StoredTable) { st.Columns[1].Spec.ChunkLen = 0 },
		func(st *StoredTable) { st.Columns[2].Blob = st.Columns[1].Blob },
		func(st *StoredTable) { st.Columns[0].Chunks[1].Off++ },
		func(st *StoredTable) { st.N, st.Columns = 0, nil },
	} {
		bad := cloneStored(st)
		corrupt(&bad)
		seed(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var fuzzed StoredTable
		if json.Unmarshal(data, &fuzzed) != nil {
			return
		}
		tab, err := OpenTable(fuzzed, disk, NewManager(0))
		if err != nil {
			return
		}
		got, err := readEveryRow(tab)
		if reflect.DeepEqual(fuzzed, st) && (err != nil || !reflect.DeepEqual(got, want)) {
			t.Fatalf("the table's own metadata reads back wrong: %v", err)
		}
	})
}
