package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/colbm"
	"repro/internal/vector"
)

// fetchCols are the document-table columns the FetchJoin tests fetch: one
// of every type a stored table holds.
var fetchCols = []string{"len", "w", "q", "name"}

// docTable builds a table of n rows, dense on docid — row i holds docid
// base+i — with a column of every stored type, all in chunks of chunkLen
// values (0 = the colbm default).
func docTable(tb testing.TB, n int, base int64, chunkLen int) *colbm.Table {
	tb.Helper()
	b := colbm.NewBuilder("D", colbm.NewSimDisk(colbm.DefaultDiskParams()), colbm.NewManager(0), []colbm.ColumnSpec{
		{Name: "docid", Type: vector.Int64, Enc: colbm.EncPFORDelta, Bits: 8, ChunkLen: chunkLen},
		{Name: "len", Type: vector.Int64, Enc: colbm.EncPFOR, Bits: 8, ChunkLen: chunkLen},
		{Name: "w", Type: vector.Float64, ChunkLen: chunkLen},
		{Name: "q", Type: vector.UInt8, ChunkLen: chunkLen},
		{Name: "name", Type: vector.Str, ChunkLen: chunkLen},
	})
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		b.AppendInt64("docid", base+int64(i))
		// Right-skewed lengths, median 150, as the corpus draws them: a few
		// exceed the 8-bit frame and are coded as exceptions.
		b.AppendInt64("len", min(1200, max(16, int64(math.Exp(rng.NormFloat64()*0.6+math.Log(150))))))
		b.AppendFloat64("w", float64(rng.Intn(1<<20))/64)
		b.AppendUInt8("q", uint8(rng.Intn(256)))
		b.AppendStr("name", fmt.Sprintf("doc-%d", base+int64(i)))
	}
	tab, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

// candidates is a FetchJoin input: strictly increasing keys, and a keep
// flag the Select under the join filters on (keep = 0 survives).
type candidates struct {
	keys, keep []int64
}

// op serves the candidates with a payload column, behind a Select when
// filtered, so that the join's child hands over batches with selection
// vectors.
func (c candidates) op(t *testing.T, filtered bool) Operator {
	pay := make([]int64, len(c.keys))
	for i := range pay {
		pay[i] = int64(i) * 31
	}
	var op Operator = valuesOp(t, []string{"k", "keep", "pay"}, c.keys, c.keep, pay)
	if filtered {
		op = NewSelect(op, &CmpIntColVal{Col: "keep", Op: LT, Val: 1})
	}
	return op
}

// candidatesAt keys the given rows of a table with docids from base,
// dropping every third one under the Select.
func candidatesAt(rows []int, base int64) candidates {
	c := candidates{keys: make([]int64, len(rows)), keep: make([]int64, len(rows))}
	for i, r := range rows {
		c.keys[i], c.keep[i] = base+int64(r), int64(b2i(i%3 == 2))
	}
	return c
}

// checkFetchJoin runs FetchJoin over the candidates and the plan it
// replaces, a Scan of the whole table merge-joined on docid, and fails on
// any difference: the rows (the merge join's d.docid column dropped), the
// output schema, Tuples, and NextCalls — which are the child's, as the
// fetch passes batches through, and so equal the merge join's whenever the
// child's batches are full, i.e. unfiltered. The context then holds what
// the fetch gave back, once, after a second Close.
func checkFetchJoin(t *testing.T, name string, tab *colbm.Table, base int64, c candidates, filtered bool, ctx *ExecContext) {
	t.Helper()
	child := c.op(t, filtered)
	fetch, err := NewFetchJoin(child, "k", tab, fetchCols, "d.", base)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := NewRangeScan(tab, append([]string{"docid"}, fetchCols...), 0, tab.N)
	if err != nil {
		t.Fatal(err)
	}
	merge := NewMergeJoin(c.op(t, filtered), scan, "k", "docid", "", "d.")

	gotRows, _ := drainJoin(t, fetch, ctx)
	vecs, curs := len(freeVectors(t, ctx)), len(ctx.cursors)
	if err := fetch.Close(); err != nil {
		t.Fatal(err)
	}
	if v, cu := len(freeVectors(t, ctx)), len(ctx.cursors); v != vecs || cu != curs {
		t.Fatalf("%s: a second Close gave back %d more vectors and %d more cursors", name, v-vecs, cu-curs)
	}
	wantRows, _ := drainJoin(t, merge, ctx)

	drop := len(child.Schema()) // the merge join's d.docid
	for i, row := range wantRows {
		wantRows[i] = append(row[:drop:drop], row[drop+1:]...)
	}
	wantSchema := append(merge.Schema()[:drop:drop], merge.Schema()[drop+1:]...)
	if !reflect.DeepEqual(fetch.Schema(), wantSchema) {
		t.Fatalf("%s: schema %v, merge join's %v", name, fetch.Schema(), wantSchema)
	}
	if len(gotRows) != len(wantRows) || len(gotRows) > 0 && !reflect.DeepEqual(gotRows, wantRows) {
		t.Fatalf("%s: %d rows differ from the merge join's %d", name, len(gotRows), len(wantRows))
	}
	gs, ws, cs := fetch.Stats(), merge.Stats(), child.Stats()
	if gs.Tuples != ws.Tuples || gs.NextCalls != cs.NextCalls || !filtered && gs.NextCalls != ws.NextCalls {
		t.Fatalf("%s: tuples=%d next_calls=%d, merge join tuples=%d next_calls=%d, child next_calls=%d",
			name, gs.Tuples, gs.NextCalls, ws.Tuples, ws.NextCalls, cs.NextCalls)
	}
}

// Invariant: FetchJoin returns what Scan + MergeJoin of a dense table
// returns, over chunks of 256 rows (so runs cross strides and chunks),
// vector sizes 1, 7, 128 and 1024, candidate sets from empty to every row,
// children with and without selection vectors, and poisoned vectors.
func TestFetchJoinMatchesMergeJoinProperty(t *testing.T) {
	const n, base = 5000, 7000
	tab := docTable(t, n, base, 256)
	rng := rand.New(rand.NewSource(79))
	sparse := func(density float64) []int {
		var rows []int
		for r := 0; r < n; r++ {
			if rng.Float64() < density {
				rows = append(rows, r)
			}
		}
		return rows
	}
	every := make([]int, n)
	for i := range every {
		every[i] = i
	}
	sets := []struct {
		name string
		rows []int
	}{
		{"empty", nil},
		{"single", []int{1 + rng.Intn(n-2)}},
		{"first row", []int{0}},
		{"last row", []int{n - 1}},
		{"first and last", []int{0, n - 1}},
		{"every row", every},
		{"sparse 0.5%", sparse(0.005)},
		{"sparse 5%", sparse(0.05)},
		{"dense 60%", sparse(0.6)},
	}
	ctxs := contexts{}
	for _, set := range sets {
		for _, filtered := range []bool{false, true} {
			for _, vs := range []int{1, 7, 128, 1024} {
				name := fmt.Sprintf("%s/filtered=%v/vec=%d", set.name, filtered, vs)
				checkFetchJoin(t, name, tab, base, candidatesAt(set.rows, base), filtered, ctxs.of(vs))
			}
		}
	}
}

// FuzzFetchJoin drives the FetchJoin oracle from fuzzed bytes: each byte is
// the gap to the next candidate row (its low bit also drops the candidate
// under the Select), and vs picks the vector size.
func FuzzFetchJoin(f *testing.F) {
	const n, base = 3000, 500
	tab := docTable(f, n, base, 256)
	f.Add([]byte{0, 1, 2, 127, 128, 255}, uint16(7), true)
	f.Add([]byte{}, uint16(0), false)
	f.Add(make([]byte, 64), uint16(1023), false)
	f.Fuzz(func(t *testing.T, gaps []byte, vs uint16, filtered bool) {
		var c candidates
		for r, i := -1, 0; i < len(gaps); i++ {
			if r += 1 + int(gaps[i]); r >= n {
				break
			}
			c.keys, c.keep = append(c.keys, base+int64(r)), append(c.keep, int64(gaps[i]&1))
		}
		ctx := &ExecContext{VectorSize: 1 + int(vs)%1024}
		checkFetchJoin(t, fmt.Sprintf("%d rows, vec=%d", len(c.keys), ctx.VectorSize), tab, base, c, filtered, ctx)
	})
}

// A key outside [base, base+N) is ErrFetchOutOfRange — below, at and past
// the end, and at both ends of int64 — never a read; an out-of-range key
// the child's selection vector excludes is not fetched.
func TestFetchJoinKeyOutOfRange(t *testing.T) {
	const n, base = 1000, 200
	tab := docTable(t, n, base, 0)
	for _, bad := range []int64{base - 1, base + n, base + n + 500, -1, math.MinInt64, math.MaxInt64} {
		for _, vs := range []int{1, 1024} {
			keys := []int64{base, base + 5, base + n - 1, bad}
			if bad < base {
				keys = []int64{bad, base}
			}
			c := candidates{keys: keys, keep: make([]int64, len(keys))}
			fetch, err := NewFetchJoin(c.op(t, false), "k", tab, []string{"len"}, "d.", base)
			if err != nil {
				t.Fatal(err)
			}
			err = Drain(fetch, &ExecContext{VectorSize: vs}, nil)
			if !errors.Is(err, ErrFetchOutOfRange) {
				t.Fatalf("key %d, vec=%d: %v, want ErrFetchOutOfRange", bad, vs, err)
			}
		}
	}
	// Excluded by the Select, the same key is never looked at.
	c := candidates{keys: []int64{base, base + n}, keep: []int64{0, 1}}
	fetch, err := NewFetchJoin(c.op(t, true), "k", tab, []string{"len"}, "d.", base)
	if err != nil {
		t.Fatal(err)
	}
	if rows := collectInts(t, fetch, NewContext()); len(rows) != 1 || rows[0][0] != base {
		t.Fatalf("filtered out-of-range key: rows %v, want the one at docid %d", rows, base)
	}
	if _, err := NewFetchJoin(c.op(t, false), "k", tab, []string{"nope"}, "d.", base); err == nil {
		t.Fatal("NewFetchJoin accepted a column the table does not have")
	}
}

// After Open, draining a FetchJoin allocates nothing: the windows, the
// fetched vectors and the row buffer came from the context.
func TestFetchJoinAllocatesNothingAfterOpen(t *testing.T) {
	const n = 25000
	tab := docTable(t, n, 0, 0)
	rows := make([]int, 0, n/2)
	for r := 0; r < n; r += 2 {
		rows = append(rows, r)
	}
	fetch, err := NewFetchJoin(candidatesAt(rows, 0).op(t, true), "k", tab, []string{"len", "w", "q"}, "d.", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fetch.Open(&ExecContext{VectorSize: 64}); err != nil {
		t.Fatal(err)
	}
	defer fetch.Close()
	allocs := testing.AllocsPerRun(100, func() {
		if b, err := fetch.Next(); err != nil || b == nil {
			t.Fatalf("Next: %v, %v", b, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per Next after Open, want 0", allocs)
	}
}
