package engine

import (
	"math"
	"testing"

	"repro/internal/colbm"
	"repro/internal/vector"
)

// freeVectors returns every vector on the context's free lists, failing the
// test if one is there twice — a vector the next two takers would share.
func freeVectors(t *testing.T, ctx *ExecContext) []*vector.Vector {
	t.Helper()
	seen := map[*vector.Vector]bool{}
	var all []*vector.Vector
	for _, free := range ctx.free {
		for _, v := range free {
			if seen[v] {
				t.Fatalf("a %v vector is on the free list twice", v.Type())
			}
			seen[v] = true
			all = append(all, v)
		}
	}
	curs := map[*colbm.Cursor]bool{}
	for _, c := range ctx.cursors {
		if curs[c] {
			t.Fatal("a cursor is on the free list twice")
		}
		curs[c] = true
	}
	return all
}

// scanTable builds a two-column stored table of n rows with a strictly
// increasing key.
func scanTable(t *testing.T, n int) *colbm.Table {
	t.Helper()
	b := colbm.NewBuilder("tab", colbm.NewSimDisk(colbm.DefaultDiskParams()), colbm.NewManager(0), []colbm.ColumnSpec{
		{Name: "id", Type: vector.Int64, Enc: colbm.EncPFORDelta, Bits: 8},
		{Name: "val", Type: vector.Int64, Enc: colbm.EncPFOR, Bits: 8},
	})
	ids, vals := make([]int64, n), make([]int64, n)
	for i := range ids {
		ids[i], vals[i] = int64(3*i), int64(i%250)
	}
	b.SetInt64("id", ids)
	b.SetInt64("val", vals)
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// Closing a plan twice — Drain's deferred Close, then the owner's — gives
// each vector and cursor back once, and the next plan on the context runs
// on them, poisoned again, to the same result.
func TestDoubleCloseGivesBackOnce(t *testing.T) {
	tab := scanTable(t, 5000)
	ctx := &ExecContext{VectorSize: 64}
	plan := func() Operator {
		l, err := NewRangeScan(tab, []string{"id", "val"}, 0, 3000)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRangeScan(tab, []string{"id", "val"}, 1000, 5000)
		if err != nil {
			t.Fatal(err)
		}
		join := NewMergeJoin(NewSelect(l, &CmpIntColVal{Col: "val", Op: LT, Val: 200}), r, "id", "id", "l.", "r.")
		proj := NewProject(join, []Projection{
			{Name: "id", Expr: NewColRef("l.id")},
			{Name: "s", Expr: NewArith(Add, NewToFloat(NewColRef("l.val")), &ConstFloat{Val: 0.5})},
		})
		return NewTopN(proj, 10, []OrderSpec{{Col: "s", Desc: true}, {Col: "id"}})
	}
	first := plan()
	want := collectInts(t, NewProject(first, []Projection{{Name: "id", Expr: NewColRef("id")}}), ctx)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	given := len(freeVectors(t, ctx))
	if given == 0 || len(ctx.cursors) != 4 {
		t.Fatalf("a closed plan gave back %d vectors and %d cursors, want some and 4", given, len(ctx.cursors))
	}
	for run := 0; run < 3; run++ {
		got := collectInts(t, NewProject(plan(), []Projection{{Name: "id", Expr: NewColRef("id")}}), ctx)
		if len(got) != 10 || !sameRows(got, want) {
			t.Fatalf("run %d on recycled vectors: %v, first run %v", run, got, want)
		}
		if n := len(freeVectors(t, ctx)); n != given {
			t.Fatalf("run %d: %d vectors on the free list, the first plan gave back %d", run, n, given)
		}
	}
	v := ctx.vector(vector.Float64, 1)
	if v.Cap() != 64 || !math.IsNaN(v.F64[0]) || !math.IsNaN(v.F64[63]) {
		t.Fatalf("a recycled vector of capacity %d is not poisoned: %v ... %v", v.Cap(), v.F64[0], v.F64[63])
	}
}

// The layer replay's scan pattern — open one RangeScan per query term on
// one context, step them, close them all — repeated 10 000 times leaves the
// context holding one query's scans' vectors and cursors, not a growing
// pile.
func TestRangeScanCyclesHoldOnePlan(t *testing.T) {
	tab := scanTable(t, 20000)
	ctx := &ExecContext{VectorSize: 128}
	const terms, cols = 3, 2
	scans := make([]*Scan, terms)
	for cycle := 0; cycle < 10000; cycle++ {
		for i := range scans {
			start := (cycle*7 + i*4000) % 15000
			op, err := NewRangeScan(tab, []string{"id", "val"}, start, start+2500)
			if err != nil {
				t.Fatal(err)
			}
			if err := op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			scans[i] = op
		}
		for i, op := range scans {
			b, err := op.Next()
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(3 * ((cycle*7 + i*4000) % 15000)); b.N != ctx.VectorSize || b.Vecs[0].I64[0] != want {
				t.Fatalf("cycle %d scan %d: %d rows from id %d, want %d from %d", cycle, i, b.N, b.Vecs[0].I64[0], ctx.VectorSize, want)
			}
		}
		for _, op := range scans {
			op.Close()
		}
	}
	if n := len(freeVectors(t, ctx)); n != terms*cols || len(ctx.cursors) != terms*cols {
		t.Fatalf("after 10 000 cycles the context holds %d vectors and %d cursors, want %d of each",
			n, len(ctx.cursors), terms*cols)
	}
}
