package engine

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/primitives"
	"repro/internal/vector"
)

// Tests for the plan-display and expression paths the core operator tests
// do not reach.

func TestDescribeAndChildren(t *testing.T) {
	l := valuesOp(t, []string{"k", "v"}, []int64{1}, []int64{2})
	r := valuesOp(t, []string{"k", "v"}, []int64{1}, []int64{3})
	mj := NewMergeOuterJoin(l, r, "k", "k", "a.", "b.")
	if d := mj.Describe(); !strings.Contains(d, "MergeOuterJoin(a.k = b.k)") {
		t.Errorf("merge describe: %s", d)
	}
	if len(mj.Children()) != 2 {
		t.Error("merge join children")
	}
	agg := NewAggregate(l, []string{"k"}, []AggSpec{
		{Op: AggCount, Name: "n"}, {Op: AggSum, Col: "v", Name: "s"},
	})
	if d := agg.Describe(); !strings.Contains(d, "n=count()") || !strings.Contains(d, "s=sum(v)") {
		t.Errorf("aggregate describe: %s", d)
	}
	if len(agg.Children()) != 1 {
		t.Error("aggregate children")
	}
	lim := NewLimit(l, 3)
	if len(lim.Children()) != 1 {
		t.Error("limit children")
	}
	srt := NewSort(l, []OrderSpec{{Col: "k"}})
	if d := srt.Describe(); !strings.Contains(d, "Sort(k ASC)") {
		t.Errorf("sort describe: %s", d)
	}
	if len(srt.Children()) != 1 {
		t.Error("sort children")
	}
	if (OrderSpec{Col: "x", Desc: true}).String() != "x DESC" {
		t.Error("order spec string")
	}
	for op, want := range map[AggOp]string{AggSum: "sum", AggCount: "count", AggMin: "min", AggMax: "max"} {
		if op.String() != want {
			t.Errorf("agg op %v string", op)
		}
	}
}

func TestMustIndexPanics(t *testing.T) {
	s := Schema{{Name: "a", Type: vector.Int64}}
	if s.MustIndex("a") != 0 {
		t.Error("MustIndex(a)")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustIndex(missing) did not panic")
		}
	}()
	s.MustIndex("zz")
}

func TestIntDivAndSubVal(t *testing.T) {
	op := NewProject(
		valuesOp(t, []string{"a", "b"}, []int64{10, 20, 31}, []int64{3, 4, 5}),
		[]Projection{{Name: "q", Expr: NewArith(Div, NewColRef("a"), NewColRef("b"))}})
	rows := collectInts(t, op, NewContext())
	want := [][]int64{{3}, {5}, {6}}
	for i := range want {
		if rows[i][0] != want[i][0] {
			t.Errorf("int div row %d: %v", i, rows[i])
		}
	}
	// Int division under a selection vector.
	op2 := NewProject(
		NewSelect(
			valuesOp(t, []string{"a", "b"}, []int64{10, 20, 30}, []int64{2, 0, 3}),
			&CmpIntColVal{Col: "b", Op: NE, Val: 0}),
		[]Projection{{Name: "q", Expr: NewArith(Div, NewColRef("a"), NewColRef("b"))}})
	rows2 := collectInts(t, op2, NewContext())
	if len(rows2) != 2 || rows2[0][0] != 5 || rows2[1][0] != 10 {
		t.Errorf("selective int div: %v", rows2)
	}
}

func TestBM25ComposedMatchesFused(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 500
	tf := make([]int64, n)
	dl := make([]int64, n)
	for i := range tf {
		tf[i] = 1 + int64(rng.Intn(30))
		dl[i] = 50 + int64(rng.Intn(900))
	}
	params := primitives.BM25Params{K1: 1.2, B: 0.75, NumDocs: 1e6, AvgDocLn: 400}

	eval := func(e Expr) []float64 {
		src := valuesOp(t, []string{"tf", "len"}, tf, dl)
		proj := NewProject(src, []Projection{{Name: "w", Expr: e}})
		var out []float64
		rows, err := Collect(proj, NewContext())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			out = append(out, r[0].(float64))
		}
		return out
	}
	fused := eval(&BM25{
		TF: NewColRef("tf"), DocLen: NewColRef("len"), Ftd: 5000, Params: params,
	})
	composed := eval(BM25Composed(NewColRef("tf"), NewColRef("len"), 5000, params))
	for i := range fused {
		if math.Abs(fused[i]-composed[i]) > 1e-9 {
			t.Fatalf("fused %v != composed %v at %d", fused[i], composed[i], i)
		}
		want := params.Weight(float64(tf[i]), float64(dl[i]), 5000)
		if math.Abs(fused[i]-want) > 1e-9 {
			t.Fatalf("fused %v != scalar %v at %d", fused[i], want, i)
		}
	}
	// Expression strings for the demo display.
	e := &BM25{TF: NewColRef("tf"), DocLen: NewColRef("len"), Ftd: 5000, Params: params}
	if s := e.String(); !strings.Contains(s, "bm25(tf, len") {
		t.Errorf("bm25 string: %s", s)
	}
	if err := (&BM25{TF: NewColRef("tf"), DocLen: NewColRef("tf")}).Bind(
		Schema{{Name: "tf", Type: vector.Float64}}, &ExecContext{VectorSize: 8}); err == nil {
		t.Error("BM25 over float tf bound")
	}
}

func TestBM25OverSelection(t *testing.T) {
	params := primitives.BM25Params{K1: 1.2, B: 0.75, NumDocs: 1e6, AvgDocLn: 400}
	op := NewProject(
		NewSelect(
			valuesOp(t, []string{"tf", "len"}, []int64{1, 5, 9}, []int64{100, 200, 300}),
			&CmpIntColVal{Col: "tf", Op: GT, Val: 2}),
		[]Projection{{Name: "w", Expr: &BM25{
			TF: NewColRef("tf"), DocLen: NewColRef("len"), Ftd: 100, Params: params,
		}}})
	rows, err := Collect(op, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if got, want := rows[0][0].(float64), params.Weight(5, 200, 100); math.Abs(got-want) > 1e-9 {
		t.Errorf("selective BM25: %v vs %v", got, want)
	}
}

func TestCmpOpStringsAndFloatPred(t *testing.T) {
	for op, want := range map[CmpOp]string{LT: "<", LE: "<=", GT: ">", GE: ">=", EQ: "=", NE: "<>"} {
		if op.String() != want {
			t.Errorf("%v string", op)
		}
	}
	// The one predicate is Int64-only: a float column is refused at bind
	// time.
	f := vector.NewFloat64([]float64{0.5, 2.5, 1.5})
	src, err := NewValues([]string{"s"}, []*vector.Vector{f})
	if err != nil {
		t.Fatal(err)
	}
	if err := (&CmpIntColVal{Col: "s", Op: GT}).Bind(src.Schema()); err == nil {
		t.Error("int predicate over float column bound")
	}
}

func TestAggregateMinMaxMixedTypes(t *testing.T) {
	// Int64 max and float64 min exercise the scalar fallback paths.
	g := vector.NewInt64([]int64{1, 1, 2})
	iv := vector.NewInt64([]int64{5, 9, 2})
	fv := vector.NewFloat64([]float64{1.5, 0.5, 7.5})
	src, err := NewValues([]string{"g", "i", "f"}, []*vector.Vector{g, iv, fv})
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregate(src, []string{"g"}, []AggSpec{
		{Op: AggMax, Col: "i", Name: "imax"},
		{Op: AggMin, Col: "f", Name: "fmin"},
	})
	rows, err := Collect(agg, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][1] != int64(9) || rows[0][2] != 0.5 {
		t.Errorf("group 1: %v", rows[0])
	}
	if rows[1][1] != int64(2) || rows[1][2] != 7.5 {
		t.Errorf("group 2: %v", rows[1])
	}
}

func TestRoundDur(t *testing.T) {
	if roundDur(2*time.Second+300*time.Microsecond) != 2*time.Second {
		t.Error("second rounding")
	}
	if roundDur(3*time.Millisecond+700*time.Nanosecond) != 3*time.Millisecond+time.Microsecond {
		t.Error("ms rounding")
	}
	if roundDur(500*time.Nanosecond) != 500*time.Nanosecond {
		t.Error("ns passthrough")
	}
}
