package engine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/colbm"
	"repro/internal/vector"
)

// valuesOp builds an in-memory source from int64 columns for operator
// tests.
func valuesOp(t *testing.T, names []string, cols ...[]int64) *Values {
	t.Helper()
	vecs := make([]*vector.Vector, len(cols))
	for i, c := range cols {
		vecs[i] = vector.NewInt64(c)
	}
	op, err := NewValues(names, vecs)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func collectInts(t *testing.T, op Operator, ctx *ExecContext) [][]int64 {
	t.Helper()
	rows, err := Collect(op, ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int64, len(rows))
	for i, r := range rows {
		out[i] = make([]int64, len(r))
		for j, v := range r {
			out[i][j] = v.(int64)
		}
	}
	return out
}

func TestValuesRoundTrip(t *testing.T) {
	data := make([]int64, 3000)
	for i := range data {
		data[i] = int64(i)
	}
	op := valuesOp(t, []string{"x"}, data)
	ctx := NewContext()
	rows := collectInts(t, op, ctx)
	if len(rows) != 3000 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r[0] != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	// Values with mismatched column lengths must fail.
	if _, err := NewValues([]string{"a", "b"},
		[]*vector.Vector{vector.NewInt64([]int64{1}), vector.NewInt64([]int64{1, 2})}); err == nil {
		t.Error("ragged Values accepted")
	}
	if _, err := NewValues([]string{"a"}, nil); err == nil {
		t.Error("name/column count mismatch accepted")
	}
}

func TestSelectOperator(t *testing.T) {
	op := NewSelect(
		valuesOp(t, []string{"x"}, []int64{5, 1, 9, 3, 7, 2, 8}),
		&CmpIntColVal{Col: "x", Op: GT, Val: 4})
	rows := collectInts(t, op, NewContext())
	want := [][]int64{{5}, {9}, {7}, {8}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
}

func TestSelectAllFiltered(t *testing.T) {
	op := NewSelect(
		valuesOp(t, []string{"x"}, []int64{1, 2, 3}),
		&CmpIntColVal{Col: "x", Op: GT, Val: 100})
	rows := collectInts(t, op, NewContext())
	if len(rows) != 0 {
		t.Errorf("got %v", rows)
	}
}

func TestSelectBindErrors(t *testing.T) {
	op := NewSelect(
		valuesOp(t, []string{"x"}, []int64{1}),
		&CmpIntColVal{Col: "missing", Op: GT, Val: 0})
	if err := op.Open(NewContext()); err == nil {
		t.Error("unknown predicate column accepted")
	}
	op.Close()
}

func TestProjectArithmetic(t *testing.T) {
	op := NewProject(
		valuesOp(t, []string{"a", "b"}, []int64{1, 2, 3}, []int64{10, 20, 30}),
		[]Projection{
			{Name: "sum", Expr: NewArith(Add, NewColRef("a"), NewColRef("b"))},
			{Name: "prod", Expr: NewArith(Mul, NewColRef("a"), NewColRef("b"))},
			{Name: "hi", Expr: NewArith(Max, NewColRef("a"), NewColRef("b"))},
		})
	rows := collectInts(t, op, NewContext())
	want := [][]int64{{11, 10, 10}, {22, 40, 20}, {33, 90, 30}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
}

func TestProjectFloatPipeline(t *testing.T) {
	op := NewProject(
		valuesOp(t, []string{"x"}, []int64{1, 4, 9}),
		[]Projection{{
			Name: "y",
			Expr: NewArith(Mul,
				NewToFloat(NewColRef("x")),
				&ConstFloat{Val: 2.5}),
		}})
	rows, err := Collect(op, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2.5, 10, 22.5}
	for i, r := range rows {
		if r[0].(float64) != want[i] {
			t.Errorf("row %d = %v want %v", i, r[0], want[i])
		}
	}
}

func TestProjectOverSelection(t *testing.T) {
	// Projection downstream of a filter must produce values only for the
	// surviving tuples and keep the selection aligned.
	op := NewProject(
		NewSelect(
			valuesOp(t, []string{"x"}, []int64{1, 2, 3, 4, 5, 6}),
			&CmpIntColVal{Col: "x", Op: GT, Val: 3}),
		[]Projection{{Name: "sq", Expr: NewArith(Mul, NewColRef("x"), NewColRef("x"))}})
	rows := collectInts(t, op, NewContext())
	want := [][]int64{{16}, {25}, {36}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
}

func TestExprBindErrors(t *testing.T) {
	ctx := &ExecContext{VectorSize: 8}
	sch := Schema{{Name: "x", Type: vector.Int64}, {Name: "s", Type: vector.Str}}
	if err := NewColRef("nope").Bind(sch, ctx); err == nil {
		t.Error("unknown column bound")
	}
	if err := NewArith(Add, NewColRef("x"), &ConstFloat{Val: 1}).Bind(sch, ctx); err == nil {
		t.Error("mixed-type arith bound")
	}
	if err := NewArith(Add, NewColRef("s"), NewColRef("s")).Bind(sch, ctx); err == nil {
		t.Error("string arith bound")
	}
	if err := NewArith(Max, &ConstFloat{Val: 1}, &ConstFloat{Val: 2}).Bind(sch, ctx); err == nil {
		t.Error("float max bound")
	}
	if err := NewLog(NewColRef("x")).Bind(sch, ctx); err == nil {
		t.Error("log of int bound")
	}
	if err := NewToFloat(NewColRef("s")).Bind(sch, ctx); err == nil {
		t.Error("cast of string bound")
	}
}

func TestExprStrings(t *testing.T) {
	e := NewArith(Div,
		NewLog(NewToFloat(NewColRef("x"))),
		&ConstFloat{Val: 2})
	if s := e.String(); !strings.Contains(s, "log(float(x))") {
		t.Errorf("expr string = %q", s)
	}
}

func TestMergeJoinInner(t *testing.T) {
	l := valuesOp(t, []string{"docid", "tf"}, []int64{1, 3, 5, 7}, []int64{10, 30, 50, 70})
	r := valuesOp(t, []string{"docid", "tf"}, []int64{3, 4, 5, 9}, []int64{31, 41, 51, 91})
	j := NewMergeJoin(l, r, "docid", "docid", "l.", "r.")
	rows := collectInts(t, j, NewContext())
	want := [][]int64{{3, 30, 3, 31}, {5, 50, 5, 51}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
	if j.Schema().Index("l.docid") != 0 || j.Schema().Index("r.tf") != 3 {
		t.Errorf("schema = %v", j.Schema())
	}
}

func TestMergeJoinOuter(t *testing.T) {
	l := valuesOp(t, []string{"docid", "tf"}, []int64{1, 3, 5}, []int64{10, 30, 50})
	r := valuesOp(t, []string{"docid", "tf"}, []int64{3, 4, 9}, []int64{31, 41, 91})
	j := NewMergeOuterJoin(l, r, "docid", "docid", "l.", "r.")
	rows := collectInts(t, j, NewContext())
	want := [][]int64{
		{1, 10, 0, 0},
		{3, 30, 3, 31},
		{0, 0, 4, 41},
		{5, 50, 0, 0},
		{0, 0, 9, 91},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
}

func TestMergeJoinEmptySides(t *testing.T) {
	mk := func() (Operator, Operator) {
		return valuesOp(t, []string{"k"}, []int64{}),
			valuesOp(t, []string{"k"}, []int64{1, 2})
	}
	l, r := mk()
	inner := NewMergeJoin(l, r, "k", "k", "l.", "r.")
	if rows := collectInts(t, inner, NewContext()); len(rows) != 0 {
		t.Errorf("inner with empty left: %v", rows)
	}
	l, r = mk()
	outer := NewMergeOuterJoin(l, r, "k", "k", "l.", "r.")
	rows := collectInts(t, outer, NewContext())
	want := [][]int64{{0, 1}, {0, 2}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("outer with empty left: %v", rows)
	}
}

func TestMergeJoinRejectsUnsorted(t *testing.T) {
	l := valuesOp(t, []string{"k"}, []int64{3, 1})
	r := valuesOp(t, []string{"k"}, []int64{1, 2})
	j := NewMergeJoin(l, r, "k", "k", "l.", "r.")
	if err := j.Open(NewContext()); err != nil {
		t.Fatal(err)
	}
	_, err := j.Next()
	if err == nil || !strings.Contains(err.Error(), "strictly increasing") {
		t.Errorf("unsorted input not rejected: %v", err)
	}
	j.Close()
}

func TestMergeJoinKeyErrors(t *testing.T) {
	l := valuesOp(t, []string{"k"}, []int64{1})
	r := valuesOp(t, []string{"k"}, []int64{1})
	j := NewMergeJoin(l, r, "nope", "k", "", "r.")
	if err := j.Open(NewContext()); err == nil {
		t.Error("missing key column accepted")
	}
	j.Close()
}

func TestAggregateGrouped(t *testing.T) {
	op := NewAggregate(
		valuesOp(t, []string{"g", "v"},
			[]int64{1, 2, 1, 2, 1}, []int64{10, 20, 30, 40, 50}),
		[]string{"g"},
		[]AggSpec{
			{Op: AggSum, Col: "v", Name: "total"},
			{Op: AggCount, Name: "cnt"},
			{Op: AggMin, Col: "v", Name: "lo"},
			{Op: AggMax, Col: "v", Name: "hi"},
		})
	rows := collectInts(t, op, NewContext())
	want := [][]int64{{1, 90, 3, 10, 50}, {2, 60, 2, 20, 40}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
}

func TestAggregateScalar(t *testing.T) {
	op := NewAggregate(
		valuesOp(t, []string{"v"}, []int64{5, 10, 15}),
		nil,
		[]AggSpec{{Op: AggSum, Col: "v", Name: "s"}, {Op: AggCount, Name: "c"}})
	rows := collectInts(t, op, NewContext())
	want := [][]int64{{30, 3}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
	// Scalar aggregate over empty input still yields one row.
	op2 := NewAggregate(
		valuesOp(t, []string{"v"}, []int64{}),
		nil,
		[]AggSpec{{Op: AggCount, Name: "c"}})
	rows2 := collectInts(t, op2, NewContext())
	if !reflect.DeepEqual(rows2, [][]int64{{0}}) {
		t.Errorf("empty scalar aggregate: %v", rows2)
	}
}

func TestAggregateFloatAndStrGroups(t *testing.T) {
	g := vector.NewStr([]string{"A", "N", "A", "R"})
	v := vector.NewFloat64([]float64{1.5, 2.5, 3.5, 4.0})
	src, err := NewValues([]string{"flag", "price"}, []*vector.Vector{g, v})
	if err != nil {
		t.Fatal(err)
	}
	op := NewAggregate(src, []string{"flag"}, []AggSpec{
		{Op: AggSum, Col: "price", Name: "sum_price"},
		{Op: AggMax, Col: "price", Name: "max_price"},
		{Op: AggMin, Col: "price", Name: "min_price"},
	})
	rows, err := Collect(op, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{
		{"A", 5.0, 3.5, 1.5},
		{"N", 2.5, 2.5, 2.5},
		{"R", 4.0, 4.0, 4.0},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
}

func TestAggregateErrors(t *testing.T) {
	if err := NewAggregate(
		valuesOp(t, []string{"a", "b", "c"}, []int64{1}, []int64{1}, []int64{1}),
		[]string{"a", "b", "c"}, nil).Open(NewContext()); err == nil {
		t.Error("3 group columns accepted")
	}
	if err := NewAggregate(
		valuesOp(t, []string{"a"}, []int64{1}),
		[]string{"zz"}, nil).Open(NewContext()); err == nil {
		t.Error("unknown group column accepted")
	}
	if err := NewAggregate(
		valuesOp(t, []string{"a"}, []int64{1}),
		nil, []AggSpec{{Op: AggSum, Col: "zz", Name: "s"}}).Open(NewContext()); err == nil {
		t.Error("unknown aggregate column accepted")
	}
}

func TestTopNBasic(t *testing.T) {
	op := NewTopN(
		valuesOp(t, []string{"id", "score"},
			[]int64{1, 2, 3, 4, 5}, []int64{50, 90, 10, 90, 70}),
		3,
		[]OrderSpec{{Col: "score", Desc: true}, {Col: "id", Desc: false}})
	rows := collectInts(t, op, NewContext())
	// Ties on score 90 break by ascending id: 2 before 4.
	want := [][]int64{{2, 90}, {4, 90}, {5, 70}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
}

func TestTopNFewerRowsThanN(t *testing.T) {
	op := NewTopN(
		valuesOp(t, []string{"x"}, []int64{3, 1}),
		10, []OrderSpec{{Col: "x", Desc: true}})
	rows := collectInts(t, op, NewContext())
	want := [][]int64{{3}, {1}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
}

func TestTopNErrors(t *testing.T) {
	if err := NewTopN(valuesOp(t, []string{"x"}, []int64{1}), 0,
		[]OrderSpec{{Col: "x"}}).Open(NewContext()); err == nil {
		t.Error("n=0 accepted")
	}
	if err := NewTopN(valuesOp(t, []string{"x"}, []int64{1}), 1,
		[]OrderSpec{{Col: "zz"}}).Open(NewContext()); err == nil {
		t.Error("unknown order column accepted")
	}
}

func TestSortOperator(t *testing.T) {
	op := NewSort(
		valuesOp(t, []string{"x"}, []int64{5, 2, 9, 2, 7}),
		[]OrderSpec{{Col: "x", Desc: false}})
	rows := collectInts(t, op, NewContext())
	want := [][]int64{{2}, {2}, {5}, {7}, {9}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
}

func TestExplainOutput(t *testing.T) {
	top := NewTopN(
		NewProject(
			NewSelect(
				valuesOp(t, []string{"x"}, []int64{1, 2, 3, 4, 5}),
				&CmpIntColVal{Col: "x", Op: GT, Val: 1}),
			[]Projection{{Name: "y", Expr: NewArith(Mul, NewColRef("x"), NewColRef("x"))}}),
		2, []OrderSpec{{Col: "y", Desc: true}})
	if _, err := Collect(top, NewContext()); err != nil {
		t.Fatal(err)
	}
	plan := Explain(top)
	for _, want := range []string{"TopN(2; y DESC)", "Project(y=(x * x))", "Select(x > 1)", "Values(5 rows;", "tuples="} {
		if !strings.Contains(plan, want) {
			t.Errorf("explain output missing %q:\n%s", want, plan)
		}
	}
	// Indentation: Values is three levels deep.
	if !strings.Contains(plan, "      Values") {
		t.Errorf("explain indentation wrong:\n%s", plan)
	}
}

func TestScanFromStorage(t *testing.T) {
	disk := colbm.NewSimDisk(colbm.DefaultDiskParams())
	pool := colbm.NewManager(0)
	b := colbm.NewBuilder("tab", disk, pool, []colbm.ColumnSpec{
		{Name: "id", Type: vector.Int64, Enc: colbm.EncPFORDelta, Bits: 8},
		{Name: "val", Type: vector.Int64, Enc: colbm.EncPFOR, Bits: 8},
	})
	n := 10000
	ids := make([]int64, n)
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i * 3)
		vals[i] = int64(i % 250)
	}
	b.SetInt64("id", ids)
	b.SetInt64("val", vals)
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	scan, err := NewRangeScan(tab, []string{"id", "val"}, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	rows := collectInts(t, scan, NewContext())
	if len(rows) != n {
		t.Fatalf("scan returned %d rows", len(rows))
	}
	for i, r := range rows {
		if r[0] != ids[i] || r[1] != vals[i] {
			t.Fatalf("row %d = %v", i, r)
		}
	}

	// Range scan (the inverted-list access path).
	rscan, err := NewRangeScan(tab, []string{"id"}, 100, 228)
	if err != nil {
		t.Fatal(err)
	}
	rrows := collectInts(t, rscan, NewContext())
	if len(rrows) != 128 || rrows[0][0] != 300 || rrows[127][0] != 681 {
		t.Fatalf("range scan wrong: %d rows, first %v", len(rrows), rrows[0])
	}

	// Invalid ranges and columns.
	if _, err := NewRangeScan(tab, []string{"id"}, -1, 5); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := NewRangeScan(tab, []string{"id"}, 0, n+1); err == nil {
		t.Error("overlong range accepted")
	}
	if _, err := NewRangeScan(tab, []string{"missing"}, 0, n); err == nil {
		t.Error("missing column accepted")
	}
}

func TestVectorSizeIndependence(t *testing.T) {
	// The same plan must produce identical results at any vector size —
	// the correctness side of the vector-size ablation.
	build := func() Operator {
		return NewTopN(
			NewProject(
				NewSelect(
					valuesOp(t, []string{"x"},
						[]int64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10, 11, 0}),
					&CmpIntColVal{Col: "x", Op: LT, Val: 10}),
				[]Projection{{Name: "y", Expr: NewArith(Add, NewColRef("x"), NewColRef("x"))}}),
			4, []OrderSpec{{Col: "y", Desc: true}})
	}
	var want [][]int64
	for _, vs := range []int{1, 2, 3, 7, 64, 1024} {
		ctx := &ExecContext{VectorSize: vs}
		got := collectInts(t, build(), ctx)
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("vector size %d changed results: %v vs %v", vs, got, want)
		}
	}
}

func TestLimitOperator(t *testing.T) {
	data := make([]int64, 100)
	for i := range data {
		data[i] = int64(i)
	}
	op := NewLimit(valuesOp(t, []string{"x"}, data), 7)
	rows := collectInts(t, op, &ExecContext{VectorSize: 4})
	if len(rows) != 7 {
		t.Fatalf("limit 7 returned %d rows", len(rows))
	}
	for i, r := range rows {
		if r[0] != int64(i) {
			t.Errorf("row %d = %v", i, r)
		}
	}
	// Limit larger than input passes everything.
	op2 := NewLimit(valuesOp(t, []string{"x"}, []int64{1, 2}), 10)
	if rows := collectInts(t, op2, NewContext()); len(rows) != 2 {
		t.Errorf("oversized limit: %d rows", len(rows))
	}
	// Limit 0 yields nothing.
	op3 := NewLimit(valuesOp(t, []string{"x"}, []int64{1, 2}), 0)
	if rows := collectInts(t, op3, NewContext()); len(rows) != 0 {
		t.Errorf("limit 0: %d rows", len(rows))
	}
	// Negative limit rejected.
	if err := NewLimit(valuesOp(t, []string{"x"}, []int64{1}), -1).Open(NewContext()); err == nil {
		t.Error("negative limit accepted")
	}
}

func TestLimitOverSelection(t *testing.T) {
	// Limit downstream of a filter truncates the selection prefix.
	op := NewLimit(
		NewSelect(
			valuesOp(t, []string{"x"}, []int64{1, 10, 2, 20, 3, 30, 4, 40}),
			&CmpIntColVal{Col: "x", Op: GE, Val: 10}),
		2)
	rows := collectInts(t, op, NewContext())
	want := [][]int64{{10}, {20}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v want %v", rows, want)
	}
	if !strings.Contains(op.Describe(), "Limit(2)") {
		t.Error("describe wrong")
	}
}

func TestLimitStopsPullingChild(t *testing.T) {
	// The child must not be drained past the limit: with vector size 10
	// and limit 10, exactly one child batch suffices.
	src := valuesOp(t, []string{"x"}, make([]int64, 1000))
	op := NewLimit(src, 10)
	ctx := &ExecContext{VectorSize: 10}
	if err := Drain(op, ctx, nil); err != nil {
		t.Fatal(err)
	}
	if calls := src.Stats().NextCalls; calls > 2 {
		t.Errorf("limit pulled %d child batches, want <= 2", calls)
	}
}
