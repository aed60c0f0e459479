package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/colbm"
	"repro/internal/vector"
)

// randSortedUnique builds a strictly increasing key set.
func randSortedUnique(rng *rand.Rand, n, domain int) []int64 {
	seen := map[int64]bool{}
	for len(seen) < n {
		seen[int64(rng.Intn(domain))] = true
	}
	out := make([]int64, 0, n)
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Invariant: MergeJoin equals nested-loop intersection,
// MergeOuterJoin equals union, on random sorted unique inputs; and the
// vector-at-a-time kernel equals a tuple-at-a-time reference operator —
// rows, batch boundaries and counters — over every column type, selection
// vectors, lopsided and empty sides, and vector sizes down to 1.
func TestMergeJoinMatchesOracleProperty(t *testing.T) {
	t.Run("set oracle", testMergeJoinMatchesSetOracle)
	t.Run("tuple-at-a-time reference", testMergeJoinMatchesTupleReference)
}

func testMergeJoinMatchesSetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		nl, nr := rng.Intn(300), rng.Intn(300)
		if nl == 0 {
			nl = 1
		}
		if nr == 0 {
			nr = 1
		}
		lKeys := randSortedUnique(rng, nl, 1000)
		rKeys := randSortedUnique(rng, nr, 1000)
		lVals := make([]int64, len(lKeys))
		rVals := make([]int64, len(rKeys))
		for i := range lVals {
			lVals[i] = rng.Int63n(1000)
		}
		for i := range rVals {
			rVals[i] = rng.Int63n(1000)
		}

		// Oracle: map-based intersection and union.
		rIdx := map[int64]int{}
		for i, k := range rKeys {
			rIdx[k] = i
		}
		var wantInner [][]int64
		for i, k := range lKeys {
			if ri, ok := rIdx[k]; ok {
				wantInner = append(wantInner, []int64{k, lVals[i], k, rVals[ri]})
			}
		}
		var wantOuter [][]int64
		li, ri := 0, 0
		for li < len(lKeys) || ri < len(rKeys) {
			switch {
			case ri >= len(rKeys) || (li < len(lKeys) && lKeys[li] < rKeys[ri]):
				wantOuter = append(wantOuter, []int64{lKeys[li], lVals[li], 0, 0})
				li++
			case li >= len(lKeys) || rKeys[ri] < lKeys[li]:
				wantOuter = append(wantOuter, []int64{0, 0, rKeys[ri], rVals[ri]})
				ri++
			default:
				wantOuter = append(wantOuter, []int64{lKeys[li], lVals[li], rKeys[ri], rVals[ri]})
				li++
				ri++
			}
		}

		vs := 1 + rng.Intn(64) // random vector size stresses batch boundaries
		ctx := &ExecContext{VectorSize: vs}

		inner := NewMergeJoin(
			valuesOp(t, []string{"k", "v"}, lKeys, lVals),
			valuesOp(t, []string{"k", "v"}, rKeys, rVals),
			"k", "k", "l.", "r.")
		got := collectInts(t, inner, ctx)
		if !sameRows(got, wantInner) {
			t.Fatalf("trial %d (vs=%d): inner join mismatch\n got %v\nwant %v", trial, vs, got, wantInner)
		}

		outer := NewMergeOuterJoin(
			valuesOp(t, []string{"k", "v"}, lKeys, lVals),
			valuesOp(t, []string{"k", "v"}, rKeys, rVals),
			"k", "k", "l.", "r.")
		got = collectInts(t, outer, ctx)
		if !sameRows(got, wantOuter) {
			t.Fatalf("trial %d (vs=%d): outer join mismatch\n got %v\nwant %v", trial, vs, got, wantOuter)
		}
	}
}

// tupleMergeJoin is the tuple-at-a-time reference of MergeJoin.Next: it
// shares Open, the ensure* input handling and Close with MergeJoin and
// differs only in how a Next call fills the output vector — one copyValue
// per value.
type tupleMergeJoin struct{ *MergeJoin }

func (r tupleMergeJoin) Next() (*vector.Batch, error) {
	j := r.MergeJoin
	emit := 0
	for emit < j.vecSize {
		lOK, err := j.ensureLeft()
		if err != nil {
			return nil, err
		}
		rOK, err := j.ensureRight()
		if err != nil {
			return nil, err
		}
		if !lOK && !rOK || !j.outer && (!lOK || !rOK) {
			break
		}
		switch {
		case !lOK:
			r.emitRight(emit)
			emit++
		case !rOK:
			r.emitLeft(emit)
			emit++
		default:
			lk := j.lBatch.Vecs[j.lKeyIdx].I64[j.lPos]
			rk := j.rBatch.Vecs[j.rKeyIdx].I64[j.rPos]
			switch {
			case lk == rk:
				r.emitBoth(emit)
				emit++
			case lk < rk && j.outer:
				r.emitLeft(emit)
				emit++
			case lk < rk:
				j.lPos++
			case j.outer:
				r.emitRight(emit)
				emit++
			default:
				j.rPos++
			}
		}
	}
	j.stats.NextCalls++
	if emit == 0 {
		return nil, nil
	}
	for _, v := range j.out.Vecs {
		v.SetLen(emit)
	}
	j.out.Sel, j.out.N = nil, emit
	j.stats.Tuples += int64(emit)
	return j.out, nil
}

func (r tupleMergeJoin) emitBoth(at int) {
	for c, v := range r.lBatch.Vecs {
		copyValue(r.out.Vecs[c], at, v, r.lPos)
	}
	for c, v := range r.rBatch.Vecs {
		copyValue(r.out.Vecs[r.nLeft+c], at, v, r.rPos)
	}
	r.lPos++
	r.rPos++
}

func (r tupleMergeJoin) emitLeft(at int) {
	for c, v := range r.lBatch.Vecs {
		copyValue(r.out.Vecs[c], at, v, r.lPos)
	}
	for _, dst := range r.out.Vecs[r.nLeft:] {
		zeroValue(dst, at)
	}
	r.lPos++
}

func (r tupleMergeJoin) emitRight(at int) {
	for _, dst := range r.out.Vecs[:r.nLeft] {
		zeroValue(dst, at)
	}
	for c, v := range r.rBatch.Vecs {
		copyValue(r.out.Vecs[r.nLeft+c], at, v, r.rPos)
	}
	r.rPos++
}

// zeroValue writes the type's zero value (the padding emitted for the
// missing side of an outer join).
func zeroValue(dst *vector.Vector, di int) {
	switch dst.Type() {
	case vector.Int64:
		dst.I64[di] = 0
	case vector.Int32:
		dst.I32[di] = 0
	case vector.Float64:
		dst.F64[di] = 0
	case vector.UInt8:
		dst.U8[di] = 0
	case vector.Str:
		dst.S[di] = ""
	case vector.Bool:
		dst.B[di] = false
	}
}

// joinSide is one join input: a strictly increasing key, a filter column
// the Select under the join cuts on, and a payload column of every type.
type joinSide struct {
	names []string
	cols  []*vector.Vector
}

func randJoinSide(rng *rand.Rand, n, domain int) joinSide {
	keys := randSortedUnique(rng, n, domain)
	keep, i32 := make([]int64, n), make([]int32, n)
	f64, u8 := make([]float64, n), make([]uint8, n)
	str, bl := make([]string, n), make([]bool, n)
	for i := range keys {
		keep[i] = int64(rng.Intn(10))
		i32[i] = rng.Int31()
		f64[i] = rng.NormFloat64()
		u8[i] = uint8(1 + rng.Intn(255))
		str[i] = fmt.Sprintf("s%d", rng.Intn(1000))
		bl[i] = true
	}
	return joinSide{
		names: []string{"k", "keep", "i32", "f64", "u8", "s", "b"},
		cols: []*vector.Vector{vector.NewInt64(keys), vector.NewInt64(keep), vector.NewInt32(i32),
			vector.NewFloat64(f64), vector.NewUInt8(u8), vector.NewStr(str), vector.NewBool(bl)},
	}
}

// op serves the side through a Select that drops about a third of the
// rows, so the join's children hand over batches with selection vectors.
func (s joinSide) op(t *testing.T) Operator {
	v, err := NewValues(s.names, s.cols)
	if err != nil {
		t.Fatal(err)
	}
	return NewSelect(v, &CmpIntColVal{Col: "keep", Op: LT, Val: 7})
}

// drainJoin runs a join to the end, returning its rows and the size of
// every batch it produced.
func drainJoin(t *testing.T, op Operator, ctx *ExecContext) (rows [][]any, batches []int) {
	t.Helper()
	err := Drain(op, ctx, func(b *vector.Batch) error {
		batches = append(batches, b.N)
		for i := 0; i < b.N; i++ {
			rows = append(rows, b.Row(i))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, batches
}

func testMergeJoinMatchesTupleReference(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	shapes := []struct {
		name   string
		nl, nr int
	}{
		{"balanced", 700, 900},
		{"lopsided 1:1000", 3, 3000},
		{"lopsided 1000:1", 3000, 3},
		{"empty left", 0, 400},
		{"empty right", 400, 0},
		{"both empty", 0, 0},
	}
	ctxs := contexts{}
	for _, sh := range shapes {
		left, right := randJoinSide(rng, sh.nl, 4000), randJoinSide(rng, sh.nr, 4000)
		for _, outer := range []bool{false, true} {
			for _, vs := range []int{1, 2, 7, 1024} {
				name := fmt.Sprintf("%s/outer=%v/vec=%d", sh.name, outer, vs)
				build := NewMergeJoin
				if outer {
					build = NewMergeOuterJoin
				}
				got := build(left.op(t), right.op(t), "k", "k", "l.", "r.")
				want := tupleMergeJoin{build(left.op(t), right.op(t), "k", "k", "l.", "r.")}
				gotRows, gotBatches := drainJoin(t, got, ctxs.of(vs))
				wantRows, wantBatches := drainJoin(t, want, ctxs.of(vs))
				if !reflect.DeepEqual(gotRows, wantRows) {
					t.Fatalf("%s: %d rows differ from the reference's %d", name, len(gotRows), len(wantRows))
				}
				if !reflect.DeepEqual(gotBatches, wantBatches) {
					t.Fatalf("%s: batch sizes %v, reference %v", name, gotBatches, wantBatches)
				}
				gs, ws := got.Stats(), want.Stats()
				if gs.Tuples != ws.Tuples || gs.NextCalls != ws.NextCalls {
					t.Fatalf("%s: stats tuples=%d next_calls=%d, reference tuples=%d next_calls=%d",
						name, gs.Tuples, gs.NextCalls, ws.Tuples, ws.NextCalls)
				}
				if sh.nl > 100 && sh.nr > 100 && len(gotRows) == 0 {
					t.Fatalf("%s: joined nothing; the test compares empty outputs", name)
				}
			}
		}
	}
}

// contexts holds one context per vector size, so that each plan a test
// runs at that size takes the vectors the previous ones gave back.
type contexts map[int]*ExecContext

func (c contexts) of(vs int) *ExecContext {
	if c[vs] == nil {
		c[vs] = &ExecContext{VectorSize: vs}
	}
	return c[vs]
}

func sameRows(a, b [][]int64) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// Invariant: TopN(k) equals full sort + take k, with
// deterministic tie-breaking by arrival order.
func TestTopNMatchesSortOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	ctxs := contexts{}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(500)
		k := 1 + rng.Intn(40)
		scores := make([]int64, n)
		ids := make([]int64, n)
		for i := range scores {
			scores[i] = int64(rng.Intn(50)) // many ties
			ids[i] = int64(i)
		}

		// Oracle: stable sort by score desc; stability = arrival order.
		type row struct{ id, score int64 }
		rows := make([]row, n)
		for i := range rows {
			rows[i] = row{ids[i], scores[i]}
		}
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].score > rows[j].score })
		kk := k
		if kk > n {
			kk = n
		}
		want := make([][]int64, kk)
		for i := 0; i < kk; i++ {
			want[i] = []int64{rows[i].id, rows[i].score}
		}

		op := NewTopN(
			valuesOp(t, []string{"id", "score"}, ids, scores),
			k, []OrderSpec{{Col: "score", Desc: true}})
		got := collectInts(t, op, ctxs.of(1+rng.Intn(100)))
		if !sameRows(got, want) {
			t.Fatalf("trial %d: topn mismatch\n got %v\nwant %v", trial, got, want)
		}
	}
}

// Aggregate equals a scalar oracle over random groups.
func TestAggregateMatchesOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(1000)
		groups := make([]int64, n)
		vals := make([]int64, n)
		for i := range groups {
			groups[i] = int64(rng.Intn(20))
			vals[i] = int64(rng.Intn(100))
		}
		sums := map[int64]int64{}
		counts := map[int64]int64{}
		var order []int64
		for i, g := range groups {
			if _, ok := sums[g]; !ok {
				order = append(order, g)
			}
			sums[g] += vals[i]
			counts[g]++
		}
		want := make([][]int64, len(order))
		for i, g := range order {
			want[i] = []int64{g, sums[g], counts[g]}
		}

		op := NewAggregate(
			valuesOp(t, []string{"g", "v"}, groups, vals),
			[]string{"g"},
			[]AggSpec{{Op: AggSum, Col: "v", Name: "s"}, {Op: AggCount, Name: "c"}})
		got := collectInts(t, op, &ExecContext{VectorSize: 1 + rng.Intn(128)})
		if !sameRows(got, want) {
			t.Fatalf("trial %d: aggregate mismatch\n got %v\nwant %v", trial, got, want)
		}
	}
}

// Invariant: the select-then-heap TopN equals sort-then-truncate over every
// shape its select loop and slot heap specialise on — one to three order
// keys of either type and direction, 256-level quantized keys (heavy ties,
// as with the 8-bit score), inputs behind a Select (batches with a
// selection vector), n of 1, 20 and beyond the row count, and Sort's
// unbounded n — in rows, order and counters.
func TestTopNSelectThenHeapMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ctxs := contexts{}
	const maxRows = 3000
	strs := make([]string, maxRows)
	for r := range strs {
		strs[r] = fmt.Sprintf("row%d", r)
	}
	for trial := 0; trial < 200; trial++ {
		rows := rng.Intn(maxRows)
		names := []string{"id", "keep", "i1", "i2", "f1", "f2", "s"}
		id, keep, i1, i2 := make([]int64, rows), make([]int64, rows), make([]int64, rows), make([]int64, rows)
		f1, f2, s := make([]float64, rows), make([]float64, rows), strs[:rows:rows]
		// key[c][r] is key column c of row r as a float64, c indexing keyCols.
		keyCols := []string{"i1", "i2", "f1", "f2"}
		key := [4][]float64{make([]float64, rows), make([]float64, rows), f1, f2}
		for r := 0; r < rows; r++ {
			id[r], keep[r] = int64(r), int64(rng.Intn(10))
			i1[r], i2[r] = int64(rng.Intn(256)), int64(rng.Intn(256))-128
			f1[r], f2[r] = float64(rng.Intn(256))/7, float64(rng.Intn(256))/-3
			key[0][r], key[1][r] = float64(i1[r]), float64(i2[r])
		}
		cols := []*vector.Vector{vector.NewInt64(id), vector.NewInt64(keep), vector.NewInt64(i1),
			vector.NewInt64(i2), vector.NewFloat64(f1), vector.NewFloat64(f2), vector.NewStr(s)}
		order := make([]OrderSpec, 1+rng.Intn(3))
		orderKeys := make([][]float64, len(order))
		for k, c := range rng.Perm(len(keyCols))[:len(order)] {
			order[k] = OrderSpec{Col: keyCols[c], Desc: rng.Intn(2) == 0}
			orderKeys[k] = key[c]
		}
		filtered := rng.Intn(2) == 0
		n := []int{1, 20, rows + 1 + rng.Intn(5), 1 << 62}[rng.Intn(4)]
		vs := []int{1, 7, 100, 1024}[rng.Intn(4)]

		// Oracle: a stable sort of the row numbers (arrival order breaks
		// ties), truncated.
		var want []int
		for r := 0; r < rows; r++ {
			if !filtered || keep[r] < 7 {
				want = append(want, r)
			}
		}
		slices.SortStableFunc(want, func(a, b int) int {
			for k, o := range order {
				if ka, kb := orderKeys[k][a], orderKeys[k][b]; ka != kb {
					if ka > kb == o.Desc {
						return -1
					}
					return 1
				}
			}
			return 0
		})
		want = want[:min(len(want), n)]

		values, err := NewValues(names, cols)
		if err != nil {
			t.Fatal(err)
		}
		var child Operator = values
		if filtered {
			child = NewSelect(values, &CmpIntColVal{Col: "keep", Op: LT, Val: 7})
		}
		var op Operator = NewTopN(child, n, order)
		if n == 1<<62 && rng.Intn(2) == 0 {
			op = NewSort(child, order)
		}
		got, err := Collect(op, ctxs.of(vs))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("trial %d (%s, rows=%d, n=%d, vs=%d, filtered=%v)", trial, op.Describe(), rows, n, vs, filtered)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, the oracle's %d", name, len(got), len(want))
		}
		for i, r := range want {
			for c, v := range cols {
				if got[i][c] != v.Get(r) {
					t.Fatalf("%s: row %d column %s is %v, the oracle's %v", name, i, names[c], got[i][c], v.Get(r))
				}
			}
		}
		st := op.Stats()
		if wantCalls := int64((len(want)+vs-1)/vs + 1); st.Tuples != int64(len(want)) || st.NextCalls != wantCalls {
			t.Fatalf("%s: stats tuples=%d next_calls=%d, want %d and %d", name, st.Tuples, st.NextCalls, len(want), wantCalls)
		}
	}
}

// Invariant: matchWindow returns exactly what matchInner, its oracle,
// returns — pairs, their order and the rows consumed — at key densities
// from 0.1 % to 99 %, for windows just under, at and over the slot cap,
// keys at both ends of int64, and output room that runs out mid-window;
// and it leaves the slot array all-zero.
func TestMatchWindowMatchesMatchInner(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	ctx := NewContext()
	// keys draws a strictly increasing slice of up to n keys from
	// [from, from+span) at the given density: each offset is a key with
	// probability density, so the offsets skipped before the next key are
	// geometric, drawn as one inverse-CDF sample per key rather than one
	// coin per offset.
	keys := func(n int, from int64, span uint64, density float64) []int64 {
		var out []int64
		for off := uint64(0); len(out) < n; off++ {
			if density < 1 {
				skip := math.Floor(math.Log(1-rng.Float64()) / math.Log1p(-density))
				if skip >= float64(span-off) {
					break
				}
				off += uint64(skip)
			}
			if off >= span {
				break
			}
			out = append(out, from+int64(off))
		}
		return out
	}
	check := func(name string, l, r []int64, room int) {
		t.Helper()
		wl, wr := make([]int32, room), make([]int32, room)
		gl, gr := make([]int32, room), make([]int32, room)
		nl, nr, n := matchInner(l, r, wl, wr)
		gnl, gnr, gn := matchWindow(l, r, gl, gr, ctx)
		if gnl != nl || gnr != nr || gn != n {
			t.Fatalf("%s: consumed (%d, %d) with %d pairs, matchInner (%d, %d) with %d", name, gnl, gnr, gn, nl, nr, n)
		}
		if !slices.Equal(gl[:n], wl[:n]) || !slices.Equal(gr[:n], wr[:n]) {
			t.Fatalf("%s: pairs differ from matchInner's", name)
		}
		if i := slices.IndexFunc(ctx.slots, func(s int32) bool { return s != 0 }); i >= 0 {
			t.Fatalf("%s: slot %d left at %d", name, i, ctx.slots[i])
		}
	}
	for trial := 0; trial < 300; trial++ {
		density := []float64{0.001, 0.01, 0.1, 0.33, 0.9, 0.99}[rng.Intn(6)]
		from := []int64{0, -1 << 40, math.MinInt64, math.MaxInt64 - 1<<20}[rng.Intn(4)]
		span := uint64(1 + rng.Intn(1<<20))
		l := keys(1+rng.Intn(1500), from, span, density)
		r := keys(1+rng.Intn(1500), from+int64(rng.Intn(64)), span, density)
		room := []int{1, 2, 17, 1024, 4096}[rng.Intn(5)]
		check(fmt.Sprintf("trial %d (density %g, from %d, room %d)", trial, density, from, room), l, r, room)
	}
	// Windows of maxWindow-1, maxWindow and maxWindow+1 key distances, the
	// first the widest the slots hold, the others run by matchInner.
	for _, from := range []int64{0, math.MinInt64, math.MaxInt64 - maxWindow - 1} {
		for d := int64(maxWindow - 1); d <= maxWindow+1; d++ {
			mid := keys(2000, from+1, uint64(d-1), 0.05)
			l := append(append([]int64{from}, mid...), from+d)
			r := append(append([]int64{from}, keys(2000, from+1, uint64(d-1), 0.05)...), from+d)
			for _, room := range []int{1, 50, 4096} {
				check(fmt.Sprintf("window %d from %d, room %d", d, from, room), l, r, room)
			}
		}
	}
	// Extreme keys, both ends of int64 in one pair of slices: the window is
	// the whole range and its width overflows int64.
	check("full int64 range", []int64{math.MinInt64, 0, math.MaxInt64}, []int64{math.MinInt64, 5, math.MaxInt64}, 8)
	if len(ctx.slots) > maxWindow {
		t.Fatalf("slot array grew to %d, cap %d", len(ctx.slots), maxWindow)
	}
}

// Invariant: a bounded scan is the same plan minus work. Scan + Project +
// TopN(k; score DESC, docid ASC) over a random range of a stored table —
// strictly increasing docids, scores with heavy ties, ranges starting
// mid-stride and mid-chunk — returns exactly the rows of the same plan
// built without a bound, at vector sizes 128, 1000 and 1024, with Rest
// both exact and loose. The score is the stored value plus a constant,
// which Rest bounds.
func TestBoundedScanMatchesUnboundedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const n = 9000
	docids, scores := make([]int64, n), make([]uint8, n)
	var d int64
	for i := range docids {
		d += 1 + rng.Int63n(4)
		docids[i] = d
		switch {
		case i/BoundStride%5 == 0: // whole strides of one tied low value
			scores[i] = 2
		case rng.Intn(50) == 0:
			scores[i] = uint8(200 + rng.Intn(56))
		default:
			scores[i] = uint8(1 + rng.Intn(3))
		}
	}
	b := colbm.NewBuilder("TD", colbm.NewSimDisk(colbm.DefaultDiskParams()), colbm.NewManager(0), []colbm.ColumnSpec{
		{Name: "docid", Type: vector.Int64, Enc: colbm.EncPFORDelta, Bits: 8, ChunkLen: 2048},
		{Name: "score", Type: vector.UInt8, ChunkLen: 2048},
	})
	b.SetInt64("docid", docids)
	b.SetUInt8("score", scores)
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// maxima of [start, end) by global stride.
	maxima := func(start, end int) []float64 {
		m := make([]float64, (end-1)/BoundStride-start/BoundStride+1)
		for i := start; i < end; i++ {
			j := i/BoundStride - start/BoundStride
			m[j] = max(m[j], float64(scores[i]))
		}
		return m
	}
	ctxs := contexts{}
	var scanned, read int64
	for trial := 0; trial < 300; trial++ {
		start := rng.Intn(n)
		end := start + 1 + rng.Intn(n-start)
		k := []int{1, 3, 20, 100}[rng.Intn(4)]
		vs := []int{128, 1000, 1024}[rng.Intn(3)]
		c := float64(rng.Intn(4))
		rest := c + float64(rng.Intn(2)*rng.Intn(5))
		plan := func(bounded bool) ([][]any, *Scan) {
			scan, err := NewRangeScan(tab, []string{"docid", "score"}, start, end)
			if err != nil {
				t.Fatal(err)
			}
			proj := NewProject(scan, []Projection{
				{Name: "docid", Expr: NewColRef("docid")},
				{Name: "score", Expr: NewArith(Add, NewToFloat(NewColRef("score")), &ConstFloat{Val: c})},
			})
			top := NewTopN(proj, k, []OrderSpec{{Col: "score", Desc: true}, {Col: "docid"}})
			if bounded {
				if err := scan.SetBound(Bound{Col: "score", Max: maxima(start, end), Rest: rest, Floor: top.Floor()}); err != nil {
					t.Fatal(err)
				}
			}
			rows, err := Collect(top, ctxs.of(vs))
			if err != nil {
				t.Fatal(err)
			}
			return rows, scan
		}
		want, full := plan(false)
		got, bounded := plan(true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d [%d,%d) k=%d vs=%d c=%v rest=%v: bounded plan\n%v\nunbounded\n%v",
				trial, start, end, k, vs, c, rest, got, want)
		}
		if full.Stats().Tuples != int64(end-start) {
			t.Fatalf("trial %d: unbounded scan read %d of %d rows", trial, full.Stats().Tuples, end-start)
		}
		scanned += full.Stats().Tuples
		read += bounded.Stats().Tuples
	}
	if read >= scanned {
		t.Errorf("bounded scans read %d of %d rows: the bound skipped nothing", read, scanned)
	}
	t.Logf("bounded scans read %d of %d rows", read, scanned)
}
