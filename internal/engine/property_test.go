package engine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
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
// MergeOuterJoin equals union, on random sorted unique inputs.
func TestMergeJoinMatchesOracleProperty(t *testing.T) {
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
		got := collectInts(t, op, &ExecContext{VectorSize: 1 + rng.Intn(100)})
		if !sameRows(got, want) {
			t.Fatalf("trial %d: topn mismatch\n got %v\nwant %v", trial, got, want)
		}
	}
}

// HashJoin and MergeJoin agree on arbitrary sorted-unique inputs.
func TestHashMergeJoinAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 40; trial++ {
		lKeys := randSortedUnique(rng, 1+rng.Intn(200), 500)
		rKeys := randSortedUnique(rng, 1+rng.Intn(200), 500)
		lVals := make([]int64, len(lKeys))
		rVals := make([]int64, len(rKeys))
		for i := range lVals {
			lVals[i] = rng.Int63n(99)
		}
		for i := range rVals {
			rVals[i] = rng.Int63n(99)
		}
		ctx := &ExecContext{VectorSize: 1 + rng.Intn(64)}
		a := collectInts(t, NewMergeJoin(
			valuesOp(t, []string{"k", "v"}, lKeys, lVals),
			valuesOp(t, []string{"k", "v"}, rKeys, rVals),
			"k", "k", "l.", "r."), ctx)
		b := collectInts(t, NewHashJoin(
			valuesOp(t, []string{"k", "v"}, lKeys, lVals),
			valuesOp(t, []string{"k", "v"}, rKeys, rVals),
			"k", "k", "l.", "r."), ctx)
		if !sameRows(a, b) {
			t.Fatalf("trial %d: hash/merge disagree\nmerge %v\nhash %v", trial, a, b)
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
