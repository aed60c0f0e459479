package primitives

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// refSelect is the scalar oracle all select primitives are checked against.
func refSelect(col []int64, pred func(int64) bool, sel []int32, n int) []int32 {
	var out []int32
	if sel == nil {
		for i := 0; i < n; i++ {
			if pred(col[i]) {
				out = append(out, int32(i))
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if pred(col[sel[i]]) {
				out = append(out, sel[i])
			}
		}
	}
	return out
}

func eqSel(a []int32, b []int32, k int) bool {
	if len(b) != k {
		return false
	}
	return reflect.DeepEqual(a[:k], b) || (k == 0 && len(b) == 0)
}

func TestSelectInt64ColValAll(t *testing.T) {
	col := []int64{5, 1, 9, 3, 7, 3, 0, 8}
	n := len(col)
	res := make([]int32, n)
	val := int64(5)

	cases := []struct {
		name string
		fn   func([]int32, []int64, int64, []int32, int) int
		pred func(int64) bool
	}{
		{"lt", SelectLTInt64ColVal, func(x int64) bool { return x < val }},
		{"le", SelectLEInt64ColVal, func(x int64) bool { return x <= val }},
		{"gt", SelectGTInt64ColVal, func(x int64) bool { return x > val }},
		{"ge", SelectGEInt64ColVal, func(x int64) bool { return x >= val }},
		{"eq", SelectEQInt64ColVal, func(x int64) bool { return x == val }},
		{"ne", SelectNEInt64ColVal, func(x int64) bool { return x != val }},
	}
	for _, c := range cases {
		k := c.fn(res, col, val, nil, n)
		want := refSelect(col, c.pred, nil, n)
		if !eqSel(res, want, k) {
			t.Errorf("%s dense: got %v want %v", c.name, res[:k], want)
		}
		// Selective variant over a subset.
		sub := []int32{0, 2, 4, 6}
		k = c.fn(res, col, val, sub, len(sub))
		want = refSelect(col, c.pred, sub, len(sub))
		if !eqSel(res, want, k) {
			t.Errorf("%s selective: got %v want %v", c.name, res[:k], want)
		}
	}
}

// Property: selection output is always strictly ascending and a subsequence
// of the input selection, for random data.
func TestSelectAscendingProperty(t *testing.T) {
	prop := func(data []int64, val int64) bool {
		n := len(data)
		res := make([]int32, n)
		k := SelectLTInt64ColVal(res, data, val, nil, n)
		if !sort.SliceIsSorted(res[:k], func(i, j int) bool { return res[i] < res[j] }) {
			return false
		}
		for i := 1; i < k; i++ {
			if res[i] == res[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: chaining two selects selects the conjunction of their predicates.
func TestSelectCompositionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		col := make([]int64, n)
		for i := range col {
			col[i] = int64(rng.Intn(100))
		}
		lo, hi := int64(rng.Intn(50)), int64(50+rng.Intn(50))

		s1 := make([]int32, n)
		k1 := SelectGEInt64ColVal(s1, col, lo, nil, n)
		s2 := make([]int32, n)
		k2 := SelectLTInt64ColVal(s2, col, hi, s1[:k1], k1)

		want := refSelect(col, func(x int64) bool { return x >= lo && x < hi }, nil, n)
		if !eqSel(s2, want, k2) {
			t.Fatalf("trial %d: chained %v != conjunction %v", trial, s2[:k2], want)
		}
	}
}
