package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vector"
)

// BenchmarkMergeJoin drains a merge join of two in-memory posting lists
// (docid key, tf payload) and reports input tuples per second: balanced
// lists of 64 Ki rows each, and a 64-row list against 64 Ki rows — the
// shape of a rare term, or of a handful of candidates, against a long list.
func BenchmarkMergeJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(76))
	list := func(n int) []*vector.Vector {
		tf := make([]int64, n)
		for i := range tf {
			tf[i] = 1 + int64(rng.Intn(20))
		}
		return []*vector.Vector{vector.NewInt64(randSortedUnique(rng, n, 1<<18)), vector.NewInt64(tf)}
	}
	long, other, short := list(1<<16), list(1<<16), list(64)
	names := []string{"docid", "tf"}
	for _, outer := range []bool{false, true} {
		for _, shape := range []struct {
			name string
			left []*vector.Vector
		}{{"balanced", other}, {"lopsided", short}} {
			kind, build := "inner", NewMergeJoin
			if outer {
				kind, build = "outer", NewMergeOuterJoin
			}
			b.Run(fmt.Sprintf("%s/%s", kind, shape.name), func(b *testing.B) {
				ctx := NewContext()
				tuples := shape.left[0].Len() + long[0].Len()
				for i := 0; i < b.N; i++ {
					left, err := NewValues(names, shape.left)
					if err != nil {
						b.Fatal(err)
					}
					right, err := NewValues(names, long)
					if err != nil {
						b.Fatal(err)
					}
					if err := Drain(build(left, right, "docid", "docid", "l.", "r."), ctx, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(tuples)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mtuples/s")
			})
		}
	}
}
