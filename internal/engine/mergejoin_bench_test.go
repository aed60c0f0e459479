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
// Two more inner shapes size the positional kernel: dense lists holding a
// third of their docid range (the benchmark workload's average term), and
// sparse ones whose 1024-key vectors span more docids than the kernel's
// slot array, so that every round falls back to the merge loop.
func BenchmarkMergeJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(76))
	list := func(n, domain int) []*vector.Vector {
		tf := make([]int64, n)
		for i := range tf {
			tf[i] = 1 + int64(rng.Intn(20))
		}
		return []*vector.Vector{vector.NewInt64(randSortedUnique(rng, n, domain)), vector.NewInt64(tf)}
	}
	long, other, short := list(1<<16, 1<<18), list(1<<16, 1<<18), list(64, 1<<18)
	dense := [2][]*vector.Vector{list(1<<16, 3<<16), list(1<<16, 3<<16)}
	sparse := [2][]*vector.Vector{list(1<<16, 1<<24), list(1<<16, 1<<24)}
	names := []string{"docid", "tf"}
	type shape struct {
		name        string
		left, right []*vector.Vector
	}
	shapes := map[bool][]shape{
		false: {{"balanced", other, long}, {"lopsided", short, long}, {"dense", dense[0], dense[1]}, {"sparse", sparse[0], sparse[1]}},
		true:  {{"balanced", other, long}, {"lopsided", short, long}},
	}
	for _, outer := range []bool{false, true} {
		for _, sh := range shapes[outer] {
			kind, build := "inner", NewMergeJoin
			if outer {
				kind, build = "outer", NewMergeOuterJoin
			}
			b.Run(fmt.Sprintf("%s/%s", kind, sh.name), func(b *testing.B) {
				ctx := NewContext()
				tuples := sh.left[0].Len() + sh.right[0].Len()
				for i := 0; i < b.N; i++ {
					left, err := NewValues(names, sh.left)
					if err != nil {
						b.Fatal(err)
					}
					right, err := NewValues(names, sh.right)
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
