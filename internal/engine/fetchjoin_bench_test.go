package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vector"
)

// BenchmarkFetchJoin looks up the lengths of candidate docids in a
// 25 000-row document table, dense on docid and PFOR-coded like the
// index's, at candidate densities of 0.1 %, 1 %, 10 % and 100 %: FetchJoin,
// which decodes the len strides the candidates fall in, against the plan it
// replaced, a Scan of docid and len merge-joined with the candidates. It
// reports ns per candidate.
func BenchmarkFetchJoin(b *testing.B) {
	const n = 25000
	tab := docTable(b, n, 0, 0)
	rng := rand.New(rand.NewSource(80))
	for _, density := range []float64{0.001, 0.01, 0.1, 1} {
		keys := randSortedUnique(rng, int(density*n), n)
		cands := []*vector.Vector{vector.NewInt64(keys)}
		plans := []struct {
			name  string
			build func(child Operator) (Operator, error)
		}{
			{"fetch", func(child Operator) (Operator, error) {
				return NewFetchJoin(child, "docid", tab, []string{"len"}, "d.", 0)
			}},
			{"scan-merge", func(child Operator) (Operator, error) {
				scan, err := NewRangeScan(tab, []string{"docid", "len"}, 0, tab.N)
				return NewMergeJoin(child, scan, "docid", "docid", "", "d."), err
			}},
		}
		for _, p := range plans {
			b.Run(fmt.Sprintf("%g%%/%s", density*100, p.name), func(b *testing.B) {
				ctx := NewContext()
				for i := 0; i < b.N; i++ {
					child, err := NewValues([]string{"docid"}, cands)
					if err != nil {
						b.Fatal(err)
					}
					op, err := p.build(child)
					if err != nil {
						b.Fatal(err)
					}
					if err := Drain(op, ctx, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/candidate")
			})
		}
	}
}
