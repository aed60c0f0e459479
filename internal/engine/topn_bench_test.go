package engine

import (
	"math/rand"
	"testing"

	"repro/internal/vector"
)

// BenchmarkTopN drains TopN(20; score DESC) over 64 Ki (docid, score) rows
// and reports input rows per second: distinct scores, and scores quantized
// to 256 levels as the 8-bit score column makes them (heavy ties at the
// threshold). The rows come from prepared batches, so only the operator is
// timed.
func BenchmarkTopN(b *testing.B) {
	rng := rand.New(rand.NewSource(79))
	const rows = 1 << 16
	docid := make([]int64, rows)
	distinct, quantized := make([]float64, rows), make([]float64, rows)
	for i := range docid {
		docid[i] = int64(i)
		distinct[i] = rng.Float64() * 30
		quantized[i] = float64(rng.Intn(256)) * 0.1
	}
	for _, c := range []struct {
		name   string
		scores []float64
	}{{"distinct", distinct}, {"quantized-ties", quantized}} {
		b.Run(c.name, func(b *testing.B) {
			ctx := NewContext()
			in := &prepared{base: base{schema: Schema{{"docid", vector.Int64}, {"score", vector.Float64}}}}
			for at := 0; at < rows; at += ctx.VectorSize {
				end := min(rows, at+ctx.VectorSize)
				in.batches = append(in.batches, &vector.Batch{N: end - at,
					Vecs: []*vector.Vector{vector.NewInt64(docid[at:end]), vector.NewFloat64(c.scores[at:end])}})
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Drain(NewTopN(in, 20, []OrderSpec{{Col: "score", Desc: true}}), ctx, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}

// prepared is a source that hands out ready-made batches, from the first
// again after every Open.
type prepared struct {
	base
	batches []*vector.Batch
	next    int
}

func (p *prepared) Open(*ExecContext) error { p.next = 0; return nil }
func (p *prepared) Close() error            { return nil }
func (p *prepared) Children() []Operator    { return nil }
func (p *prepared) Describe() string        { return "Prepared" }

func (p *prepared) Next() (*vector.Batch, error) {
	if p.next == len(p.batches) {
		return nil, nil
	}
	p.next++
	return p.batches[p.next-1], nil
}
