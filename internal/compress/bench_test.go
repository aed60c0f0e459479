package compress

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bpsim"
)

// ---- Figure 3: decompression bandwidth, NAIVE vs PATCHED ----

func fig3Block(rate float64, layout Layout) *Block {
	rng := rand.New(rand.NewSource(42))
	n := 1 << 20
	vals := make([]int64, n)
	for i := range vals {
		if rng.Float64() < rate {
			vals[i] = 1 << 40
		} else {
			vals[i] = int64(rng.Intn(250))
		}
	}
	bl, err := EncodePFOR(vals, 8, 0, layout)
	if err != nil {
		panic(err)
	}
	return bl
}

func benchDecode(b *testing.B, bl *Block) {
	dec := NewDecoder(bl.N)
	out := make([]int64, bl.N)
	b.SetBytes(int64(bl.N) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.Decode(bl, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Decompression regenerates the bandwidth axis of
// Figure 3: MB/s throughput of the naive and patched decoders across
// exception rates (the printed B/op-per-ns converts to GB/s via -benchmem
// bytes accounting).
func BenchmarkFigure3Decompression(b *testing.B) {
	for _, rate := range []float64{0, 0.1, 0.25, 0.5, 0.75, 1.0} {
		b.Run(fmt.Sprintf("NAIVE/exc=%.2f", rate), func(b *testing.B) {
			benchDecode(b, fig3Block(rate, Naive))
		})
		b.Run(fmt.Sprintf("PFOR/exc=%.2f", rate), func(b *testing.B) {
			benchDecode(b, fig3Block(rate, Patched))
		})
	}
}

// BenchmarkFigure3BranchSim regenerates the branch-miss-rate axis: the
// simulated two-bit predictor replaying the decoders' branch traces. The
// miss rates themselves are reported via b.ReportMetric.
func BenchmarkFigure3BranchSim(b *testing.B) {
	for _, rate := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		b.Run(fmt.Sprintf("exc=%.2f", rate), func(b *testing.B) {
			bl := fig3Block(rate, Naive)
			trace := bl.NaiveBranchTrace()
			var miss float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				miss = bpsim.ReplayTwoBit(trace).MissRate()
			}
			b.ReportMetric(miss*100, "naiveBMR%")
		})
	}
}

// ---- compression scheme encode/decode micro-benchmarks ----

// BenchmarkSchemes measures raw encode and decode cost of all three
// schemes on their natural data shapes.
func BenchmarkSchemes(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n := 1 << 18
	sorted := make([]int64, n)
	cur := int64(0)
	for i := range sorted {
		cur += int64(1 + rng.Intn(9))
		sorted[i] = cur
	}
	small := make([]int64, n)
	for i := range small {
		small[i] = int64(rng.Intn(200))
	}
	skewed := make([]int64, n)
	for i := range skewed {
		skewed[i] = int64(rng.Intn(9)) * 1000003
	}
	type scheme struct {
		name string
		data []int64
		enc  func([]int64) (*Block, error)
	}
	schemes := []scheme{
		{"PFOR", small, func(v []int64) (*Block, error) {
			return EncodePFOR(v, 8, 0, Patched)
		}},
		{"PFOR-DELTA", sorted, func(v []int64) (*Block, error) {
			return EncodePFORDelta(v, 8, 0, Patched)
		}},
		{"PDICT", skewed, func(v []int64) (*Block, error) {
			return EncodePDict(v, 4, Patched)
		}},
	}
	for _, sc := range schemes {
		b.Run("Encode/"+sc.name, func(b *testing.B) {
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				if _, err := sc.enc(sc.data); err != nil {
					b.Fatal(err)
				}
			}
		})
		bl, err := sc.enc(sc.data)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("Decode/"+sc.name, func(b *testing.B) {
			benchDecode(b, bl)
		})
	}
}
