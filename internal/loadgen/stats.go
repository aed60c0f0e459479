package loadgen

import (
	"sort"
	"time"
)

// Percentile returns the p-th percentile of the latency sample by the
// nearest-rank definition (rank = ceil(p*n/100), so p=100 is the maximum
// and any p > 0 of a 1-sample set is that sample). The input is not
// modified; an empty sample reports 0. Every latency summary in the
// repository — the load generator's run stats, bench/ and the trecbench
// hedge, qps, ingest and rebalance experiments — quotes this definition,
// so numbers are comparable across harnesses.
func Percentile(sample []time.Duration, p int) time.Duration {
	if len(sample) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(sample))
	copy(sorted, sample)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Ms renders a duration as fractional milliseconds for report lines.
func Ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
