package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/loadgen"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to be trusted: with fewer, the "percentile" is one or
// two outliers and does not repeat from run to run.
const minBeyond = 10

// beyond is the number of samples strictly above the rank of the p-th
// percentile of n samples, by the nearest-rank definition loadgen.Percentile
// uses (rank = ceil(p*n/100), at least 1).
func beyond(n, p int) int {
	return n - min(max((p*n+99)/100, 1), n)
}

// checkedPercentile is loadgen.Percentile enforcing the ">= minBeyond
// samples beyond it" rule: a sample too small to support p is an error, not
// a quietly noisy number.
func checkedPercentile(sample []time.Duration, p int) (time.Duration, error) {
	if b := beyond(len(sample), p); b < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d samples beyond it, need %d", p, len(sample), b, minBeyond)
	}
	return loadgen.Percentile(sample, p), nil
}

func medianDuration(d []time.Duration) time.Duration { return loadgen.Percentile(d, 50) }

// medianFloat returns the middle value (mean of the two middle values for
// an even count); 0 for an empty sample.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// relSpread is (max-min)/median of a sample — the run-to-run spread the
// bound rule and -compare's "unresolved" verdict are stated in.
func relSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	m := medianFloat(v)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

// us and ms keep every digit the clock gave (loadgen.Ms, made for report
// lines, truncates to whole microseconds).
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
