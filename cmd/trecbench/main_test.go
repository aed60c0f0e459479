package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/compress"
)

var tiny = params{docs: 1000, queries: 60, coldQueries: 20, precQueries: 10, servers: 2, seed: 2007}

// Every registered experiment completes at toy scale; for ingest and
// rebalance that includes holding their p99 bound.
func TestRegisteredExperimentsRun(t *testing.T) {
	for _, e := range registry {
		t.Run(e.name, func(t *testing.T) {
			if (testing.Short() || raceEnabled) && (e.name == "ingest" || e.name == "rebalance") {
				t.Skip("half a minute of paced load, and a latency bound the race detector's slowdown voids")
			}
			if err := run(registry, e.name, tiny); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunDispatch(t *testing.T) {
	var ran []string
	reg := make([]experiment, 3)
	for i, name := range []string{"a", "b", "c"} {
		reg[i] = experiment{name, func(params) error { ran = append(ran, name); return nil }}
	}
	if err := run(reg, "all", tiny); err != nil || !slices.Equal(ran, names(reg)) {
		t.Fatalf("all ran %v (err %v), want %v", ran, err, names(reg))
	}
	ran = nil
	if err := run(reg, "b", tiny); err != nil || !slices.Equal(ran, []string{"b"}) {
		t.Fatalf("b ran %v (err %v)", ran, err)
	}
	err := run(reg, "nope", tiny)
	if err == nil || !strings.Contains(err.Error(), "a, b, c") {
		t.Fatalf("unknown name: err %v, want one listing a, b, c", err)
	}
}

// The gate must not pass on missing data: a phase too thin for a p99 and a
// ratio over the bound are both errors.
func TestP99Ratio(t *testing.T) {
	flat := func(n int, d time.Duration) []time.Duration {
		lats := make([]time.Duration, n)
		for i := range lats {
			lats[i] = d
		}
		return lats
	}
	ms := time.Millisecond
	for _, tc := range []struct {
		name          string
		during, after []time.Duration
		wantErr       bool
	}{
		{"in bound", flat(200, 2*ms), flat(200, ms), false},
		{"over bound", flat(200, 4*ms), flat(200, ms), true},
		{"empty during", nil, flat(200, ms), true},
		{"empty after", flat(200, ms), nil, true},
		{"thin after", flat(200, ms), flat(minPhaseSamples-1, ms), true},
	} {
		ratio, err := p99Ratio([3]phase{{"before", flat(200, ms)}, {"during", tc.during}, {"after", tc.after}}, 3)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: ratio %.2f, err %v, want error %t", tc.name, ratio, err, tc.wantErr)
		}
		// A failure carries the phase table it was judged on.
		if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("before: 200 queries, p50 1.00 ms, p99 1.00 ms; during: %d queries", len(tc.during))) {
			t.Errorf("%s: error %q does not name every phase's queries, p50 and p99", tc.name, err)
		}
	}
}

// Figure 3's shape: where exceptions are frequent enough to defeat the
// branch predictor, the patched decoder is at least as fast as the naive
// one.
func TestFigure3PFORNotSlowerThanNaive(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation, not the branch predictor, sets both decoders' speed")
	}
	const n = 1 << 18
	rng := rand.New(rand.NewSource(42))
	dec := compress.NewDecoder(n)
	out := make([]int64, n)
	for _, rate := range []float64{0.25, 0.5, 0.75} {
		naive, patched, err := fig3Blocks(rng, n, rate)
		if err != nil {
			t.Fatal(err)
		}
		// The best of a few timings: a neighbour's time slice only ever
		// lowers a bandwidth.
		var nbw, pbw float64
		for range 3 {
			nbw = max(nbw, bandwidth(dec, naive, out))
			pbw = max(pbw, bandwidth(dec, patched, out))
		}
		if pbw < nbw {
			t.Errorf("exception rate %.2f: PFOR %.2f GB/s < NAIVE %.2f GB/s", rate, pbw, nbw)
		}
	}
}
