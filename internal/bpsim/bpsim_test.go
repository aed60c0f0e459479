package bpsim

import (
	"math/rand"
	"testing"
)

func TestTwoBitAlwaysTaken(t *testing.T) {
	trace := make([]bool, 1000)
	for i := range trace {
		trace[i] = true
	}
	r := ReplayTwoBit(trace)
	// After warm-up the counter saturates; only the first few predictions
	// miss.
	if r.Misses > 3 {
		t.Errorf("always-taken misses = %d", r.Misses)
	}
	if r.Branches != 1000 {
		t.Errorf("branches = %d", r.Branches)
	}
}

func TestTwoBitAlwaysNotTaken(t *testing.T) {
	trace := make([]bool, 1000)
	r := ReplayTwoBit(trace)
	if r.Misses > 1 {
		t.Errorf("never-taken misses = %d", r.Misses)
	}
	if r.MissRate() > 0.001 {
		t.Errorf("miss rate = %v", r.MissRate())
	}
}

func TestTwoBitAlternating(t *testing.T) {
	// Strict alternation defeats a two-bit counter: close to 50% misses
	// (the counter oscillates between weak states).
	trace := make([]bool, 10000)
	for i := range trace {
		trace[i] = i%2 == 0
	}
	r := ReplayTwoBit(trace)
	if r.MissRate() < 0.4 {
		t.Errorf("alternating miss rate = %v, want ~0.5", r.MissRate())
	}
}

// The Figure 3 shape: miss rate ~0 at exception rates 0 and 1, peaking
// near 0.5.
func TestTwoBitRandomTraceShape(t *testing.T) {
	rate := func(p float64) float64 {
		rng := rand.New(rand.NewSource(42))
		trace := make([]bool, 200000)
		for i := range trace {
			trace[i] = rng.Float64() < p
		}
		return ReplayTwoBit(trace).MissRate()
	}
	r0, r25, r50, r75, r100 := rate(0), rate(0.25), rate(0.5), rate(0.75), rate(1)
	if r0 > 0.001 || r100 > 0.001 {
		t.Errorf("endpoints not near zero: %v, %v", r0, r100)
	}
	if !(r50 > r25 && r50 > r75) {
		t.Errorf("no peak at 0.5: r25=%v r50=%v r75=%v", r25, r50, r75)
	}
	if r50 < 0.35 || r50 > 0.65 {
		t.Errorf("peak miss rate %v, want ~0.5 for random branches", r50)
	}
	// Symmetry within tolerance.
	if d := r25 - r75; d > 0.1 || d < -0.1 {
		t.Errorf("curve asymmetric: r25=%v r75=%v", r25, r75)
	}
}

func TestEmptyTrace(t *testing.T) {
	if r := ReplayTwoBit(nil); r.MissRate() != 0 || r.Branches != 0 {
		t.Errorf("empty trace: %+v", r)
	}
}

func TestPredictorStateMachines(t *testing.T) {
	p := NewTwoBit()
	if p.Predict() {
		t.Error("initial state should predict not-taken")
	}
	p.Update(true)
	p.Update(true)
	if !p.Predict() {
		t.Error("two taken updates should flip prediction")
	}
	p.Update(true)
	p.Update(true) // saturate
	p.Update(false)
	if !p.Predict() {
		t.Error("one not-taken from saturation should stay taken")
	}
}
