// Package bpsim simulates CPU branch prediction so the reproduction can
// measure branch miss rates without hardware event counters.
//
// The paper (Figure 3) attributes the collapse of NAIVE decompression
// throughput near 50% exception rate to mispredictions of the per-value
// if-then-else, observed through Pentium 4 performance counters. Go offers
// no portable access to such counters, so this package substitutes a
// software model: decoders emit their data-dependent branch outcomes as a
// trace, and a standard predictor (a two-bit saturating counter) replays
// the trace and reports the miss rate.
// The characteristic rise-and-fall of the NAIVE curve — near-zero misses at
// exception rates 0 and 1, worst case near 0.5 — is predictor mathematics
// and survives the substitution.
package bpsim

// TwoBit is the classic two-bit saturating counter predictor: states
// 0 (strongly not-taken) .. 3 (strongly taken), predicting taken for
// states >= 2. One counter models one static branch site, which is exactly
// the NAIVE decoder's single exception test.
type TwoBit struct {
	state uint8
}

// NewTwoBit returns a predictor initialized to weakly not-taken, matching
// the expectation that exceptions are infrequent.
func NewTwoBit() *TwoBit { return &TwoBit{state: 1} }

// Predict returns the predicted outcome for the next execution.
func (p *TwoBit) Predict() bool { return p.state >= 2 }

// Update trains the counter with the actual outcome.
func (p *TwoBit) Update(taken bool) {
	if taken {
		if p.state < 3 {
			p.state++
		}
	} else if p.state > 0 {
		p.state--
	}
}

// Result aggregates a replayed trace.
type Result struct {
	Branches int
	Misses   int
}

// MissRate returns the fraction of mispredicted branches.
func (r Result) MissRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Branches)
}

// ReplayTwoBit replays a single-site branch trace through a two-bit
// counter.
func ReplayTwoBit(trace []bool) Result {
	p := NewTwoBit()
	var r Result
	for _, taken := range trace {
		if p.Predict() != taken {
			r.Misses++
		}
		p.Update(taken)
		r.Branches++
	}
	return r
}
