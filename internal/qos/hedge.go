package qos

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

const (
	// hedgeWarmup is the minimum number of windowed latency samples
	// before a budget is issued; a cold hedger never hedges.
	hedgeWarmup = 32
	// hedgeDecayAt halves the rate-cap counters once the call count
	// reaches it, so the cap tracks the recent hedge rate instead of the
	// lifetime average.
	hedgeDecayAt = 4096
	// hedgeWindow / hedgeSlices size the latency histogram the budget's
	// median is computed over.
	hedgeWindow = 30 * time.Second
	hedgeSlices = 6
	// hedgeMultiple is how many windowed medians an attempt may take
	// before it is presumed a straggler.
	hedgeMultiple = 4
	// hedgeRateCap is the fraction of calls a hedger may duplicate.
	hedgeRateCap = 0.05
)

// Hedger computes a replica group's hedge budget: hedgeMultiple times the
// median of the group's recent wins in a sliding window — "slower than
// expected" at whatever latency the group currently runs at (Dean &
// Barroso, "The Tail at Scale"). The median is the quantile the tail
// cannot move: a budget set at a high quantile sits inside the tail
// noise it should ignore, which spends the rate cap on ordinary slow
// calls and leaves the real stragglers unhedged. A hedge-rate cap bounds
// the duplicated work: TryHedge refuses once hedges exceed hedgeRateCap
// of calls, so a pathological group (every request slow) degrades to at
// most 5% extra load instead of doubling it.
type Hedger struct {
	hist *metrics.Histogram

	mu     sync.Mutex
	calls  int64
	hedges int64
}

// NewHedger returns a cold hedger: it issues no budget until its window
// holds hedgeWarmup samples.
func NewHedger() *Hedger {
	return &Hedger{hist: metrics.NewHistogram(hedgeWindow, hedgeSlices)}
}

// Observe records the latency of a completed (winning) attempt.
func (h *Hedger) Observe(d time.Duration) { h.hist.Observe(d) }

// Budget registers one call and returns the hedge delay it should arm,
// or 0 if the hedger is still cold (not enough windowed samples to
// trust a median).
func (h *Hedger) Budget() time.Duration {
	h.mu.Lock()
	h.calls++
	if h.calls >= hedgeDecayAt {
		h.calls /= 2
		h.hedges /= 2
	}
	h.mu.Unlock()
	return h.budget()
}

func (h *Hedger) budget() time.Duration {
	if h.hist.Count() < hedgeWarmup {
		return 0
	}
	return hedgeMultiple * h.hist.Quantile(0.5)
}

// TryHedge asks permission to launch one hedge. It returns false when
// another hedge would push the hedge rate over the cap; callers that
// get false let the slow attempt ride.
func (h *Hedger) TryHedge() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if float64(h.hedges+1) > hedgeRateCap*float64(h.calls) {
		return false
	}
	h.hedges++
	return true
}

// HedgeStats is a side-effect-free snapshot of a hedger.
type HedgeStats struct {
	// Budget is the delay the next call would arm (0 = cold).
	Budget time.Duration
	// Calls and Hedges are the decayed rate-cap counters; Hedges/Calls
	// is the recent hedge rate the cap is enforced against.
	Calls  int64
	Hedges int64
}

// Stats snapshots the hedger without registering a call.
func (h *Hedger) Stats() HedgeStats {
	h.mu.Lock()
	calls, hedges := h.calls, h.hedges
	h.mu.Unlock()
	return HedgeStats{Budget: h.budget(), Calls: calls, Hedges: hedges}
}
