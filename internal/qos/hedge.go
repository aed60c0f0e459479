package qos

import (
	"math"
	"sync"
	"time"

	"repro/internal/metrics"
)

const (
	// hedgeWarmup is the minimum number of windowed latency samples
	// before an adaptive budget is issued; a cold hedger never hedges.
	hedgeWarmup = 32
	// hedgeDecayAt halves the rate-cap counters once the call count
	// reaches it, so the cap tracks the recent hedge rate instead of the
	// lifetime average.
	hedgeDecayAt = 4096
	// hedgeWindow / hedgeSlices size the latency histogram the budget
	// quantile is computed over.
	hedgeWindow = 30 * time.Second
	hedgeSlices = 6
	// hedgeRateCap is the fraction of calls an adaptive hedger may
	// duplicate.
	hedgeRateCap = 0.05
)

// Hedger computes a replica group's hedge budget. The adaptive source
// (NewHedger) replaces a hand-tuned constant with a live latency quantile
// (default p95) of the group's recent wins — "if this attempt is slower
// than 95% of recent attempts, assume it hit a straggler and duplicate
// it"; the fixed source (NewFixedHedger) is that hand-tuned constant. A
// hedge-rate cap bounds the duplicated work of the adaptive source:
// TryHedge refuses once hedges exceed hedgeRateCap of calls, so a
// pathological group (every request slow) degrades to at most 5% extra
// load instead of doubling it.
type Hedger struct {
	fixed    time.Duration // > 0: the constant budget source
	quantile float64
	rateCap  float64
	hist     *metrics.Histogram

	mu     sync.Mutex
	calls  int64
	hedges int64
}

// NewHedger returns a hedger targeting the given latency quantile
// (<=0 or >=1 defaults to 0.95) under the hedge-rate cap: at most 5% of
// calls hedge.
func NewHedger(quantile float64) *Hedger {
	if quantile <= 0 || quantile >= 1 {
		quantile = 0.95
	}
	return &Hedger{
		quantile: quantile,
		rateCap:  hedgeRateCap,
		hist:     metrics.NewHistogram(hedgeWindow, hedgeSlices),
	}
}

// NewFixedHedger returns a hedger whose budget is the constant d from the
// first call on (no warm-up: there is no quantile to trust), uncapped — a
// fixed budget is an explicit operator choice.
func NewFixedHedger(d time.Duration) *Hedger {
	return &Hedger{fixed: d, rateCap: math.Inf(1)}
}

// Observe records the latency of a completed (winning) attempt; a fixed
// budget has no distribution to feed.
func (h *Hedger) Observe(d time.Duration) {
	if h.fixed == 0 {
		h.hist.Observe(d)
	}
}

// Budget registers one call and returns the hedge delay it should arm,
// or 0 if the hedger is still cold (not enough windowed samples to
// trust a quantile).
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
	if h.fixed > 0 {
		return h.fixed
	}
	if h.hist.Count() < hedgeWarmup {
		return 0
	}
	return h.hist.Quantile(h.quantile)
}

// TryHedge asks permission to launch one hedge. It returns false when
// another hedge would push the hedge rate over the cap; callers that
// get false let the slow attempt ride.
func (h *Hedger) TryHedge() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if float64(h.hedges+1) > h.rateCap*float64(h.calls) {
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
