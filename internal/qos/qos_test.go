package qos

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestAdmitUnderLimit(t *testing.T) {
	c := NewController(4, 0)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := c.Admit(ctx); err != nil {
			t.Fatalf("admit %d under limit: %v", i, err)
		}
	}
	if got := c.Inflight(); got != 4 {
		t.Fatalf("inflight = %d, want 4", got)
	}
	for i := 0; i < 4; i++ {
		c.Done(time.Millisecond)
	}
	if got := c.Inflight(); got != 0 {
		t.Fatalf("inflight after done = %d, want 0", got)
	}
}

func TestQueueCapSheds(t *testing.T) {
	c := NewController(1, 2)
	ctx := context.Background()
	// 1 executing + 2 queued admitted, 4th shed.
	for i := 0; i < 3; i++ {
		if err := c.Admit(ctx); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	err := c.Admit(ctx)
	if err == nil {
		t.Fatalf("admit over queue cap should shed")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed error should match ErrOverloaded, got %v", err)
	}
	var ov *Overload
	if !errors.As(err, &ov) || ov.QueueDepth != 2 {
		t.Fatalf("want *Overload with QueueDepth 2, got %#v", err)
	}
	if got := c.Shed(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	if got := c.Inflight(); got != 3 {
		t.Fatalf("shed must not leak inflight: %d, want 3", got)
	}
}

func TestDeadlineSheds(t *testing.T) {
	c := NewController(1, 0)
	// Warm the service estimate to ~10ms.
	for i := 0; i < 20; i++ {
		if err := c.Admit(context.Background()); err != nil {
			t.Fatalf("warm admit: %v", err)
		}
		c.Done(10 * time.Millisecond)
	}
	// Fill the queue: 1 executing + 5 queued (no deadline, never shed).
	for i := 0; i < 6; i++ {
		if err := c.Admit(context.Background()); err != nil {
			t.Fatalf("queue admit %d: %v", i, err)
		}
	}
	// A request with 5ms left faces ~60ms estimated wait: shed.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := c.Admit(ctx)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("deadline-doomed request should shed, got %v", err)
	}
	var ov *Overload
	if !errors.As(err, &ov) || ov.EstimatedWait < 50*time.Millisecond {
		t.Fatalf("overload should report the wait estimate, got %#v", err)
	}
	// A request with a whole second of budget is admitted.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if err := c.Admit(ctx2); err != nil {
		t.Fatalf("request with ample budget should be admitted: %v", err)
	}
}

func TestHedgerColdNoBudget(t *testing.T) {
	h := NewHedger()
	for i := 0; i < hedgeWarmup-1; i++ {
		h.Observe(time.Millisecond)
	}
	if got := h.Budget(); got != 0 {
		t.Fatalf("cold hedger issued budget %v", got)
	}
	h.Observe(time.Millisecond)
	if got := h.Budget(); got == 0 {
		t.Fatalf("warm hedger should issue a budget")
	}
}

// TestHedgerBudgetTracksQuantile: the budget follows the window's
// median, so neither a 5% tail near the median nor rare far stragglers
// can drag it into the tail it is meant to hedge.
func TestHedgerBudgetTracksQuantile(t *testing.T) {
	const median, tail = time.Millisecond, 1800 * time.Microsecond
	h := NewHedger()
	for i := 0; i < 95; i++ {
		h.Observe(median)
	}
	for i := 0; i < 5; i++ {
		h.Observe(tail) // the slowest 5%, at 1.8x the median
	}
	// A histogram bucket may read up to 25% above its samples; a budget
	// at or below the tail's bucket would hedge the tail itself.
	b := h.Budget()
	if b <= tail*5/4 {
		t.Fatalf("budget = %v, want above the %v tail", b, tail)
	}
	for i := 0; i < 3; i++ {
		h.Observe(100 * time.Millisecond) // <5% far stragglers
	}
	if b2 := h.Budget(); b2 != b {
		t.Fatalf("far stragglers moved the budget %v -> %v", b, b2)
	}
	if b > 6*median {
		t.Fatalf("budget = %v, want about %dx the %v median", b, hedgeMultiple, median)
	}
}

func TestHedgerRateCap(t *testing.T) {
	h := NewHedger()
	for i := 0; i < 64; i++ {
		h.Observe(time.Millisecond)
	}
	granted := 0
	const calls = 1000
	for i := 0; i < calls; i++ {
		h.Budget()
		if h.TryHedge() {
			granted++
		}
	}
	if granted == 0 {
		t.Fatalf("cap should still allow some hedges")
	}
	if rate := float64(granted) / float64(calls); rate > 0.055 {
		t.Fatalf("hedge rate %.3f exceeds 5%% cap", rate)
	}
	st := h.Stats()
	if st.Calls == 0 || st.Hedges != int64(granted) {
		t.Fatalf("stats = %+v, want %d hedges", st, granted)
	}
}
