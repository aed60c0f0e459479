package colbm

import (
	"fmt"
	"testing"
)

// resident reports whether key is cached without loading it on a miss.
func resident(m *Manager, key string) bool {
	got, err := m.GetChunk(key, func() (*CachedChunk, error) {
		return nil, fmt.Errorf("miss")
	})
	return err == nil && got != nil
}

// TestManager2QHotSetSurvivesScan is the scan-resistance property the 2Q
// policy exists for: a working set whose references recur across
// probation lifetimes is promoted to the main area and stays resident
// while a cold scan several times the budget churns through — touching
// each of its chunks twice, the way a scanning cursor revisits a chunk
// for successive vectors. The same workload under AdmissionClock flushes
// the hot set (the re-touched scan chunks carry reference bits, so the
// clock hand laps the ring and reaches the hot frames), which pins that
// the survival comes from the policy, not from the workload being easy.
func TestManager2QHotSetSurvivesScan(t *testing.T) {
	const budget = 1000
	hotKeys := []string{"hot0", "hot1", "hot2", "hot3"}

	run := func(policy AdmissionPolicy) (m *Manager, survivors int) {
		m = NewManager(budget, WithAdmissionPolicy(policy))
		// Warm the hot set the way real reuse looks: first touch, other
		// traffic in between (long enough to age the hots out of
		// probation), then a second round of references — under 2Q the
		// returns hit the ghost list and promote to the main area.
		for _, k := range hotKeys {
			mustGet(t, m, k, chunk(100))
		}
		for i := 0; i < 10; i++ {
			mustGet(t, m, fmt.Sprintf("filler%d", i), chunk(100))
		}
		for _, k := range hotKeys {
			mustGet(t, m, k, chunk(100))
		}
		// Cold scan, 5x the budget, every chunk touched twice in passing.
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("cold%d", i)
			mustGet(t, m, k, chunk(100))
			mustGet(t, m, k, nil)
		}
		for _, k := range hotKeys {
			if resident(m, k) {
				survivors++
			}
		}
		return m, survivors
	}

	m, survivors := run(Admission2Q)
	if survivors != len(hotKeys) {
		t.Errorf("2Q: %d/%d hot chunks survived the scan, want all", survivors, len(hotKeys))
	}
	if st := m.Stats(); st.Used > budget {
		t.Errorf("2Q over budget: %+v", st)
	}
	if st := m.Stats(); st.Evictions == 0 {
		t.Errorf("scan 5x the budget evicted nothing: %+v", st)
	}

	if _, survivors := run(AdmissionClock); survivors == len(hotKeys) {
		t.Errorf("CLOCK preserved the whole hot set through a 5x re-touching scan; the 2Q test is not discriminating")
	}
}

// TestManager2QGhostPromotion pins the ghost list at the budget boundary:
// a chunk evicted from probation leaves a key-only ghost, and its return
// is read as frequency — admitted straight to the main area, where it
// then survives churn that flushes single-touch neighbors.
func TestManager2QGhostPromotion(t *testing.T) {
	const budget = 1000
	m := NewManager(budget, WithAdmissionPolicy(Admission2Q))

	// Fill the budget exactly with single-touch (probationary) chunks.
	for i := 0; i < 10; i++ {
		mustGet(t, m, fmt.Sprintf("k%d", i), chunk(100))
	}
	if st := m.Stats(); st.Used != budget || st.Evictions != 0 {
		t.Fatalf("setup: %+v", st)
	}
	// One byte of pressure: the probation front (k0, the oldest) pays.
	mustGet(t, m, "p", chunk(100))
	if resident(m, "k0") {
		t.Fatal("probation FIFO front survived boundary pressure")
	}
	if st := m.Stats(); st.Used > budget {
		t.Fatalf("over budget after boundary eviction: %+v", st)
	}

	// k0 returns while its ghost is remembered: re-reference after
	// eviction, so it joins the main area — and survives a churn that
	// evicts every probationary chunk around it.
	mustGet(t, m, "k0", chunk(100))
	for i := 0; i < 30; i++ {
		mustGet(t, m, fmt.Sprintf("churn%d", i), chunk(100))
	}
	if !resident(m, "k0") {
		t.Error("ghost-promoted chunk was evicted by one-touch churn")
	}
	// A never-seen key under the same churn would have gone through
	// probation and out: spot-check one early churn chunk is gone.
	if resident(m, "churn0") {
		t.Error("single-touch churn chunk outlived the churn; probation is not FIFO")
	}
}

// TestManager2QOversizedChunkIsTransient mirrors the CLOCK oversized-chunk
// contract under 2Q: a chunk bigger than the whole budget evicts
// everything, is admitted transiently, and falls out on the next insert.
func TestManager2QOversizedChunkIsTransient(t *testing.T) {
	m := NewManager(100, WithAdmissionPolicy(Admission2Q))
	mustGet(t, m, "a", chunk(40))
	mustGet(t, m, "big", chunk(150))
	if st := m.Stats(); st.Used != 150 {
		t.Errorf("oversized chunk not admitted: %+v", st)
	}
	mustGet(t, m, "b", chunk(40))
	if st := m.Stats(); st.Used != 40 {
		t.Errorf("oversized chunk not dropped on next insert: %+v", st)
	}
	if !resident(m, "b") {
		t.Error("b missing after oversized transient")
	}
}

// TestManagerAdmitHeadroomOnly pins Admit's free-headroom contract: a
// chunk the cache did not ask for is taken only when it costs nothing —
// never displacing resident data, never racing an in-flight fetch, never
// duplicating a resident key.
func TestManagerAdmitHeadroomOnly(t *testing.T) {
	m := NewManager(100)
	mustGet(t, m, "a", chunk(60))
	if m.Admit("b", chunk(60)) {
		t.Error("Admit evicted resident data for incidental bytes")
	}
	if !m.Admit("c", chunk(40)) {
		t.Error("Admit declined a chunk with headroom available")
	}
	if m.Admit("c", chunk(40)) {
		t.Error("Admit re-admitted a resident key")
	}
	if st := m.Stats(); st.Used != 100 || st.Evictions != 0 {
		t.Errorf("admit accounting: %+v", st)
	}

	claimed := m.BeginFetch([]string{"d"})
	if len(claimed) != 1 {
		t.Fatalf("claimed %v", claimed)
	}
	if m.Admit("d", chunk(1)) {
		t.Error("Admit raced an in-flight claim")
	}
	m.EndFetch(claimed, map[string]*CachedChunk{"d": chunk(1)}, nil)
	if m.Admit(string([]byte{'e'}), nil) {
		t.Error("Admit accepted a nil chunk")
	}

	// Unbounded managers have infinite headroom.
	mu := NewManager(0)
	if !mu.Admit("x", chunk(1<<20)) {
		t.Error("unbounded manager declined an admit")
	}
}

// TestManager2QDropPrefixAndDrop: the GC and cold-run paths must clear 2Q
// bookkeeping (probation accounting, ghosts) along with the frames.
func TestManager2QDropPrefixAndDrop(t *testing.T) {
	m := NewManager(1000, WithAdmissionPolicy(Admission2Q))
	for i := 0; i < 10; i++ {
		mustGet(t, m, fmt.Sprintf("seg1.k%d", i), chunk(100))
	}
	mustGet(t, m, "seg2.k0", chunk(100)) // evicts seg1.k0 into a ghost
	if freed := m.DropPrefix("seg1."); freed != 900 {
		t.Errorf("DropPrefix freed %d bytes, want 900", freed)
	}
	if st := m.Stats(); st.Used != 100 {
		t.Errorf("after DropPrefix: %+v", st)
	}
	// The ghost under the dropped prefix must be forgotten: a returning
	// seg1.k0 is a first touch (probationary), not a promotion.
	m.Drop()
	if st := m.Stats(); st.Used != 0 {
		t.Errorf("Drop left %d bytes", st.Used)
	}
	// After Drop the manager still works end to end.
	mustGet(t, m, "fresh", chunk(50))
	if !resident(m, "fresh") {
		t.Error("manager unusable after Drop")
	}
}
