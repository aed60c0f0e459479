package repro

// merger is the background merge loop of an engine (enabled with
// WithAutoMerge): every Add nudges it, and while the tiered policy finds
// the segment count above its bound it merges the cheapest adjacent run —
// building off to the side with no locks held, committing a new generation
// under the serving core's commit lock, refreshing, and garbage-collecting
// the replaced directories once no reader references them. Merging re-bakes
// materialized score columns against current collection statistics, so the
// amortized cost of appends (stale segments scoring through the virtual
// kernels) is paid down continuously.
type merger struct {
	e           *Engine
	maxSegments int

	notifyCh chan struct{}
	stopCh   chan struct{}
	done     chan struct{}
}

func newMerger(e *Engine, maxSegments int) *merger {
	m := &merger{
		e:           e,
		maxSegments: maxSegments,
		notifyCh:    make(chan struct{}, 1),
		stopCh:      make(chan struct{}),
		done:        make(chan struct{}),
	}
	go m.loop()
	return m
}

// notify nudges the merger; a nudge while one is pending coalesces.
func (m *merger) notify() {
	select {
	case m.notifyCh <- struct{}{}:
	default:
	}
}

// stop terminates the loop and waits for it to exit. A merge aborts at
// its next cancellation poll — between segments and term scans while
// streaming the run, and once more before the final index build (the
// build itself is not interruptible, so that much can still run out); a
// build that completes after the core closed is refused at commit and
// its directory removed by mergeOnce.
func (m *merger) stop() {
	close(m.stopCh)
	<-m.done
}

// stopped is the cancellation poll the build loop hands to storage.
func (m *merger) stopped() bool {
	select {
	case <-m.stopCh:
		return true
	default:
		return false
	}
}

func (m *merger) loop() {
	defer close(m.done)
	for {
		select {
		case <-m.stopCh:
			return
		case <-m.notifyCh:
		}
		for !m.stopped() {
			merged, err := m.e.mergeOnce(m.maxSegments, m.stopped)
			if err != nil || !merged {
				// Merge errors are not fatal to serving (the old generation
				// keeps answering); the next Add retriggers.
				break
			}
		}
	}
}
