package repro

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

// TestMergeThrottleYieldsToSearches pins WithMergeThrottle(0): while any
// query is in flight, the background merger parks at its yield points
// instead of competing for CPU and disk; the moment traffic drains it
// resumes and bounds the segment count. The in-flight query is a real
// Search held open deliberately: with a single pooled searcher checked
// out white-box, the Search blocks inside the pool acquire — already
// counted in flight — for as long as the test keeps the searcher.
func TestMergeThrottleYieldsToSearches(t *testing.T) {
	coll := segColl(t)
	ctx := context.Background()
	total := len(coll.DocLens)
	first, err := coll.Slice(0, total/4)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "segix")
	eng, err := Open(first, WithStorageDir(dir),
		WithAutoMerge(2), WithMergeThrottle(0), WithSearchers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Check out the only pooled searcher, then start a real Search: it
	// registers in flight and blocks waiting for the searcher.
	g, err := eng.core.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	sr, err := g.Pool().Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	q := coll.PrecisionQueries(1, 7)[0]
	searchDone := make(chan error, 1)
	go func() {
		_, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, K: 10})
		searchDone <- err
	}()
	waitUntil := time.Now().Add(5 * time.Second)
	for eng.InflightQueries() == 0 {
		if time.Now().After(waitUntil) {
			t.Fatal("held search never registered in flight")
		}
		time.Sleep(time.Millisecond)
	}

	// Push the segment count past the merge bound while the search is
	// held open. The merger wakes on every Add but must park.
	for i := 1; i < 4; i++ {
		batch, err := coll.Docs(i*total/4, (i+1)*total/4)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Add(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.SegmentStats().Segments; got < 3 {
		t.Fatalf("%d segments after appends, want enough to trigger merging", got)
	}
	// The merge must wait as long as the query is in flight. 300ms is
	// hundreds of times the merger's yield step — a merger that ignores
	// the throttle completes its merge well within it (unthrottled merges
	// of this corpus run in tens of milliseconds).
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if n := eng.SegmentStats().Merges; n != 0 {
			t.Fatalf("merge completed while a search was in flight (merges=%d)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Release the searcher: the held search finishes, traffic drains, and
	// the parked merger must now complete and bound the segment count.
	g.Pool().Release(sr)
	if err := <-searchDone; err != nil {
		t.Fatalf("held search failed: %v", err)
	}
	waitUntil = time.Now().Add(10 * time.Second)
	for {
		st := eng.SegmentStats()
		if st.Merges > 0 && st.Segments <= 2 {
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatalf("merger never resumed after traffic drained: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMergeThrottleOptionValidation: the throttle without a merger is a
// configuration error, and negative thresholds are rejected.
func TestMergeThrottleOptionValidation(t *testing.T) {
	coll := segColl(t)
	dir := filepath.Join(t.TempDir(), "segix")
	if _, err := Open(coll, WithStorageDir(dir), WithMergeThrottle(0)); err == nil {
		t.Error("WithMergeThrottle without WithAutoMerge did not error")
	}
	if _, err := Open(coll, WithMergeThrottle(-1)); err == nil {
		t.Error("negative merge throttle did not error")
	}
}
