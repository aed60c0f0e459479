package storage

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
)

// approxBatch builds a live batch whose per-posting BM25 weight multiset is
// IDENTICAL for every generation: each doc repeats the same token pattern,
// so document lengths, tf values, and the df/N ratio of every term are
// invariant as batches accumulate (df and N scale together). Appending one
// of these under an approximate-bounds policy must therefore take the
// scan-skip path — the observed bounds can never leave the envelope.
func approxBatch(t *testing.T, gen int) *corpus.Collection {
	t.Helper()
	terms := []string{"ale", "bog", "cap", "dim", "elk", "fen"}
	docs := make([]corpus.Doc, 12)
	for d := range docs {
		tokens := []string{"base", "base", "base", "base", "base", "base"}
		for i := 0; i < 1+d%2; i++ {
			tokens = append(tokens, terms[d%6])
		}
		tokens = append(tokens, terms[(d+1)%6])
		docs[d] = corpus.Doc{Name: "doc-" + string(rune('a'+gen)) + string(rune('0'+d/10)) + string(rune('0'+d%10)), Tokens: tokens}
	}
	c, err := corpus.FromDocs(docs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestApproxBoundsPolicyGuards pins SetBoundsPolicy's contract: invalid
// drifts are rejected, a policy change commits with a generation bump (so
// in-flight appends CAS-fail), matching policy is a no-op, and reverting to
// exact mode discards the observed record.
func TestApproxBoundsPolicyGuards(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segix")
	if _, err := AppendSegment(dir, approxBatch(t, 0), ir.DefaultBuildConfig()); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if err := SetBoundsPolicy(dir, bad); err == nil {
			t.Errorf("SetBoundsPolicy(%v) accepted", bad)
		}
	}

	before, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetBoundsPolicy(dir, 0.25); err != nil {
		t.Fatal(err)
	}
	sm, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sm.BoundsDrift != 0.25 {
		t.Errorf("drift %v, want 0.25", sm.BoundsDrift)
	}
	if sm.Generation != before.Generation+1 {
		t.Errorf("generation %d after policy change, want %d", sm.Generation, before.Generation+1)
	}
	// Same policy again: nothing to commit.
	if err := SetBoundsPolicy(dir, 0.25); err != nil {
		t.Fatal(err)
	}
	if again, _ := ReadSegments(dir); again.Generation != sm.Generation {
		t.Errorf("no-op policy set bumped generation %d -> %d", sm.Generation, again.Generation)
	}

	// An append under the policy records the observed bounds; reverting to
	// exact mode must clear them.
	if _, err := AppendSegment(dir, approxBatch(t, 1), ir.DefaultBuildConfig()); err != nil {
		t.Fatal(err)
	}
	if sm, _ = ReadSegments(dir); !sm.HasObs {
		t.Fatal("append under drift policy did not record observed bounds")
	}
	if err := SetBoundsPolicy(dir, 0); err != nil {
		t.Fatal(err)
	}
	if sm, _ = ReadSegments(dir); sm.HasObs || sm.BoundsDrift != 0 {
		t.Errorf("exact-mode revert kept approx state: %+v", sm)
	}
}

// TestApproxBoundsSkipAndRebake walks the envelope lifecycle: the first
// quantized append after the policy is set does one exact scan and bakes an
// envelope widened by the drift; appends whose scores stay inside it reuse
// the envelope verbatim (the O(existing) scan is skipped — the committed
// bounds are bit-identical); and a batch whose scores escape the envelope
// triggers a fresh exact scan that re-bakes wider bounds.
func TestApproxBoundsSkipAndRebake(t *testing.T) {
	const drift = 0.1
	dir := filepath.Join(t.TempDir(), "segix")
	if _, err := AppendSegment(dir, approxBatch(t, 0), ir.DefaultBuildConfig()); err != nil {
		t.Fatal(err)
	}
	exact, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.HasBounds || exact.HasObs {
		t.Fatalf("exact-mode append: %+v", exact)
	}
	if err := SetBoundsPolicy(dir, drift); err != nil {
		t.Fatal(err)
	}

	// First append under the policy: exact scan, then the envelope.
	if _, err := AppendSegment(dir, approxBatch(t, 1), ir.DefaultBuildConfig()); err != nil {
		t.Fatal(err)
	}
	env, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !env.HasBounds || !env.HasObs {
		t.Fatalf("first approx append: %+v", env)
	}
	margin := drift * (env.ObsHi - env.ObsLo)
	if math.Abs((env.ObsLo-env.ScoreLo)-margin) > 1e-9 || math.Abs((env.ScoreHi-env.ObsHi)-margin) > 1e-9 {
		t.Errorf("envelope [%v,%v] is not observed [%v,%v] widened by %v",
			env.ScoreLo, env.ScoreHi, env.ObsLo, env.ObsHi, margin)
	}
	// The batch's weight multiset matches generation 0's, so the observed
	// bounds are the exact-mode bounds.
	if math.Abs(env.ObsLo-exact.ScoreLo) > 1e-9 || math.Abs(env.ObsHi-exact.ScoreHi) > 1e-9 {
		t.Errorf("observed [%v,%v], want exact [%v,%v]", env.ObsLo, env.ObsHi, exact.ScoreLo, exact.ScoreHi)
	}

	// In-envelope append: committed bounds must be bit-identical (the
	// commit copied the envelope through; no scan re-derived them).
	if _, err := AppendSegment(dir, approxBatch(t, 2), ir.DefaultBuildConfig()); err != nil {
		t.Fatal(err)
	}
	skip, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if skip.ScoreLo != env.ScoreLo || skip.ScoreHi != env.ScoreHi {
		t.Errorf("in-envelope append moved the bounds [%v,%v] -> [%v,%v]",
			env.ScoreLo, env.ScoreHi, skip.ScoreLo, skip.ScoreHi)
	}
	if !skip.HasObs || skip.ObsLo < env.ScoreLo || skip.ObsHi > env.ScoreHi {
		t.Errorf("observed record after skip: %+v", skip)
	}

	// Escape: one document dominated by a brand-new term — df 1 against a
	// grown collection and a saturated tf push its weight far above the
	// envelope, forcing the exact re-scan.
	loud := make([]corpus.Doc, 1)
	loud[0].Name = "doc-loud"
	for i := 0; i < 64; i++ {
		loud[0].Tokens = append(loud[0].Tokens, "zz-unheard")
	}
	loud[0].Tokens = append(loud[0].Tokens, "base")
	batch, err := corpus.FromDocs(loud)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendSegment(dir, batch, ir.DefaultBuildConfig()); err != nil {
		t.Fatal(err)
	}
	rebaked, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rebaked.ScoreHi <= skip.ScoreHi {
		t.Errorf("escaping batch did not re-bake the envelope: hi %v -> %v", skip.ScoreHi, rebaked.ScoreHi)
	}
	if !rebaked.HasObs || rebaked.ObsHi <= skip.ObsHi {
		t.Errorf("re-bake did not refresh the observed record: %+v", rebaked)
	}
}

// TestApproxBoundsRankingEquivalence is the tentpole's acceptance property:
// a segmented directory grown under an approximate-bounds policy — where
// later appends skipped the exact scan and baked against the envelope —
// ranks IDENTICALLY, across every strategy, to a monolithic build quantized
// against that same envelope. Approximation changes the quantization grid
// by at most the declared drift; it must not open any gap between the
// segmented and monolithic paths.
func TestApproxBoundsRankingEquivalence(t *testing.T) {
	const drift = 0.5
	coll := segTestCollection(t)
	queries := append(coll.PrecisionQueries(6, 21), coll.EfficiencyQueries(6, 22)...)
	const k = 10

	dir := filepath.Join(t.TempDir(), "segix")
	docs := len(coll.DocLens)
	slice := func(i, n int) *corpus.Collection {
		batch, err := coll.Slice(i*docs/n, (i+1)*docs/n)
		if err != nil {
			t.Fatal(err)
		}
		return batch
	}
	if _, err := AppendSegment(dir, slice(0, 4), ir.DefaultBuildConfig()); err != nil {
		t.Fatal(err)
	}
	if err := SetBoundsPolicy(dir, drift); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendSegment(dir, slice(1, 4), ir.DefaultBuildConfig()); err != nil {
		t.Fatal(err)
	}
	env, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		if _, err := AppendSegment(dir, slice(i, 4), ir.DefaultBuildConfig()); err != nil {
			t.Fatal(err)
		}
	}
	sm, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The later appends must actually have exercised the skip path — a
	// generated corpus's batches score well inside a 50% margin — or this
	// test is not about approximation at all.
	if sm.ScoreLo != env.ScoreLo || sm.ScoreHi != env.ScoreHi {
		t.Fatalf("later appends re-baked the envelope [%v,%v] -> [%v,%v]; skip path not exercised",
			env.ScoreLo, env.ScoreHi, sm.ScoreLo, sm.ScoreHi)
	}

	// Monolithic reference: full-collection statistics, quantized against
	// the directory's envelope instead of the exact bounds.
	gs := ir.CollectionStats(coll)
	gs.HasScoreBounds, gs.ScoreLo, gs.ScoreHi = true, sm.ScoreLo, sm.ScoreHi
	cfg := ir.DefaultBuildConfig()
	cfg.Stats = gs
	plain, err := ir.Build(coll, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := searchAll(t, ir.NewSearcher(plain, 0), queries, k)

	snap, err := OpenSegmented(dir, colbm.NewManager(0))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	got := searchAll(t, ir.NewSnapshotSearcher(snap, 0), queries, k)
	for _, strat := range ir.AllStrategies {
		for qi := range queries {
			if !reflect.DeepEqual(got[strat][qi], want[strat][qi]) {
				t.Errorf("%v query %v diverged from the envelope-quantized monolithic build:\n got %v\nwant %v",
					strat, queries[qi].Terms, got[strat][qi], want[strat][qi])
			}
		}
	}
}
