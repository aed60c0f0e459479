package storage

import (
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/corpus"
)

// clone is a deep copy of st, for a test to fold a batch into without
// changing the value it checks.
func (st *RunningStats) clone() *RunningStats {
	c := *st
	c.slot, c.df, c.segs = maps.Clone(st.slot), slices.Clone(st.df), slices.Clone(st.segs)
	return &c
}

// sameStats fails unless got and want hold the same statistics: totals,
// BM25 parameters, the df of every term, the segments in order, and the
// bounds the segments give under them.
func sameStats(t *testing.T, step string, got, want *RunningStats) {
	t.Helper()
	if got.numDocs != want.numDocs || got.lenSum != want.lenSum || got.params != want.params {
		t.Fatalf("%s: running N=%d ΣLen=%d %+v, fold N=%d ΣLen=%d %+v", step,
			got.numDocs, got.lenSum, got.params, want.numDocs, want.lenSum, want.params)
	}
	if len(got.slot) != len(want.slot) {
		t.Fatalf("%s: running value holds %d terms, fold %d", step, len(got.slot), len(want.slot))
	}
	for term, i := range want.slot {
		j, ok := got.slot[term]
		if !ok {
			t.Fatalf("%s: term %q missing from the running value", step, term)
		}
		if got.df[j] != want.df[i] {
			t.Fatalf("%s: term %q: running df %d, fold %d", step, term, got.df[j], want.df[i])
		}
	}
	names := func(st *RunningStats) (out []string) {
		for _, s := range st.segs {
			out = append(out, s.name)
		}
		return out
	}
	if !slices.Equal(names(got), names(want)) {
		t.Fatalf("%s: running segments %v, fold %v", step, names(got), names(want))
	}
	gb, err := got.segmentBounds()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.segmentBounds()
	if err != nil {
		t.Fatal(err)
	}
	if gb != wb {
		t.Fatalf("%s: running bounds %+v, fold %+v", step, gb, wb)
	}
}

// shipInto copies the segments of src that dst lacks into dst and installs
// src's super-manifest there — a replica catching up by pull.
func shipInto(t *testing.T, src, dst string) {
	t.Helper()
	raw, sm, err := ReadSegmentsRaw(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sm.Names() {
		files, err := SegmentFiles(src, name)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := ReadSegmentFileAt(src, name, f.Name, 0, int(f.Size))
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteSegmentFileChunk(dst, name, f.Name, 0, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := InstallManifest(dst, raw); err != nil {
		t.Fatal(err)
	}
}

// TestRunningStatsMatchFold runs random scripts of commits against one
// directory the way a serving core does — holding one RunningStats and
// handing it to every append and merge it commits — beside commits it
// does not make: an append through a second handle, a split, an install
// of a replica's newer generation, and reopens (a fresh value). Some
// merges build from the copy PlanMerge made while appends commit, and bake
// the statistics of the generation planned. After
// every step the held value, when it describes the directory's current
// generation, equals a fresh fold of it: N, ΣLen, the df of every term,
// the segments and the bounds; after every commit the holder made it does
// describe it, having folded nothing. And the next append's build
// statistics (batchStats) from the held value equal a fold's.
func TestRunningStatsMatchFold(t *testing.T) {
	coll := segTestCollection(t)
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			root := t.TempDir()
			dir := filepath.Join(root, "segix")
			batch := func() *corpus.Collection {
				lo := rng.Intn(len(coll.DocLens) - 150)
				b, err := coll.Slice(lo, lo+20+rng.Intn(130))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			var held, other RunningStats
			own := func(step string, fn func()) {
				t.Helper()
				sm, err := ReadSegments(dir)
				if err != nil {
					t.Fatal(err)
				}
				describes := held.describes(dir, sm)
				folds := StatsFolds()
				fn()
				if describes && StatsFolds() != folds {
					t.Fatalf("%s: folded %d times with a current value", step, StatsFolds()-folds)
				}
				if sm, err = ReadSegments(dir); err != nil {
					t.Fatal(err)
				}
				if !held.describes(dir, sm) {
					t.Fatalf("%s: the held value does not describe the generation %d it committed", step, sm.Generation)
				}
			}
			appendHeld := func(step string) {
				own(step, func() {
					if _, err := AppendSegment(dir, batch(), &held); err != nil {
						t.Fatal(err)
					}
				})
			}
			appendRanges(t, dir, coll, 0, 400)
			checked := 0
			for step := 0; step < 24; step++ {
				sm, err := ReadSegments(dir)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("step %d", step)
				switch op := rng.Intn(10); {
				case op < 4:
					label += " append"
					appendHeld(label)
				case op < 6 && len(sm.Segments) >= 3:
					label += " merge"
					names, run, err := held.PlanMerge(dir, len(sm.Segments)-1-rng.Intn(2))
					if err != nil || names == nil {
						t.Fatalf("%s: plan %v, %v", label, names, err)
					}
					planned, err := collectStats(dir, sm)
					if err != nil {
						t.Fatal(err)
					}
					if rng.Intn(2) == 0 {
						label += " beside appends"
						for i := rng.Intn(2); i >= 0; i-- {
							appendHeld(label)
						}
					}
					into, err := AllocSegmentDir(dir)
					if err != nil {
						t.Fatal(err)
					}
					epoch, err := BuildMergedSegment(dir, names, into, nil, run)
					if err != nil {
						t.Fatal(err)
					}
					m, err := readManifest(dir, into)
					if err != nil {
						t.Fatal(err)
					}
					// Baked with the statistics of the generation planned,
					// whatever committed since.
					if m.Params != planned.params {
						t.Fatalf("%s: merged segment baked %+v, planned %+v", label, m.Params, planned.params)
					}
					for term, ti := range m.Terms {
						if want := planned.df[planned.slot[term]]; ti.Ftd != want {
							t.Fatalf("%s: merged segment baked df %d for %q, planned %d", label, ti.Ftd, term, want)
						}
					}
					own(label, func() {
						if _, err := CommitMerge(dir, names, into, epoch, &held); err != nil {
							t.Fatal(err)
						}
					})
				case op < 7:
					label += " reopen"
					held = RunningStats{}
				case op < 8:
					label += " foreign append"
					if _, err := AppendSegment(dir, batch(), &other); err != nil {
						t.Fatal(err)
					}
				case op < 9 && len(sm.Segments) >= 3:
					label += " split"
					at := sm.Segments[1+rng.Intn(len(sm.Segments)-1)].DocBase
					if err := PrepareSplit(dir, filepath.Join(root, fmt.Sprintf("right-%d", step)), at); err != nil {
						t.Fatal(err)
					}
					if _, err := CommitSplit(dir, at); err != nil {
						t.Fatal(err)
					}
				default:
					label += " install"
					replica := filepath.Join(root, fmt.Sprintf("replica-%d", step))
					if err := CopyDir(dir, replica); err != nil {
						t.Fatal(err)
					}
					if _, err := AppendSegment(replica, batch(), nil); err != nil {
						t.Fatal(err)
					}
					shipInto(t, replica, dir)
				}

				sm, err = ReadSegments(dir)
				if err != nil {
					t.Fatal(err)
				}
				fold, err := collectStats(dir, sm)
				if err != nil {
					t.Fatal(err)
				}
				if held.describes(dir, sm) {
					sameStats(t, label, &held, fold)
					checked++
				}
				next := held.clone()
				if err := next.sync(dir, sm); err != nil {
					t.Fatal(err)
				}
				b := batch()
				got, err := next.batchStats(b)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fold.batchStats(b)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: next append's statistics from the held value %+v, from a fold %+v", label, got, want)
				}
			}
			if checked < 8 {
				t.Errorf("the held value described the directory after %d of 24 steps, want at least 8", checked)
			}
		})
	}
}
