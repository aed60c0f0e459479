package storage

import (
	"errors"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
)

var errInjected = errors.New("injected chunk write failure")

// TestFailedBuildCommitsNothing fails a column chunk write half-way through
// an AppendSegment and half-way through a merge. The error must surface,
// SEGMENTS.json must still name the old generation, the directory must
// reopen and rank DocID+Score-exactly as before, and a sweep must leave no
// partial segment directory and no temporary file behind.
func TestFailedBuildCommitsNothing(t *testing.T) {
	coll := segTestCollection(t)
	queries := append(coll.PrecisionQueries(4, 21), coll.EfficiencyQueries(4, 22)...)
	batch, err := coll.Slice(1200, 1600)
	if err != nil {
		t.Fatal(err)
	}
	builds := map[string]func(dir string) error{
		"append": func(dir string) error {
			_, err := AppendSegment(dir, batch, nil)
			return err
		},
		"merge": func(dir string) error {
			sm, err := ReadSegments(dir)
			if err != nil {
				return err
			}
			into, err := AllocSegmentDir(dir)
			if err != nil {
				return err
			}
			epoch, err := BuildMergedSegment(dir, sm.Names(), into, nil, nil)
			if err == nil {
				_, err = CommitMerge(dir, sm.Names(), into, epoch, nil)
			}
			return err
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "segix")
			appendRanges(t, dir, coll, 0, 600, 1200)
			before, err := ReadSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := rankDir(t, dir, queries)

			// Count the column chunks the build appends, on a copy.
			probe := filepath.Join(root, "probe")
			if err := CopyDir(dir, probe); err != nil {
				t.Fatal(err)
			}
			var chunks atomic.Int64
			setChunkHook(func(file string, off int64) error {
				if strings.HasSuffix(file, blobExt) {
					chunks.Add(1)
				}
				return nil
			})
			err = build(probe)
			setChunkHook(nil)
			if err != nil {
				t.Fatal(err)
			}
			total := chunks.Load()
			if total < 4 {
				t.Fatalf("the build appends %d column chunks; too few to fail one half-way", total)
			}

			// Fail the chunk half-way through the same build on dir.
			chunks.Store(0)
			setChunkHook(func(file string, off int64) error {
				if strings.HasSuffix(file, blobExt) && chunks.Add(1) == total/2 {
					return errInjected
				}
				return nil
			})
			err = build(dir)
			setChunkHook(nil)
			if !errors.Is(err, errInjected) {
				t.Fatalf("build error %v, want the injected failure", err)
			}

			after, err := ReadSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if after.Generation != before.Generation || !slices.Equal(after.Names(), before.Names()) {
				t.Fatalf("failed build committed: generation %d %v, was %d %v",
					after.Generation, after.Names(), before.Generation, before.Names())
			}
			if got := rankDir(t, dir, queries); !reflect.DeepEqual(got, want) {
				t.Fatal("the directory ranks differently after the failed build")
			}
			if _, err := SweepSegments(dir, nil); err != nil {
				t.Fatal(err)
			}
			err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err != nil || path == dir {
					return err
				}
				name := d.Name()
				if d.IsDir() && !slices.Contains(before.Names(), name) {
					t.Errorf("partial segment directory %s survived the sweep", name)
				}
				if strings.Contains(name, ".tmp-") {
					t.Errorf("temporary file %s survived the sweep", path)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// rankDir opens dir's current generation and ranks queries under every
// strategy.
func rankDir(t *testing.T, dir string, queries []corpus.Query) map[ir.Strategy][][]ir.Result {
	t.Helper()
	snap, err := OpenSegmented(dir, colbm.NewManager(0))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	return searchAll(t, ir.NewSnapshotSearcher(snap, 0), queries, 10)
}
