package storage

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/column_digests.txt from this build (a deliberate format change)")

// digestsFile pins the bytes every kind of segment build writes.
const digestsFile = "testdata/column_digests.txt"

// TestColumnFilesAreStable pins the on-disk bytes of every build path: a
// small fixed collection is saved (WriteSegmentedIndex of an ir.Build
// index, what SaveIndex does), takes one AppendSegment, is merged once, and
// absorbs a second directory; a save of the saved index, opened, writes
// the same bytes as the first save. The SHA-256 of every .col file and
// MANIFEST.json must equal the checked-in digests. A format change updates
// them on purpose with -update-digests; nothing else may move them.
func TestColumnFilesAreStable(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 3000
	cfg.Vocab = 2500
	cfg.AvgDocLen = 80
	cfg.NumTopics = 16
	coll := corpus.Generate(cfg)
	slice := func(lo, hi int) *corpus.Collection {
		t.Helper()
		c, err := coll.Slice(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	root := t.TempDir()
	dir, other := filepath.Join(root, "ix"), filepath.Join(root, "other")

	ix, err := ir.Build(slice(0, 2000), ir.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSegmentedIndex(dir, []*ir.Index{ix}); err != nil {
		t.Fatal(err)
	}
	// A save of the opened segment streams its files into the same bytes.
	opened, err := openSole(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	resaved := filepath.Join(root, "resaved")
	err = WriteSegmentedIndex(resaved, []*ir.Index{opened})
	opened.Close()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := segmentDigests(t, dir), segmentDigests(t, resaved); !reflect.DeepEqual(a, b) {
		t.Errorf("a save of the opened index wrote other bytes:\n%v\nwant\n%v", b, a)
	}
	if _, err := AppendSegment(dir, slice(2000, 2500), nil); err != nil {
		t.Fatal(err)
	}
	sm, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := sm.Names()
	into, err := AllocSegmentDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := BuildMergedSegment(dir, names, into, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CommitMerge(dir, names, into, epoch, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendSegment(other, slice(2500, 3000), nil); err != nil {
		t.Fatal(err)
	}
	prep, err := PrepareAbsorb(dir, other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CommitAbsorb(prep); err != nil {
		t.Fatal(err)
	}

	got := segmentDigests(t, dir)
	if *updateDigests {
		var b strings.Builder
		for _, f := range sortedKeys(got) {
			fmt.Fprintf(&b, "%s %s\n", f, got[f])
		}
		if err := os.WriteFile(digestsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t)
	for _, f := range sortedKeys(want) {
		switch g, ok := got[f]; {
		case !ok:
			t.Errorf("%s: not written", f)
		case g != want[f]:
			t.Errorf("%s: sha256 %s, want %s", f, g, want[f])
		}
	}
	for _, f := range sortedKeys(got) {
		if _, ok := want[f]; !ok {
			t.Errorf("%s: written, but has no pinned digest", f)
		}
	}
}

// segmentDigests returns the SHA-256 of every .col file and MANIFEST.json
// under dir, keyed by slash-separated path relative to dir.
func segmentDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if name := d.Name(); name != ManifestName && !strings.HasSuffix(name, blobExt) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		out[filepath.ToSlash(rel)] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestsFile, sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
