package ir

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/colbm"
	"repro/internal/corpus"
)

// dictCollection is a small generated collection: its build keeps the
// frequency-ranked term ids, so its TD rows are not in term order.
func dictCollection(docs int) *corpus.Collection {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs, cfg.Vocab, cfg.AvgDocLen, cfg.NumTopics = docs, 3*docs, 40, 4
	return corpus.Generate(cfg)
}

// TestDictionaryRoundTrip: relation T, as a build writes it at any chunk
// length, decodes into exactly the build's range index and skylines, over
// TD rows in frequency-rank order (Build) and in term order (a stream of
// sorted terms, as an append or a merge writes).
func TestDictionaryRoundTrip(t *testing.T) {
	generated := dictCollection(300)
	docs, err := generated.Docs(0, 300)
	if err != nil {
		t.Fatal(err)
	}
	live, err := corpus.FromDocs(docs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*corpus.Collection{generated, live} {
		for _, chunkLen := range []int{128, 0} {
			ix, err := Build(c, BuildConfig{ChunkLen: chunkLen})
			if err != nil {
				t.Fatal(err)
			}
			terms, sky, rest, err := ReadDictionary(ix.T, ix.TD.N)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(terms, ix.Terms) || !reflect.DeepEqual(sky, ix.Skylines) {
				t.Fatalf("chunk length %d: T decodes into another dictionary or other skylines", chunkLen)
			}
			if len(sky)+len(rest) != len(terms) || len(sky) == 0 {
				t.Fatalf("chunk length %d: %d skylines and %d terms without one, of %d", chunkLen, len(sky), len(rest), len(terms))
			}
		}
	}
	if ends, err := tileEnds([]int64{0, 5, 9}, 12); err != nil || !reflect.DeepEqual(ends, []int{5, 9, 12}) {
		t.Fatalf("ascending starts: %v, %v", ends, err)
	}
	if ends, err := tileEnds([]int64{9, 0, 5}, 12); err != nil || !reflect.DeepEqual(ends, []int{12, 5, 9}) {
		t.Fatalf("starts out of row order: %v, %v", ends, err)
	}
}

// rawDictionary writes T's columns from the given values, unchecked.
func rawDictionary(t testing.TB, terms []string, starts, ftds []int64, maxs []float64, skys []string) *colbm.Table {
	t.Helper()
	b := colbm.NewBuilder("T", colbm.NewSimDisk(colbm.DefaultDiskParams()), colbm.NewManager(0), dictSpecs(0))
	b.AppendStr(ColTerm, terms...)
	b.SetInt64(ColStart, starts)
	b.SetInt64(ColFtd, ftds)
	bits := make([]int64, len(maxs))
	for i, m := range maxs {
		bits[i] = int64(math.Float64bits(m))
	}
	b.SetInt64(ColMaxScore, bits)
	b.AppendStr(ColSkyline, skys...)
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestReadDictionaryRefuses: T comes off disk and off the wire, so
// ReadDictionary refuses, wrapping ErrBadDictionary, what no build writes.
func TestReadDictionaryRefuses(t *testing.T) {
	one := string(AppendSkyline(nil, Skyline{Upper: []SkyPoint{{TF: 2, Len: 7}}, Lower: []SkyPoint{{TF: 2, Len: 7}}}))
	ok := func() ([]string, []int64, []int64, []float64, []string) {
		return []string{"a", "b", "c"}, []int64{0, 2, 5}, []int64{2, 3, 1}, []float64{1, 2, 3}, []string{one, "", one}
	}
	terms, starts, ftds, maxs, skys := ok()
	if _, _, _, err := ReadDictionary(rawDictionary(t, terms, starts, ftds, maxs, skys), 6); err != nil {
		t.Fatalf("a valid dictionary: %v", err)
	}
	for name, edit := range map[string]func(terms []string, starts, ftds []int64, maxs []float64, skys []string){
		"terms out of order":     func(terms []string, _, _ []int64, _ []float64, _ []string) { terms[0], terms[1] = terms[1], terms[0] },
		"duplicate term":         func(terms []string, _, _ []int64, _ []float64, _ []string) { terms[1] = "a" },
		"gap before a list":      func(_ []string, starts, _ []int64, _ []float64, _ []string) { starts[0] = 1 },
		"empty list":             func(_ []string, starts, _ []int64, _ []float64, _ []string) { starts[1] = 5 },
		"list past the postings": func(_ []string, starts, _ []int64, _ []float64, _ []string) { starts[2] = 6 },
		"document frequency 0":   func(_ []string, _, ftds []int64, _ []float64, _ []string) { ftds[1] = 0 },
		"max score NaN":          func(_ []string, _, _ []int64, maxs []float64, _ []string) { maxs[2] = math.NaN() },
		"skyline cut short":      func(_ []string, _, _ []int64, _ []float64, skys []string) { skys[0] = one[:len(one)-1] },
		"bytes after a skyline":  func(_ []string, _, _ []int64, _ []float64, skys []string) { skys[2] = one + "\x00" },
		"skyline point tf 0": func(_ []string, _, _ []int64, _ []float64, skys []string) {
			skys[0] = string(AppendSkyline(nil, Skyline{Upper: []SkyPoint{{TF: 0, Len: 7}}, Lower: []SkyPoint{{TF: 2, Len: 7}}}))
		},
	} {
		terms, starts, ftds, maxs, skys := ok()
		edit(terms, starts, ftds, maxs, skys)
		if _, _, _, err := ReadDictionary(rawDictionary(t, terms, starts, ftds, maxs, skys), 6); !errors.Is(err, ErrBadDictionary) {
			t.Errorf("%s: %v, want ErrBadDictionary", name, err)
		}
	}
}

// FuzzReadDictionary: ReadDictionary never panics on any bytes of T's five
// columns (under checksums that match them), and whatever it accepts
// round-trips: BuildDictionary writes it again and
// ReadDictionary reads back the same range index, skylines and terms
// without a skyline.
func FuzzReadDictionary(f *testing.F) {
	names := []string{ColTerm, ColStart, ColFtd, ColMaxScore, ColSkyline}
	ix, err := Build(dictCollection(40), DefaultBuildConfig())
	if err != nil {
		f.Fatal(err)
	}
	chunks := make([][]byte, len(names))
	for i, name := range names {
		col := ix.T.MustColumn(name)
		if col.NumChunks() != 1 {
			f.Fatalf("seed column %s has %d chunks", name, col.NumChunks())
		}
		if chunks[i], err = ix.Store.Read(col.BlobName(), 0, col.Chunk(0).Size); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(chunks[0], chunks[1], chunks[2], chunks[3], chunks[4], uint16(ix.T.N), uint32(ix.TD.N))
	f.Add(chunks[0], chunks[1], chunks[2], chunks[3], chunks[4], uint16(ix.T.N), uint32(ix.TD.N+1))
	f.Add(chunks[0], chunks[1], chunks[2], chunks[3], chunks[4], uint16(ix.T.N-1), uint32(ix.TD.N))
	f.Add([]byte{}, []byte{}, []byte{}, []byte{}, []byte{}, uint16(0), uint32(0))

	f.Fuzz(func(t *testing.T, term, start, ftd, maxscore, skyline []byte, n uint16, postings uint32) {
		disk := colbm.NewSimDisk(colbm.DefaultDiskParams())
		specs := dictSpecs(int(n)/128*128 + 128) // one chunk of n values per column
		st := colbm.StoredTable{Name: "T", N: int(n), Checksums: true}
		for i, raw := range [][]byte{term, start, ftd, maxscore, skyline} {
			blob := "T." + names[i]
			if err := colbm.WriteBlob(disk, blob, raw); err != nil {
				t.Fatal(err)
			}
			st.Columns = append(st.Columns, colbm.StoredColumn{Spec: specs[i], N: int(n), Blob: blob,
				Chunks: []colbm.ChunkInfo{{Off: 0, Size: len(raw), N: int(n), CRC: colbm.Checksum(raw)}}})
		}
		tab, err := colbm.OpenTable(st, disk, colbm.NewManager(0))
		if err != nil {
			t.Fatal(err)
		}
		terms, sky, rest, err := ReadDictionary(tab, int(postings))
		if err != nil {
			return
		}
		again, err := BuildDictionary("T2", colbm.NewSimDisk(colbm.DefaultDiskParams()), colbm.NewManager(0), 0, terms, sky)
		if err != nil {
			t.Fatalf("an accepted dictionary does not write again: %v", err)
		}
		terms2, sky2, rest2, err := ReadDictionary(again, int(postings))
		if err != nil {
			t.Fatalf("an accepted dictionary, written again, does not read: %v", err)
		}
		if !reflect.DeepEqual(terms, terms2) || !reflect.DeepEqual(sky, sky2) || !reflect.DeepEqual(rest, rest2) {
			t.Fatalf("round trip changed the dictionary:\n%v %v %v\n%v %v %v", terms, sky, rest, terms2, sky2, rest2)
		}
	})
}
