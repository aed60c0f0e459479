package ir

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/vector"
)

// TestBuildWithoutPostings pins Build on collections with no postings: it
// indexes the documents and no term, has no score bounds (ScoreLo >
// ScoreHi), and a search finds nothing.
func TestBuildWithoutPostings(t *testing.T) {
	for _, c := range []*corpus.Collection{
		{DocLens: []int64{3, 4}, DocNames: []string{"a", "b"}, TermStrings: []string{"x"}, Postings: [][]corpus.Posting{nil}},
		{},
	} {
		ix, err := Build(c, DefaultBuildConfig())
		if err != nil {
			t.Fatalf("%d documents: %v", len(c.DocLens), err)
		}
		if ix.NumDocs() != len(c.DocLens) || ix.NumPostings() != 0 || len(ix.Terms) != 0 {
			t.Fatalf("%d documents: index has %d documents, %d postings, %d terms",
				len(c.DocLens), ix.NumDocs(), ix.NumPostings(), len(ix.Terms))
		}
		if ix.Params.NumDocs != float64(len(c.DocLens)) || ix.Params.AvgDocLn != c.AvgDocLen() {
			t.Fatalf("%d documents: params %+v", len(c.DocLens), ix.Params)
		}
		if ix.ScoreLo <= ix.ScoreHi {
			t.Fatalf("%d documents: bounds [%v, %v]", len(c.DocLens), ix.ScoreLo, ix.ScoreHi)
		}
		if len(c.DocLens) > 0 {
			if name, err := ix.DocName(1); err != nil || name != "b" {
				t.Fatalf("DocName(1) = %q, %v", name, err)
			}
		}
		res, _, err := NewSearcher(ix, 1).Search([]string{"x"}, 10, BM25TC)
		if err != nil || len(res) != 0 {
			t.Fatalf("search: %v, %v", res, err)
		}
	}
}

// TestBuildRefusesStatsMissingATerm: a statistics override must carry the
// document frequency of every term the build indexes. Falling back to the
// local list length would score that term by partition-local idf, and the
// partition's scores would no longer compare with its peers'.
func TestBuildRefusesStatsMissingATerm(t *testing.T) {
	c, err := corpus.FromDocs([]corpus.Doc{
		{Name: "d0", Tokens: []string{"apple", "pear", "apple"}},
		{Name: "d1", Tokens: []string{"pear", "plum"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bc := DefaultBuildConfig()
	bc.Stats = CollectionStats(c)
	delete(bc.Stats.Ftd, "plum")
	if ix, err := Build(c, bc); err == nil || !strings.Contains(err.Error(), `"plum"`) {
		t.Fatalf("Build with Stats missing a term: %v (index %v)", err, ix != nil)
	}
}

// FuzzBuildFromDocs drives the one outside input that reaches the builder,
// the documents an Engine.Add carries, through corpus.FromDocs and Build.
// Each byte is a token — one of 48 terms of varying length — except that
// a byte from 0xf0 up starts a new document. Build must not panic; each
// term's row range must be as wide as its document frequency; and the TD
// rows must ascend on (term, docid), tiling every row once — FromDocs
// numbers terms in sorted order, and Build streams them in that order.
func FuzzBuildFromDocs(f *testing.F) {
	f.Add([]byte{1, 2, 2, 0xf0, 3, 1})
	f.Add([]byte{0xf0, 0xf0, 7})
	f.Add([]byte("the quick brown fox\xf1jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		docs := []corpus.Doc{{Name: "d0"}}
		for _, b := range data {
			if b >= 0xf0 {
				docs = append(docs, corpus.Doc{Name: fmt.Sprintf("d%d", len(docs))})
				continue
			}
			d := &docs[len(docs)-1]
			d.Tokens = append(d.Tokens, strings.Repeat(string(rune('a'+b%16)), 1+int(b/16)%3))
		}
		c, err := corpus.FromDocs(docs)
		if err != nil {
			return // an empty document; Engine.Add refuses it the same way
		}
		ix, err := Build(c, DefaultBuildConfig())
		if err != nil {
			t.Fatal(err)
		}
		col, err := ix.TD.Column(ColDocID32)
		if err != nil {
			t.Fatal(err)
		}
		docids := vector.New(vector.Int64, max(col.N, 1))
		if err := colbm.NewCursor(col).Read(docids, 0, col.N); err != nil {
			t.Fatal(err)
		}
		byRow := make([]string, 0, len(ix.Terms))
		for term, ti := range ix.Terms {
			if ti.End-ti.Start != ti.Ftd {
				t.Fatalf("term %q: rows [%d, %d) for ftd %d", term, ti.Start, ti.End, ti.Ftd)
			}
			byRow = append(byRow, term)
		}
		slices.SortFunc(byRow, func(a, b string) int { return ix.Terms[a].Start - ix.Terms[b].Start })
		row := 0
		for i, term := range byRow {
			ti := ix.Terms[term]
			if ti.Start != row || i > 0 && term <= byRow[i-1] {
				t.Fatalf("term %q at rows [%d, %d) follows %q ending at row %d", term, ti.Start, ti.End, byRow[max(i-1, 0)], row)
			}
			for r := ti.Start + 1; r < ti.End; r++ {
				if docids.I64[r] <= docids.I64[r-1] {
					t.Fatalf("term %q: docid %d at row %d follows %d", term, docids.I64[r], r, docids.I64[r-1])
				}
			}
			row = ti.End
		}
		if row != ix.NumPostings() {
			t.Fatalf("terms cover %d of %d rows", row, ix.NumPostings())
		}
	})
}
