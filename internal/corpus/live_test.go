package corpus

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// fromDocsOracle is the map-per-document inversion FromDocs replaced: a
// batch-wide term map plus one term-frequency map per document, term ids
// assigned by sorting the surface forms, and each list filled in docid
// order. FromDocs must return exactly what it returns, errors included.
func fromDocsOracle(docs []Doc) (*Collection, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("corpus: FromDocs with no documents")
	}
	c := &Collection{
		Cfg:        Config{NumDocs: len(docs)},
		DocLens:    make([]int64, len(docs)),
		DocNames:   make([]string, len(docs)),
		TopicOfDoc: make([]int, len(docs)),
	}
	termID := map[string]int{}
	tf := map[string]int64{}
	perDoc := make([]map[string]int64, len(docs))
	for d, doc := range docs {
		if len(doc.Tokens) == 0 {
			return nil, fmt.Errorf("corpus: document %d (%q) has no tokens", d, doc.Name)
		}
		c.DocNames[d] = doc.Name
		c.DocLens[d] = int64(len(doc.Tokens))
		c.TopicOfDoc[d] = -1
		clear(tf)
		for _, t := range doc.Tokens {
			tf[t]++
		}
		m := make(map[string]int64, len(tf))
		for t, f := range tf {
			m[t] = f
			if _, ok := termID[t]; !ok {
				termID[t] = -1
			}
		}
		perDoc[d] = m
	}
	c.TermStrings = make([]string, 0, len(termID))
	for t := range termID {
		c.TermStrings = append(c.TermStrings, t)
	}
	sort.Strings(c.TermStrings)
	for i, t := range c.TermStrings {
		termID[t] = i
	}
	c.Cfg.Vocab = len(c.TermStrings)
	c.Postings = make([][]Posting, len(c.TermStrings))
	for d, m := range perDoc {
		for t, f := range m {
			id := termID[t]
			c.Postings[id] = append(c.Postings[id], Posting{DocID: int64(d), TF: f})
		}
	}
	return c, nil
}

// checkFromDocs compares FromDocs against the oracle on one batch.
func checkFromDocs(t *testing.T, docs []Doc) {
	t.Helper()
	want, wantErr := fromDocsOracle(docs)
	got, err := FromDocs(docs)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("FromDocs error %v, oracle %v", err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FromDocs of %d documents differs from the oracle:\n got %+v\nwant %+v", len(docs), got, want)
	}
}

// testVocab mixes one-letter, repeated-prefix and non-ASCII surface forms,
// so byte order and rune order disagree on some pairs.
var testVocab = []string{
	"a", "b", "ab", "aa", "z", "Z", "0", "10", "9", "é", "e", "ée", "ß", "ss",
	"日本", "日", "本", "ü", "ü", "ÿ", "\xff", "-", "a b", "",
}

// randomDocs draws n documents of up to maxLen tokens (at least one) from
// the first vocab forms of testVocab.
func randomDocs(rng *rand.Rand, n, maxLen, vocab int) []Doc {
	docs := make([]Doc, n)
	for d := range docs {
		docs[d].Name = fmt.Sprintf("doc-%d", d)
		docs[d].Tokens = make([]string, 1+rng.Intn(maxLen))
		for i := range docs[d].Tokens {
			docs[d].Tokens[i] = testVocab[rng.Intn(vocab)]
		}
	}
	return docs
}

// TestFromDocsMatchesOracle: over random batches — one document and a
// thousand, one-token documents, heavily repeated tokens, non-ASCII
// forms — FromDocs returns the oracle's collection: the same sorted
// TermStrings, the same docid-ordered lists and the same document
// columns. A batch holding an empty document fails with the oracle's
// error.
func TestFromDocsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2007))
	for _, tc := range []struct{ n, maxLen, vocab int }{
		{1, 1, len(testVocab)},
		{1, 50, 3},
		{1000, 1, len(testVocab)},
		{1000, 40, len(testVocab)},
		{1000, 200, 2},
		{37, 8, len(testVocab)},
	} {
		for rep := 0; rep < 5; rep++ {
			checkFromDocs(t, randomDocs(rng, tc.n, tc.maxLen, tc.vocab))
		}
	}
	docs := randomDocs(rng, 20, 5, len(testVocab))
	docs[13].Tokens = nil
	checkFromDocs(t, docs)
	checkFromDocs(t, nil)
}

// FuzzFromDocs compares FromDocs with the oracle on arbitrary batches.
// Each byte is a token — a form of testVocab, or a one-byte form for
// bytes past it — except that 0xff starts a new document.
func FuzzFromDocs(f *testing.F) {
	f.Add([]byte{1, 2, 2, 0xff, 3, 1})
	f.Add([]byte{0xff, 0xff, 7})
	f.Add([]byte("the quick brown fox\xffjumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		docs := []Doc{{Name: "d0"}}
		for _, b := range data {
			if b == 0xff {
				docs = append(docs, Doc{Name: fmt.Sprintf("d%d", len(docs))})
				continue
			}
			d := &docs[len(docs)-1]
			tok := string([]byte{b})
			if int(b) < len(testVocab) {
				tok = testVocab[b]
			}
			d.Tokens = append(d.Tokens, tok)
		}
		checkFromDocs(t, docs)
	})
}
