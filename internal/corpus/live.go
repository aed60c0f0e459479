package corpus

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Live-update inputs. A running system does not re-generate its corpus: new
// documents arrive as token bags and are folded into a small batch
// Collection, which the segmented index layer turns into one fresh
// immutable segment. Slice is the inverse direction — carving a docid range
// out of an existing collection — used to split a corpus into append
// batches (and into segmented partition builds) whose union is exactly the
// original.

// Doc is one live document: a name plus its token stream. Token order is
// irrelevant (only per-term frequencies matter to the index); the document
// length is the token count.
type Doc struct {
	Name   string
	Tokens []string
}

// FromDocs builds a batch Collection from live documents. Docids are local
// to the batch (0..len(docs)-1, in input order); the segmented storage
// layer assigns the global docid base when the batch becomes a segment.
// Terms are whatever strings the tokens carry — matching surface forms in
// other segments share dictionary entries, new forms extend it.
//
// The inversion is the relational group-by on (term, doc): one map interns
// every token to a batch-local id, a dense row counts each document's term
// frequencies, and the (id, doc, tf) rows it emits — in docid order — are
// counting-sorted by the ids renumbered in sorted surface order into
// per-term lists that share one flat array, each docid-ordered.
func FromDocs(docs []Doc) (*Collection, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("corpus: FromDocs with no documents")
	}
	c := &Collection{
		Cfg:        Config{NumDocs: len(docs)},
		DocLens:    make([]int64, len(docs)),
		DocNames:   make([]string, len(docs)),
		TopicOfDoc: make([]int, len(docs)),
	}
	tokens := 0 // bounds the rows: a document holds at most one per token
	for _, doc := range docs {
		tokens += len(doc.Tokens)
	}
	intern := make(map[string]int32)
	var surface []string // by batch-local id, in first-seen order
	var tf []int64       // the current document's counts, by batch-local id
	var seen []int32     // ids the current document holds, in first-seen order
	// The emitted rows: batch-local id, its tf, and the document.
	ids, tfs, rowDoc := make([]int32, 0, tokens), make([]int64, 0, tokens), make([]int32, 0, tokens)
	for d, doc := range docs {
		if len(doc.Tokens) == 0 {
			return nil, fmt.Errorf("corpus: document %d (%q) has no tokens", d, doc.Name)
		}
		c.DocNames[d] = doc.Name
		c.DocLens[d] = int64(len(doc.Tokens))
		c.TopicOfDoc[d] = -1
		for _, t := range doc.Tokens {
			id, ok := intern[t]
			if !ok {
				id = int32(len(surface))
				intern[t] = id
				surface = append(surface, t)
				tf = append(tf, 0)
			}
			if tf[id] == 0 {
				seen = append(seen, id)
			}
			tf[id]++
		}
		for _, id := range seen {
			ids, tfs, rowDoc = append(ids, id), append(tfs, tf[id]), append(rowDoc, int32(d))
			tf[id] = 0
		}
		seen = seen[:0]
	}
	// Deterministic term ids: sorted surface forms.
	order := make([]int32, len(surface))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(surface[a], surface[b]) })
	rank := make([]int32, len(surface))
	c.TermStrings = make([]string, len(surface))
	for r, id := range order {
		rank[id] = int32(r)
		c.TermStrings[r] = surface[id]
	}
	c.Cfg.Vocab = len(c.TermStrings)
	// Counting sort by term: rows arrive in docid order and keep it within
	// a term, so each list is docid-ordered as the index builder requires.
	start := make([]int, len(surface)+1)
	for _, id := range ids {
		start[rank[id]+1]++
	}
	for r := range c.TermStrings {
		start[r+1] += start[r]
	}
	flat := make([]Posting, len(ids))
	next := slices.Clone(start[:len(surface)])
	for i, id := range ids {
		r := rank[id]
		flat[next[r]] = Posting{DocID: int64(rowDoc[i]), TF: tfs[i]}
		next[r]++
	}
	c.Postings = make([][]Posting, len(surface))
	for r := range c.Postings {
		c.Postings[r] = flat[start[r]:start[r+1]:start[r+1]]
	}
	return c, nil
}

// Slice extracts documents [lo, hi) as a self-contained collection with
// local docids 0..hi-lo-1. The vocabulary is shared with the parent (term
// ids and surface forms are unchanged; lists outside the range simply come
// out empty), so a sliced batch indexes against the same dictionary the
// full collection would.
func (c *Collection) Slice(lo, hi int) (*Collection, error) {
	if lo < 0 || hi > len(c.DocLens) || lo >= hi {
		return nil, fmt.Errorf("corpus: slice [%d,%d) of %d documents", lo, hi, len(c.DocLens))
	}
	sub := &Collection{
		Cfg:         c.Cfg,
		TermStrings: c.TermStrings,
		DocLens:     c.DocLens[lo:hi],
		DocNames:    c.DocNames[lo:hi],
		TopicOfDoc:  c.TopicOfDoc[lo:hi],
		Topics:      c.Topics,
		Postings:    make([][]Posting, len(c.Postings)),
	}
	sub.Cfg.NumDocs = hi - lo
	for t, list := range c.Postings {
		// Lists are docid-ordered: binary-search the range once.
		i := sort.Search(len(list), func(i int) bool { return list[i].DocID >= int64(lo) })
		j := sort.Search(len(list), func(i int) bool { return list[i].DocID >= int64(hi) })
		if i == j {
			continue
		}
		part := make([]Posting, j-i)
		for k, p := range list[i:j] {
			part[k] = Posting{DocID: p.DocID - int64(lo), TF: p.TF}
		}
		sub.Postings[t] = part
	}
	return sub, nil
}

// Docs materializes documents [lo, hi) as live-update inputs: each document
// becomes its token bag (term repeated tf times; token order is not
// preserved, which the index never observes). This is the bridge test
// harnesses and benchmarks use to replay an existing collection through the
// live append path.
func (c *Collection) Docs(lo, hi int) ([]Doc, error) {
	if lo < 0 || hi > len(c.DocLens) || lo >= hi {
		return nil, fmt.Errorf("corpus: docs [%d,%d) of %d documents", lo, hi, len(c.DocLens))
	}
	docs := make([]Doc, hi-lo)
	for d := range docs {
		docs[d] = Doc{Name: c.DocNames[lo+d], Tokens: make([]string, 0, c.DocLens[lo+d])}
	}
	for t, list := range c.Postings {
		i := sort.Search(len(list), func(i int) bool { return list[i].DocID >= int64(lo) })
		for _, p := range list[i:] {
			if p.DocID >= int64(hi) {
				break
			}
			doc := &docs[p.DocID-int64(lo)]
			for n := int64(0); n < p.TF; n++ {
				doc.Tokens = append(doc.Tokens, c.TermStrings[t])
			}
		}
	}
	return docs, nil
}
