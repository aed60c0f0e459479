// Package corpus generates the synthetic TREC-TeraByte testbed the
// reproduction runs against. The real GOV2 collection (25M web documents,
// 426GB) and the official 50,000-query efficiency workload are not
// redistributable, so this package produces a statistical stand-in that
// preserves the four properties the paper's experiments actually
// exercise:
//
//  1. Zipfian term frequencies, so posting-list lengths span the realistic
//     range from stop-word-like lists to rare terms;
//  2. docid-ordered posting lists with skewed gaps, the compressibility
//     property PFOR-DELTA exploits;
//  3. small term-frequency values, the property PFOR exploits;
//  4. topical clustering with known ground truth, so ranked retrieval
//     (BM25) attains high early precision while unranked boolean retrieval
//     does not — the effectiveness axis of Table 2.
//
// Topicality is injected with a simple mixture model: a fraction of
// documents is assigned a hidden topic and draws part of its tokens from
// that topic's term set; precision queries are built from topical terms and
// judged against the hidden assignment.
package corpus

import (
	"fmt"
	"math"
	"math/rand"
)

// Config parameterizes collection generation. The defaults (see
// DefaultConfig) describe a laptop-scale stand-in for GOV2; Scale up for
// larger experiments.
type Config struct {
	NumDocs   int     // number of documents
	Vocab     int     // vocabulary size
	AvgDocLen int     // mean document length in tokens
	ZipfS     float64 // Zipf exponent of the term distribution

	NumTopics      int     // number of hidden topics
	TopicDocFrac   float64 // fraction of documents assigned a topic
	TopicTermCount int     // terms per topic
	TopicTokenFrac float64 // fraction of a topical document's tokens drawn from the topic

	Seed int64
}

// DefaultConfig returns the scaled-down GOV2 stand-in used by the Table 2
// and Table 3 experiments.
func DefaultConfig() Config {
	return Config{
		NumDocs:        50000,
		Vocab:          30000,
		AvgDocLen:      200,
		ZipfS:          1.07,
		NumTopics:      100,
		TopicDocFrac:   0.35,
		TopicTermCount: 8,
		TopicTokenFrac: 0.45,
		Seed:           2007,
	}
}

// Posting is one inverted-list entry: the document and the in-document
// term frequency.
type Posting struct {
	DocID int64
	TF    int64
}

// Query is a keyword query. Topic >= 0 marks a precision query generated
// from that hidden topic (its relevance judgments are the topic's
// documents); efficiency queries carry Topic == -1.
type Query struct {
	Terms []string
	Topic int
}

// Collection is a generated document collection with its inverted
// structure and ground truth.
type Collection struct {
	Cfg Config

	TermStrings []string    // term id -> surface form
	Postings    [][]Posting // term id -> docid-ordered posting list
	DocLens     []int64     // docid -> length in tokens
	DocNames    []string    // docid -> GOV2-style name
	TopicOfDoc  []int       // docid -> topic id or -1
	Topics      [][]int     // topic id -> term ids
}

// AvgDocLen returns the realized mean document length. It is computed from
// DocLens so that derived collections (partitions built by the distributed
// layer) stay consistent without extra bookkeeping.
func (c *Collection) AvgDocLen() float64 {
	if len(c.DocLens) == 0 {
		return 0
	}
	var total int64
	for _, l := range c.DocLens {
		total += l
	}
	return float64(total) / float64(len(c.DocLens))
}

// NumPostings returns the total number of (term, doc) pairs.
func (c *Collection) NumPostings() int {
	n := 0
	for _, p := range c.Postings {
		n += len(p)
	}
	return n
}

// Generate builds a collection deterministically from cfg.Seed.
func Generate(cfg Config) *Collection {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Collection{Cfg: cfg}

	// Vocabulary. Surface forms are synthetic but pronounceable enough for
	// the demo UI.
	c.TermStrings = make([]string, cfg.Vocab)
	for i := range c.TermStrings {
		c.TermStrings[i] = termString(i)
	}

	// Zipf sampler over term ranks.
	sampler := newAlias(zipfWeights(cfg.Vocab, cfg.ZipfS), rng)

	// Topics draw their characteristic terms from the frequent band of the
	// vocabulary. This matches TREC topics, whose keywords are common
	// words: any single query term (and even conjunctions of them) matches
	// far more documents than are relevant, which is why unranked boolean
	// retrieval scores near zero in Table 2 while tf-driven BM25 ranking
	// separates the truly topical documents.
	// Under a Zipf distribution the document frequency of a term depends
	// on its absolute rank, not its rank as a fraction of the vocabulary,
	// so the band is fixed in absolute ranks (clamped for tiny test
	// vocabularies): ranks ~5-60 are common content words appearing in
	// tens of percent of documents, which makes unranked conjunctions
	// match far more documents than are relevant.
	c.Topics = make([][]int, cfg.NumTopics)
	lo, hi := 5, 60
	if hi > cfg.Vocab/4 {
		hi = cfg.Vocab / 4
	}
	if lo >= hi {
		lo, hi = 0, cfg.Vocab
	}
	for t := range c.Topics {
		terms := make([]int, cfg.TopicTermCount)
		for i := range terms {
			terms[i] = lo + rng.Intn(hi-lo)
		}
		c.Topics[t] = terms
	}

	// Documents.
	c.DocLens = make([]int64, cfg.NumDocs)
	c.DocNames = make([]string, cfg.NumDocs)
	c.TopicOfDoc = make([]int, cfg.NumDocs)
	c.Postings = make([][]Posting, cfg.Vocab)
	tf := make(map[int]int64, cfg.AvgDocLen)

	for d := 0; d < cfg.NumDocs; d++ {
		c.DocNames[d] = fmt.Sprintf("GX%03d-%02d-%07d", d/10000, (d/100)%100, d)
		c.TopicOfDoc[d] = -1
		topical := rng.Float64() < cfg.TopicDocFrac
		var topic []int
		if topical {
			t := rng.Intn(cfg.NumTopics)
			c.TopicOfDoc[d] = t
			topic = c.Topics[t]
		}

		length := docLength(rng, cfg.AvgDocLen)
		c.DocLens[d] = int64(length)

		clear(tf)
		for i := 0; i < length; i++ {
			var term int
			if topical && rng.Float64() < cfg.TopicTokenFrac {
				term = topic[rng.Intn(len(topic))]
			} else {
				term = sampler.sample(rng)
			}
			tf[term]++
		}
		for term, f := range tf {
			c.Postings[term] = append(c.Postings[term], Posting{DocID: int64(d), TF: f})
		}
	}
	return c
}

// docLength draws a log-normal-ish length clipped to [16, 6*avg]: web
// document lengths are right-skewed.
func docLength(rng *rand.Rand, avg int) int {
	// lognormal with median ~0.75*avg and sigma 0.6 has mean ~avg*0.9.
	x := math.Exp(rng.NormFloat64()*0.6 + math.Log(0.75*float64(avg)))
	l := int(x)
	if l < 16 {
		l = 16
	}
	if l > 6*avg {
		l = 6 * avg
	}
	return l
}

func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// termString renders term ids as short letter strings (base-26), giving a
// stable, human-readable vocabulary: 0 -> "ba", 1 -> "bb", ...
func termString(id int) string {
	buf := []byte{}
	x := id
	for {
		buf = append(buf, byte('a'+x%26))
		x /= 26
		if x == 0 {
			break
		}
	}
	// Reverse and prefix to guarantee at least two letters.
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return "b" + string(buf)
}

// alias is Walker's alias method: O(1) sampling from a fixed discrete
// distribution, the only way sampling tens of millions of Zipf tokens stays
// cheap.
type alias struct {
	prob  []float64
	alias []int32
}

func newAlias(weights []float64, _ *rand.Rand) *alias {
	n := len(weights)
	var sum float64
	for _, w := range weights {
		sum += w
	}
	a := &alias{prob: make([]float64, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w / sum * float64(n)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small {
		a.prob[i] = 1
	}
	return a
}

func (a *alias) sample(rng *rand.Rand) int {
	i := rng.Intn(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}
