package ir

import "sort"

// Pass selects which passes of a ranked strategy one search runs.
type Pass int

const (
	// PassBoth runs the strategy as one index would: a two-pass strategy's
	// conjunctive pass, then its disjunctive pass only if Gate asks for
	// it; any other strategy's one plan.
	PassBoth Pass = iota
	// PassConjunctive runs only the conjunctive pass, answering with the
	// hits Gate keeps among the searcher's segments.
	PassConjunctive
	// PassDisjunctive runs only the disjunctive pass.
	PassDisjunctive
)

// TwoPass reports whether a strategy runs the two-pass top-k: BM25T and
// every strategy built on it, and StrategyDefault, which resolves to one.
func (s Strategy) TwoPass() bool {
	return s == StrategyDefault || s >= BM25T && s <= BM25TCMQ8
}

// Shard is one shard's answer to one pass of a ranked query: its top-k
// hits, and Mask, which marks the positions of the query's terms that the
// shard's dictionary holds. A shard is a segment of a Searcher, or a
// partition of a distributed cluster.
type Shard struct {
	Hits []Result
	Mask []bool
}

// Gate is the two-pass decision of one ranked query over a whole
// collection, made from every shard's answer to the conjunctive pass. A
// shard whose mask lacks a term that another shard holds can hold no
// conjunctive match, since that term has no postings there; its answer
// joined over fewer terms, so it is dropped. Gate returns the kept
// answers' merged top k. The query is done with it when they hold k hits,
// or when at most one term resolved anywhere (a one-term disjunctive pass
// is the same plan); otherwise Gate returns disjunctive, and the caller
// runs the disjunctive pass on every shard and merges that instead. Every
// mask has the query's length; Gate filters round in place.
func Gate(round []Shard, k int) (top []Result, disjunctive bool) {
	resolved := 0
	for i := 0; len(round) > 0 && i < len(round[0].Mask); i++ {
		for _, sh := range round {
			if sh.Mask[i] {
				resolved++
				break
			}
		}
	}
	kept, hits := round[:0], 0
	for _, sh := range round {
		held := 0
		for _, m := range sh.Mask {
			if m {
				held++
			}
		}
		if held == resolved {
			kept, hits = append(kept, sh), hits+len(sh.Hits)
		}
	}
	return MergeTopK(kept, k), hits < k && resolved > 1
}

// MergeTopK merges the shards' hits into the global top k, ordered by
// (score desc, docid asc), the TopN order of every ranked plan. Global
// docids are unique across shards, so the order is total and the result
// deterministic. A lone shard's hits are reordered in place.
func MergeTopK(round []Shard, k int) []Result {
	var all []Result
	if len(round) == 1 {
		all = round[0].Hits
	} else {
		for _, sh := range round {
			all = append(all, sh.Hits...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].DocID < all[j].DocID
	})
	if len(all) > k {
		all = all[:max(k, 0)]
	}
	return all
}
