// Package ir implements information retrieval on top of the relational
// engine, following §3 of the paper: the inverted index is an ordinary
// [term, docid, tf] relation ordered on (term, docid), with the term
// column replaced by a range index; keyword search is relational algebra
// (merge joins over posting ranges); ranking is a projection computing
// Okapi BM25 — document lengths fetched by position from the document
// table, which is dense on docid — followed by TopN; and the
// performance-optimization ladder of Table 2 (two-pass, compression, score
// materialization, 8-bit quantization) is a set of alternative physical
// plans over alternative column encodings.
//
// # Strategies
//
// A Strategy names one Table 2 run: BoolAND/BoolOR execute the §3.2
// boolean language; BM25 and BM25T rank over the uncompressed 32-bit
// columns (T adds the conjunctive-first two-pass heuristic); BM25TC reads
// the PFOR/PFOR-DELTA compressed columns; BM25TCM reads the materialized
// float score column; BM25TCMQ8 reads the 8-bit Global-By-Value quantized
// score column. There is one layout: every Index carries all six TD
// columns, so every strategy runs on every segment and each reads only
// what it needs. On a freshly baked segment, BM25TCMQ8 also
// prunes by max score (§5): its scans skip the 128-row posting strides
// whose best quantized score cannot enter the top-k.
//
// # Building
//
// IndexWriter is the one build path and the only place a build computes
// Okapi weights; Build streams a corpus.Collection through it in term-id
// order, the segmented merge streams existing segments in ascending term
// order. TD rows are grouped by term, docids ascending within each. A
// BuildConfig.Stats override must carry every indexed term's document
// frequency, and its score bounds are a floor and a ceiling that the build
// widens by the weights it computes.
//
// # Segments and snapshots
//
// Search runs over a Snapshot: an ordered set of one or more immutable
// Index segments (disjoint docid ranges) plus collection-wide statistics:
// the BM25 parameters are patched into the segments when the snapshot is
// made, and a query term's document frequency is summed over the
// segments' dictionaries once per query, so no dictionary is copied.
// The multi-segment Searcher plans each segment separately, applies a
// global two-pass gate (the disjunctive second pass runs only when the
// merged conjunctive yield falls short), and merges per-segment results
// through a (score, docid) top-k. Segments whose baked score columns
// predate the newest global statistics are served through query-time
// kernels that reproduce the baked values bit-exactly until a merge
// re-bakes them.
//
// # Concurrency
//
// A Searcher is single-owner: its execution state (ExecContext, operator
// buffers, cursors) must not be shared. SearcherPool recycles a fixed set
// of searchers, doubling as admission control — at most Size() plans
// execute at once; Engine.Search and the dist partition servers both
// query through a pool. Everything underneath (buffer manager, block
// stores, a segment's cache of per-stride score maxima) is internally
// synchronized.
package ir
