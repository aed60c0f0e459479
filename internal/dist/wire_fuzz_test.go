package dist

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"testing"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
)

// FuzzWireRequest is the server's hardening property against whatever a
// connection delivers: arbitrary bytes gob-decoded into a wireRequest and
// dispatched through the verb handlers of a server over a BuildPartitions
// directory (so the fetch and manifest seeds reach real segment files)
// never panic, and every answer echoes the request's sequence number,
// carries one entry per query of a search — refusing an unknown pass, and
// carrying a mask over the terms of every query answered that named a
// pass — commits no append pinned past the server's generation, and
// encodes back onto the wire.
func FuzzWireRequest(f *testing.F) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 400
	cfg.Vocab = 600
	cfg.NumTopics = 5
	c := corpus.Generate(cfg)
	dirs, err := BuildPartitions(c, 1, ir.DefaultBuildConfig(), f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	srv, err := serveSegmentedDir(dirs[0], "127.0.0.1:0", colbm.NewManager(0), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	terms := c.PrecisionQueries(1, 3)[0].Terms
	for _, req := range []wireRequest{
		{Seq: 1, Verb: verbSearch, Queries: []wireQuery{
			{Terms: terms, K: 10, Strategy: int(ir.BM25TCMQ8)},
			{Terms: []string{"no-such-term"}, K: -1, Strategy: 99},
		}, TimeoutNanos: 1e9, TraceID: 7, TraceSampled: true},
		{Seq: 2, Verb: verbSearch, Queries: []wireQuery{{Terms: terms}}, PinGen: 5},
		{Seq: 12, Verb: verbSearch, Queries: []wireQuery{
			{Terms: terms, K: 10, Strategy: int(ir.BM25TCMQ8), Pass: int(ir.PassConjunctive)},
			{Terms: append(terms, "no-such-term"), K: 5, Strategy: int(ir.BM25), Pass: int(ir.PassDisjunctive)},
			{Terms: terms, K: 10, Strategy: int(ir.BoolAND), Pass: int(ir.PassConjunctive)},
			{Terms: terms, K: 10, Pass: 7},
		}},
		{Seq: 3, Verb: verbStatus},
		{Seq: 4, Verb: verbAppend, Append: &wireAppend{Docs: []wireDoc{{Name: "d", Tokens: terms}}}},
		{Seq: 5, Verb: verbFetch, Fetch: &wireFetch{Seg: "seg-000001"}},
		{Seq: 6, Verb: verbFetch, Fetch: &wireFetch{Seg: "seg-000001", File: "x", Off: 8, Len: 16}},
		{Seq: 7, Verb: verbManifest},
		{Seq: 8, Verb: verbPull, Pull: &wirePull{From: "127.0.0.1:1"}},
		{Seq: 9, Verb: verbPull},
		{Seq: 10, Verb: 99},
		{Seq: 11, Verb: verbAppend, Append: &wireAppend{Docs: []wireDoc{{Name: "d", Tokens: terms}}}, PinGen: 5},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var req wireRequest
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return // the connection would be dropped
		}
		resp := srv.dispatch(&req)
		if resp.Seq != req.Seq {
			t.Fatalf("response seq %d, request seq %d", resp.Seq, req.Seq)
		}
		if req.Verb == verbSearch && len(resp.Queries) != len(req.Queries) {
			t.Fatalf("%d answers to %d queries", len(resp.Queries), len(req.Queries))
		}
		for i, q := range req.Queries {
			if req.Verb != verbSearch || resp.Queries[i].Err != "" {
				continue
			}
			if q.Pass < int(ir.PassBoth) || q.Pass > int(ir.PassDisjunctive) {
				t.Fatalf("query %d: unknown pass %d answered", i, q.Pass)
			}
			if q.Pass != int(ir.PassBoth) && len(resp.Queries[i].Mask) != len(q.Terms) {
				t.Fatalf("query %d: mask of %d terms for a query of %d", i, len(resp.Queries[i].Mask), len(q.Terms))
			}
		}
		if req.Verb == verbAppend && req.PinGen > srv.Gen() && resp.Append != nil {
			t.Fatalf("append pinned at generation %d committed on a server at %d", req.PinGen, srv.Gen())
		}
		if err := gob.NewEncoder(io.Discard).Encode(resp); err != nil {
			t.Fatalf("response does not encode: %v", err)
		}
	})
}

// FuzzWireResponse is the broker's hardening property against whatever a
// server answers: arbitrary bytes gob-decoded into a wireResponse, checked
// by checkAnswers against a batch asking each pass in turn and, when
// accepted, read as the reply of two partition groups by answers and
// merged by ir.Gate or ir.MergeTopK, never panic, and no ranking is longer
// than its k.
func FuzzWireResponse(f *testing.F) {
	for _, resp := range []wireResponse{
		{Seq: 1, Gen: 3, Queries: []wireAnswer{
			{Results: []wireResult{{DocID: 4, Name: "d4", Score: 1.5}, {DocID: 2, Score: 1.5}, {DocID: 9, Score: 2}},
				Mask: []bool{true, false}, WallNanos: 10, Candidates: 3},
			{Err: "dist: injected fault"},
		}},
		{Seq: 2, Stale: true, Err: "dist: replica behind", Queries: []wireAnswer{{Err: "stale"}}},
		{Seq: 3, Queries: []wireAnswer{{Results: []wireResult{{DocID: -1, Score: math.NaN()}, {DocID: math.MaxInt64, Score: math.Inf(-1)}}}}},
		{Seq: 5, Queries: []wireAnswer{
			{Results: []wireResult{{DocID: 1, Score: 1}}, Mask: []bool{false, true}},
			{Mask: []bool{true, true}},
			{Results: []wireResult{{DocID: 2}}, Mask: []bool{true}},
		}},
		{Seq: 4, Status: &wireStatus{Gen: 1}, Append: &wireAppendResult{Gen: 2}, Pull: &wirePullResult{Gen: 2}, Data: []byte("x")},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(resp); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(len(resp.Queries)), 2, uint8(2))
	}

	f.Fuzz(func(t *testing.T, data []byte, nreqs uint8, k int, nterms uint8) {
		var resp wireResponse
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&resp); err != nil {
			return // the connection would be dropped
		}
		req := wireRequest{Queries: make([]wireQuery, nreqs%8)}
		for i := range req.Queries {
			req.Queries[i] = wireQuery{Terms: make([]string, nterms%4), K: k, Pass: i % 3}
		}
		if checkAnswers(&req, &resp) != nil {
			return // a failed attempt: the broker reads nothing from it
		}
		reps := []groupReply{{gi: 0, resp: resp}, {gi: 1, resp: resp}}
		for j, q := range req.Queries {
			var st ir.QueryStats
			round, err := answers(reps, j, &st)
			if err != nil {
				continue
			}
			top := ir.MergeTopK(round, k)
			if q.Pass == int(ir.PassConjunctive) {
				top, _ = ir.Gate(round, k)
			}
			if len(top) > max(k, 0) {
				t.Fatalf("query %d: %d results, k %d", j, len(top), k)
			}
		}
	})
}
