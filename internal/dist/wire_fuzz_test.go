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
// carries one entry per query of a search, commits no append pinned past
// the server's generation, and encodes back onto the wire.
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
		if req.Verb == verbAppend && req.PinGen > srv.Gen() && resp.Append != nil {
			t.Fatalf("append pinned at generation %d committed on a server at %d", req.PinGen, srv.Gen())
		}
		if err := gob.NewEncoder(io.Discard).Encode(resp); err != nil {
			t.Fatalf("response does not encode: %v", err)
		}
	})
}

// FuzzWireResponse is the broker's hardening property against whatever a
// server answers: arbitrary bytes gob-decoded into a wireResponse and
// folded, as the reply of two partition groups, into a batch's results by
// mergeReplies never panic; the fold returns one result per request, a
// failure exactly when a group failed, and no ranking longer than its k.
func FuzzWireResponse(f *testing.F) {
	for _, resp := range []wireResponse{
		{Seq: 1, Gen: 3, Queries: []wireAnswer{
			{Results: []wireResult{{DocID: 4, Name: "d4", Score: 1.5}, {DocID: 2, Score: 1.5}, {DocID: 9, Score: 2}},
				WallNanos: 10, SecondPass: true, Candidates: 3},
			{Err: "dist: injected fault"},
		}},
		{Seq: 2, Stale: true, Err: "dist: replica behind", Queries: []wireAnswer{{Err: "stale"}}},
		{Seq: 3, Queries: []wireAnswer{{Results: []wireResult{{DocID: -1, Score: math.NaN()}, {DocID: math.MaxInt64, Score: math.Inf(-1)}}}}},
		{Seq: 4, Status: &wireStatus{Gen: 1}, Append: &wireAppendResult{Gen: 2}, Pull: &wirePullResult{Gen: 2}, Data: []byte("x")},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(resp); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(len(resp.Queries)), 2)
	}

	f.Fuzz(func(t *testing.T, data []byte, nreqs uint8, k int) {
		var resp wireResponse
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&resp); err != nil {
			return // the connection would be dropped
		}
		reqs := make([]Request, nreqs%8)
		for i := range reqs {
			reqs[i].K = k
		}
		out, down, err := mergeReplies(reqs, []groupReply{{gi: 0, resp: resp}, {gi: 1, resp: resp}})
		if len(out) != len(reqs) {
			t.Fatalf("%d results for %d requests", len(out), len(reqs))
		}
		if (err != nil) != (down > 0) {
			t.Fatalf("%d failed groups, error %v", down, err)
		}
		for qi, r := range out {
			if k > 0 && len(r.Results) > k {
				t.Fatalf("request %d: %d results, k %d", qi, len(r.Results), k)
			}
		}
	})
}
