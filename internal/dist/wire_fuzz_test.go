package dist

import (
	"bytes"
	"encoding/gob"
	"io"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
)

// FuzzWireRequest is the server's hardening property against whatever a
// connection delivers: arbitrary bytes gob-decoded into a wireRequest and
// dispatched through an in-memory server's verb handlers never panic, and
// every answer echoes the request's sequence number, carries one entry per
// query of a search, and encodes back onto the wire.
func FuzzWireRequest(f *testing.F) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 400
	cfg.Vocab = 600
	cfg.NumTopics = 5
	c := corpus.Generate(cfg)
	srv, err := startServer(c, ir.DefaultBuildConfig())
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
		{Seq: 7, Verb: verbInstallChunk, Install: &wireInstall{Seg: "seg-000001", File: "x", Data: []byte("abc")}},
		{Seq: 8, Verb: verbInstallCommit, Install: &wireInstall{Manifest: []byte(`{}`)}},
		{Seq: 9, Verb: verbManifest},
		{Seq: 10, Verb: 99},
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
		if err := gob.NewEncoder(io.Discard).Encode(resp); err != nil {
			t.Fatalf("response does not encode: %v", err)
		}
	})
}
