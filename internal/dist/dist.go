package dist

import (
	"time"

	"repro/internal/ir"
	"repro/internal/trace"
)

// Wire verbs. The zero value is the original search verb, so brokers and
// servers from before the ingest protocol interoperate: gob omits absent
// fields and the extra payload pointers decode as nil.
const (
	verbSearch   = iota // execute Queries
	verbStatus          // report generation / docid range / ingest capability
	verbAppend          // index Append.Docs as a new committed segment
	verbFetch           // read a chunk (or list the files) of a committed segment
	verbManifest        // read the current committed manifest bytes
	verbPull            // catch this replica's directory up with the server at Pull.From
)

// wireRequest is one broker -> server message: a batch of queries the
// server executes concurrently through its searcher pool (verbSearch,
// the zero Verb), or one ingest/replication operation selected by Verb.
// Single-query Search sends a batch of one; Broker.SearchMany ships a
// whole batch in one round trip per server instead of one per query.
type wireRequest struct {
	// Seq is the connection-local request sequence number; the server
	// echoes it in the response. Retries and hedges re-issue read-only
	// batches on *other* connections, so idempotency is free — the echo
	// guards the one remaining hazard, a desynchronized gob stream handing
	// a retried request some earlier request's reply. A mismatched echo
	// drops the connection instead of returning a stale answer.
	Seq     uint64
	Verb    int
	Queries []wireQuery
	// TimeoutNanos, when positive, bounds server-side execution of the
	// whole batch — the broker forwards the remaining client deadline so a
	// server does not keep burning CPU for a caller that has already given
	// up.
	TimeoutNanos int64
	// TraceID/TraceSampled carry the broker's trace context: when sampled,
	// the server records a span tree for each query in the batch and ships
	// it back in wireAnswer.Trace, where the broker grafts it under the
	// attempt that carried it — one stitched tree per distributed request.
	TraceID      uint64
	TraceSampled bool

	// PinGen, for verbSearch and verbAppend against an ingesting
	// partition, is the generation the broker has already seen this
	// partition commit or answer at. A server serving an
	// *older* generation must not answer — it would silently miss
	// documents the caller already observed — and must not append — it
	// would fork the partition's history — so a search refreshes from
	// its directory and, still behind, refuses with Stale, and an append
	// refuses with Stale at once; the broker treats either exactly like a
	// failed attempt (failover/hedging absorbs replication skew). Serving
	// a newer generation is fine: generations only grow, and the answer
	// reports the one it ran at. 0 pins nothing.
	PinGen uint64

	// Per-verb payloads; nil for verbs that do not use them (gob encodes
	// nil pointers as absent).
	Append *wireAppend
	Fetch  *wireFetch
	Pull   *wirePull
}

// wireDoc is one live document on the wire.
type wireDoc struct {
	Name   string
	Tokens []string
}

// wireAppend asks a partition's primary to index a document batch as one
// new committed segment (verbAppend).
type wireAppend struct {
	Docs []wireDoc
}

// wireFetch reads Len bytes of a committed segment file at Off
// (verbFetch); with File empty it lists the segment's files instead —
// the two reads a pull needs from its source.
type wireFetch struct {
	Seg  string
	File string
	Off  int64
	Len  int
}

// wirePull asks a replica to pull its directory up to the committed
// generation of the server listening at From (verbPull).
type wirePull struct {
	From string
}

// wireQuery is one query inside a batch. Pass is the ir.Pass the server
// runs: the broker asks for a two-pass strategy's conjunctive and
// disjunctive passes one round at a time, gating the whole collection
// itself (ir.Gate), and sends any other strategy as ir.PassBoth.
type wireQuery struct {
	Terms    []string
	K        int
	Strategy int
	Pass     int
}

// wireResponse answers a wireRequest, one entry per query in request
// order. Seq echoes the request's sequence number (see wireRequest.Seq).
type wireResponse struct {
	Seq     uint64
	Queries []wireAnswer

	// Gen is the generation the server answered at. Brokers fold it into
	// their per-partition generation table, so pinning ratchets forward
	// with every answer, not just every Add.
	Gen uint64
	// Stale marks a refused verbSearch or verbAppend: the server's
	// generation trails the request's PinGen. Nothing was executed; the
	// broker retries elsewhere.
	Stale bool
	// Err reports a failed control verb (status/append/fetch/manifest/
	// pull), which srvConn.roundTrip returns as an error; per-query errors
	// ride in Queries for verbSearch.
	Err string

	// Per-verb payloads.
	Status *wireStatus
	Append *wireAppendResult
	Pull   *wirePullResult
	// Data is the verbFetch chunk payload (and verbManifest's manifest
	// bytes); Files answers a verbFetch file listing (File == "").
	Data  []byte
	Files []wireFileInfo
}

// wireStatus answers verbStatus: where this replica stands.
type wireStatus struct {
	// Gen is the serving generation.
	Gen uint64
	// DocBase/NumDocs describe the partition's docid range (routing).
	DocBase int64
	NumDocs int
	// Ingest reports whether this server's directory owns its statistics
	// (is not External) — i.e. can accept appends and pulls.
	Ingest bool
}

// wireFileInfo mirrors storage.SegmentFileInfo on the wire.
type wireFileInfo struct {
	Name string
	Size int64
}

// wireAppendResult answers verbAppend: the committed generation, the new
// segment's name, and the partition's document count after the commit.
type wireAppendResult struct {
	Gen     uint64
	Seg     string
	NumDocs int
}

// wirePullResult answers verbPull, and is what a pull returns in process:
// the generation the directory stands at afterwards, and the segment
// files and bytes the pull wrote to get there.
type wirePullResult struct {
	Gen   uint64
	Files int
	Bytes int64
}

// wireAnswer is one query's results plus the complete per-query stats.
// Candidates ride the wire alongside the timings so broker-side accounting
// matches server-side reality. Mask marks the query's terms the partition
// holds, one entry per term, for a query that named a pass: the input
// ir.Gate needs besides the hits.
type wireAnswer struct {
	Results    []wireResult
	Mask       []bool
	WallNanos  int64
	Candidates int64
	Err        string
	// Trace is the server-side span tree for this query when the request
	// was sampled (empty otherwise, len 1 when present — a slice rather
	// than a pointer keeps the gob encoding of the absent case trivial).
	Trace []trace.Span
}

// wireResult mirrors ir.Result with only exported concrete fields, keeping
// the wire format independent of internal type changes.
type wireResult struct {
	DocID int64
	Name  string
	Score float64
}

// Request is one query of a broker batch (see Broker.SearchMany): the
// distributed mirror of repro.SearchRequest.
type Request struct {
	Terms    []string
	K        int
	Strategy ir.Strategy
	// Trace forces a trace for the batch this request rides in: the broker
	// records its fan-out (attempts, hedges, retries, merges), servers
	// record their subtrees, and the stitched tree comes back in
	// Timing.Trace regardless of sampling policy.
	Trace bool
}

// BatchResult is one request's outcome within Broker.SearchMany: the
// globally merged ranking, the stats merged across servers (wall = the
// slowest server of each round, summed over the rounds; candidates summed;
// SecondPass set when the broker sent the request to round 2), or a
// per-request error.
type BatchResult struct {
	Results []ir.Result
	Stats   ir.QueryStats
	Err     error
	// Degraded marks a ranking merged from a partial cluster: one or more
	// whole replica groups were down and the broker (opted into
	// WithPartialResults) answered from the surviving partitions instead
	// of erroring. The ranking is correct over the partitions that
	// answered but may miss documents held by the dead ones.
	Degraded bool
}

// RunStats aggregates a batch run over a cluster — the columns of Table 3.
type RunStats struct {
	Queries int // queries executed
	Streams int // concurrent query streams

	// SecondPass counts queries the broker sent to round 2, the disjunctive
	// pass, because their conjunctive yield over the whole collection fell
	// short of k; Candidates sums scored candidates across all servers,
	// rounds and queries, as they arrive over the wire per answer.
	SecondPass int
	Candidates int64

	// Hedged counts hedge requests issued (a partition's batch slice
	// re-sent to another replica because the primary exceeded the hedge
	// budget); Retried counts failover re-issues after a replica failed.
	// Both are zero on an unreplicated cluster — they are the observable
	// record of the tail-latency defense firing.
	Hedged  int
	Retried int

	// Total is the wall time of the whole batch; Amortized is Total /
	// Queries (throughput accounting — it keeps falling as streams are
	// added); Absolute is the mean end-to-end per-query latency (it does
	// not — latency tracks the slowest server).
	Total     time.Duration
	Absolute  time.Duration
	Amortized time.Duration

	// Per-query server response extremes, averaged over the batch: the
	// max >> min spread is the paper's explanation for the sub-linear
	// partitioned speedup.
	MinServer time.Duration
	AvgServer time.Duration
	MaxServer time.Duration
}
