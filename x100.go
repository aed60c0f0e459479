// Package repro is a from-scratch Go reproduction of "Efficient and
// Flexible Information Retrieval Using MonetDB/X100" (Héman, Zukowski,
// de Vries, Boncz; CIDR 2007): an X100-style vectorized relational engine
// with ColumnBM buffer management and PFOR/PFOR-DELTA/PDICT light-weight
// compression, running TREC-TeraByte-style keyword retrieval as relational
// query plans.
//
// This package is the public facade. Its center of gravity is the
// long-lived, concurrency-safe Engine (see engine.go): Open a collection
// once, then Search it from any number of goroutines under
// context.Context cancellation and deadlines. Custom relational plans are
// assembled with the validating fluent builder (see plan.go). The
// layering underneath follows Figure 1 of the paper:
//
//	corpus   — synthetic GOV2-style collection + query workload (testbed)
//	compress — PFOR, PFOR-DELTA, PDICT blocks; patched + naive decoders
//	colbm    — column storage contracts (BlockStore, ChunkCache), the
//	           simulated disk, and the ColumnBM buffer manager every index
//	           reads through (byte budget, clock eviction, singleflight)
//	storage  — the persistent backends: FileStore (real aligned file
//	           I/O) and the one on-disk layout (SEGMENTS.json over
//	           immutable segment directories)
//	engine   — vectorized operators (Scan, Select, Project, MergeJoin,
//	           MergeOuterJoin, FetchJoin, Aggregate, TopN, Sort)
//	ir       — inverted index as relations, BM25 plans, Table 2 strategies
//	serving  — the serving core Engine and dist.Server both wrap:
//	           generation registry, refresh and segment GC, the query
//	           pipeline (pool, metrics, tracing)
//	dist     — partitioned TCP cluster, broadcast + top-k merge (Table 3)
//
// Quick start:
//
//	coll := repro.GenerateCollection(repro.DefaultCollectionConfig())
//	eng, err := repro.Open(coll,
//		repro.WithBufferPoolBytes(256<<20),
//		repro.WithSearchers(8))
//	if err != nil { ... }
//	defer eng.Close()
//	resp, err := eng.Search(ctx, repro.SearchRequest{
//		Terms: []string{"bd", "bq"}, K: 20, Strategy: repro.BM25TCMQ8,
//	})
//	// resp.Hits, resp.Stats, resp.Strategy (the run actually executed)
//
// Analytical plans use the builder, which validates schema references and
// reports every construction error at Build time:
//
//	plan, err := repro.From(lineitem).
//		Where(&repro.CmpIntColVal{Col: "shipdate", Op: repro.CmpLT, Val: 11500}).
//		Aggregate([]string{"returnflag"}, repro.AggSpec{Op: repro.AggCount, Name: "n"}).
//		Build()
//
// Every engine serves an index directory from real files. Open(coll)
// builds into a temporary directory the engine removes at Close;
// Open(coll, WithStorageDir(dir)) builds once and serves the on-disk form
// from then on; OpenDir(dir) opens a prebuilt index with no collection in
// hand; and SaveIndex/LoadIndex expose the same round trip for manually
// managed indexes. Every index directory has the same layout and grows
// the same way: Engine.Add appends a segment. Queries run through the
// ColumnBM buffer manager — compressed chunks under a byte budget
// (WithBufferPoolBytes), clock eviction, singleflight fetches.
//
// Scale-out (§3.4, Table 3) goes through internal/dist: StartCluster
// partitions a collection across loopback-TCP servers (it is
// BuildPartitions into a directory the cluster owns, then
// StartClusterFromDirs), Cluster.NewBroker returns a Broker whose Search
// broadcasts and merges top-k; the context-aware Broker.SearchContext
// composes with each server's searcher pool. With
// WithClusterReplicas every partition range is served by a replica group,
// and a group-aware broker (Cluster.NewBroker) adds the tail-latency
// defenses: hedged fan-out under WithHedging and transparent failover
// when a replica dies mid-query. See docs/ARCHITECTURE.md for the full
// design.
package repro

import (
	"errors"
	"fmt"

	"repro/internal/colbm"
	"repro/internal/compress"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/storage"
	"repro/internal/vector"
)

// Collection generation (the synthetic TREC-TB testbed).
type (
	// CollectionConfig parameterizes synthetic collection generation.
	CollectionConfig = corpus.Config
	// Collection is a generated document collection with ground truth.
	Collection = corpus.Collection
)

// DefaultCollectionConfig returns the scaled-down GOV2 stand-in.
func DefaultCollectionConfig() CollectionConfig { return corpus.DefaultConfig() }

// GenerateCollection builds a collection deterministically from its seed.
func GenerateCollection(cfg CollectionConfig) *Collection { return corpus.Generate(cfg) }

// Doc is one live document for Engine.Add: a name plus its token stream
// (order irrelevant; only per-term frequencies reach the index).
type Doc = corpus.Doc

// Indexing and search (the paper's §3).
type (
	// Index is a searchable inverted-file index stored in ColumnBM.
	Index = ir.Index
	// IndexConfig is a build's docid base, statistics override and table
	// prefix (its chunk length and pool budget are for tests); the
	// columns and the simulated disk are fixed, and the zero value is the
	// default.
	IndexConfig = ir.BuildConfig
	// Strategy is a Table 2 run (retrieval model + optimizations).
	Strategy = ir.Strategy
	// Result is one ranked document.
	Result = ir.Result
	// QueryStats reports per-query wall and simulated-I/O cost.
	QueryStats = ir.QueryStats
)

// The Table 2 strategies. StrategyDefault (the Strategy zero value,
// defined in engine.go) resolves to BM25TCMQ8; every strategy runs on
// every index.
const (
	BoolAND   = ir.BoolAND
	BoolOR    = ir.BoolOR
	BM25      = ir.BM25
	BM25T     = ir.BM25T
	BM25TC    = ir.BM25TC
	BM25TCM   = ir.BM25TCM
	BM25TCMQ8 = ir.BM25TCMQ8
)

// AllStrategies lists the Table 2 runs in order.
var AllStrategies = ir.AllStrategies

// DefaultIndexConfig is the build configuration of every index: the zero
// IndexConfig.
func DefaultIndexConfig() IndexConfig { return ir.DefaultBuildConfig() }

// BuildIndex constructs an index from a collection.
func BuildIndex(c *Collection, cfg IndexConfig) (*Index, error) { return ir.Build(c, cfg) }

// PrecisionAtK evaluates early precision against relevance judgments.
func PrecisionAtK(results []Result, relevant map[int64]bool, k int) float64 {
	return ir.PrecisionAtK(results, relevant, k)
}

// BoolExpr is a parsed boolean query (§3.2 query language).
type BoolExpr = ir.BoolExpr

// ParseBoolQuery parses the §3.2 boolean query language: terms combined
// with AND, OR and parentheses, e.g. "information AND (storing OR
// retrieval)"; bare adjacency is conjunction.
func ParseBoolQuery(q string) (BoolExpr, error) { return ir.ParseBoolQuery(q) }

// Relational engine surface, for applications that want to build their own
// vectorized plans (see examples/analytics).
type (
	// Operator is the vectorized open/next/close iterator.
	Operator = engine.Operator
	// ExecContext carries the vector size.
	ExecContext = engine.ExecContext
)

// Explain renders an executed plan annotated with profiling counters.
func Explain(op Operator) string { return engine.Explain(op) }

// Compression surface (see examples/compression).
type (
	// Block is a compressed block in the Figure 2 layout.
	Block = compress.Block
	// CompressionLayout selects the patched or naive decoder discipline.
	CompressionLayout = compress.Layout
)

// Compression layouts.
const (
	Patched = compress.Patched
	Naive   = compress.Naive
)

// EncodePFOR compresses values with patched frame-of-reference coding.
func EncodePFOR(vals []int64, bits uint, base int64, layout CompressionLayout) (*Block, error) {
	return compress.EncodePFOR(vals, bits, base, layout)
}

// EncodePFORDelta compresses sorted-ish values via deltas.
func EncodePFORDelta(vals []int64, bits uint, base int64, layout CompressionLayout) (*Block, error) {
	return compress.EncodePFORDelta(vals, bits, base, layout)
}

// EncodePDictAuto dictionary-compresses skewed values.
func EncodePDictAuto(vals []int64, layout CompressionLayout) (*Block, error) {
	return compress.EncodePDictAuto(vals, layout)
}

// DecodeBlock decompresses a whole block.
func DecodeBlock(bl *Block, out []int64) error { return compress.Decode(bl, out) }

// Distributed execution surface (see examples/distributed).
type (
	// Cluster is a set of partition servers on loopback TCP.
	Cluster = dist.Cluster
	// Broker fans queries out to a cluster and merges top-k results.
	Broker = dist.Broker
	// ClusterTiming reports one broadcast query's total and per-server
	// response times.
	ClusterTiming = dist.Timing
	// ClusterRequest is one query of a broker batch (Broker.SearchMany
	// ships a whole batch in one round trip per server).
	ClusterRequest = dist.Request
	// ClusterOption tunes cluster startup (the replication factor).
	ClusterOption = dist.ClusterOption
	// BrokerOption tunes a broker at dial time (hedge budget).
	BrokerOption = dist.BrokerOption
)

// WithClusterReplicas serves every partition range with r servers instead
// of one: replica 0 serves the partition directory and each other replica
// its own directory copy. The extra replicas change no
// ranking — they give a group-aware broker (Cluster.NewBroker) hedge
// targets and failover capacity.
func WithClusterReplicas(r int) ClusterOption { return dist.WithReplicas(r) }

// WithHedging arms hedged fan-out on a broker dialed over replica groups:
// a partition whose primary replica has not answered within 4x its
// group's recent median latency has its batch slice re-issued to the
// next-best replica, first answer wins, loser canceled. A group does not
// hedge until it has 32 samples, and at most 5% of its calls hedge.
// Timing.Hedged / dist.RunStats.Hedged count the hedges that fired.
func WithHedging() BrokerOption { return dist.WithHedging() }

// WithPartialResults opts a broker into degraded answers: when a whole
// replica group is down, surviving partitions answer and every result is
// flagged Degraded instead of the batch failing.
func WithPartialResults() BrokerOption { return dist.WithPartialResults() }

// StartCluster partitions a collection across n TCP partition ranges
// (each served by WithClusterReplicas servers; one by default), built into
// a temporary directory the cluster owns and removes on Close, every
// replica served through an unbounded buffer pool.
func StartCluster(c *Collection, n int, opts ...ClusterOption) (*Cluster, error) {
	return dist.StartCluster(c, n, opts...)
}

// BuildPartitions builds the collection's n partition indexes with global
// statistics and persists each under baseDir/part-<i>; the returned
// directories feed StartClusterFromDirs (possibly in another process —
// the point is that no corpus re-parsing happens at serve time).
func BuildPartitions(c *Collection, n int, baseDir string) ([]string, error) {
	return dist.BuildPartitions(c, n, DefaultIndexConfig(), baseDir)
}

// StartClusterFromDirs serves persisted partition directories, each
// replica through a buffer manager of its own with poolBytes budget (0 =
// unbounded). Under WithClusterReplicas(r), replica i > 0 of a partition
// serves its own copy <dir>-r<i> (hardlinked on first start, reused
// after). On partitions from BuildLivePartitions, Broker.Add routes
// document batches to the least-loaded partition, whose primary commits
// them as a new index generation; the group's other replicas pull the
// committed segment files from it, install and refresh without dropping
// in-flight searches. Queries through the broker pin the highest
// generation it has observed per partition — a replica still behind
// refuses (and the broker fails over) rather than answering with missing
// documents, so a reader always sees its own writes.
func StartClusterFromDirs(dirs []string, poolBytes int64, opts ...ClusterOption) (*Cluster, error) {
	return dist.StartClusterFromDirs(dirs, poolBytes, opts...)
}

// BuildLivePartitions lays out n live-ingest partition directories under
// baseDir, each owning a strided docid range, seeded with contiguous
// slices of the collection (a partition may start empty — Broker.Add
// fills it). Unlike dist.BuildSegmentedPartitions the directories carry
// partition-local statistics that recompute as appends land, the
// property that lets the cluster ingest without a global-statistics
// coordinator; with a single partition (any replica count) local
// statistics are exactly global and distributed rankings stay
// bit-identical to a centralized engine's.
func BuildLivePartitions(c *Collection, n int, baseDir string) ([]string, error) {
	return dist.BuildLivePartitions(c, n, baseDir)
}

// Storage surface: the BlockStore/ChunkCache contracts, their simulated
// and persistent implementations, and the on-disk index format.
type (
	// BlockStore stores named column blobs read with large sequential
	// requests (SimDisk simulates one, storage.FileStore is real files).
	BlockStore = colbm.BlockStore
	// ChunkCache caches compressed column chunks; BufferManager implements it.
	ChunkCache = colbm.ChunkCache
	// DiskParams models seek latency and sequential bandwidth.
	DiskParams = colbm.DiskParams
	// SimDisk is the virtual-clock disk that stores column blobs.
	SimDisk = colbm.SimDisk
	// BufferManager is the ColumnBM buffer manager: compressed chunks in
	// RAM under a byte budget, clock eviction, singleflight fetches.
	BufferManager = colbm.Manager
	// Table is a stored columnar table.
	Table = colbm.Table
	// TableBuilder bulk-builds a Table.
	TableBuilder = colbm.Builder
	// ColumnSpec describes one stored column.
	ColumnSpec = colbm.ColumnSpec
)

// Column encodings.
const (
	EncPFOR = colbm.EncPFOR
)

// Physical types.
const (
	TypeInt64   = vector.Int64
	TypeFloat64 = vector.Float64
	TypeStr     = vector.Str
)

// DefaultDiskParams approximates the paper's 12-disk RAID.
func DefaultDiskParams() DiskParams { return colbm.DefaultDiskParams() }

// NewSimDisk returns an empty virtual-clock disk.
func NewSimDisk(p DiskParams) *SimDisk { return colbm.NewSimDisk(p) }

// NewBufferManager returns a buffer manager with the given byte budget
// (0 = unbounded): CLOCK eviction, and chunks enter only when a reader
// demands them.
func NewBufferManager(budget int64) *BufferManager { return colbm.NewManager(budget) }

// NewTableBuilder starts a bulk table build over any store/cache pair
// (SimDisk for simulation, storage.FileStore for real persistence, a
// BufferManager in front of either).
func NewTableBuilder(name string, store BlockStore, cache ChunkCache, specs []ColumnSpec) *TableBuilder {
	return colbm.NewBuilder(name, store, cache, specs)
}

// SaveIndex persists an index into dir as a one-segment index directory
// (SEGMENTS.json over seg-000001/). The super-manifest is written last, so
// an interrupted save is never mistaken for a valid index. An index built
// with its own statistics yields an ordinary directory that Engine.Add
// can grow; one built with a statistics override (IndexConfig.Stats, the
// dist partition path) is marked read-only.
func SaveIndex(dir string, ix *Index) error {
	return storage.WriteSegmentedIndex(dir, []*Index{ix})
}

// ErrNotSingleSegment is matched by LoadIndex's error for a directory that
// has grown past one segment; serve such a directory with OpenDir.
var ErrNotSingleSegment = errors.New("repro: index directory does not hold exactly one segment")

// LoadIndex opens the sole segment of a one-segment index directory (what
// SaveIndex writes) for querying: the manifests are read eagerly, posting
// data streams in lazily through a buffer manager with the given byte
// budget (0 = unbounded). Close the returned index when done, or wrap the
// directory with OpenDir and let Engine.Close do it.
func LoadIndex(dir string, poolBytes int64) (*Index, error) {
	snap, err := storage.OpenSegmented(dir, colbm.NewManager(poolBytes))
	if err != nil {
		return nil, err
	}
	if n := snap.NumSegments(); n != 1 {
		snap.Close()
		return nil, fmt.Errorf("repro: LoadIndex(%q): %d segments: %w", dir, n, ErrNotSingleSegment)
	}
	return snap.Primary(), nil
}

// AppendSegment indexes a batch of live documents into one fresh segment
// of the index directory (creating the directory on first use) and
// commits a new generation — the offline counterpart of Engine.Add for
// ingest pipelines that run without a serving engine. Readers pick the new
// generation up via Engine.Refresh (or the next OpenDir).
func AppendSegment(dir string, docs []Doc) error {
	batch, err := corpus.FromDocs(docs)
	if err != nil {
		return err
	}
	_, err = storage.AppendSegment(dir, batch, nil)
	return err
}

// Relational operators and expressions, re-exported so applications can
// assemble Figure-1-style plans directly (see examples/analytics).
type (
	// Projection names one Project output column.
	Projection = engine.Projection
	// Expr is a vectorized scalar expression.
	Expr = engine.Expr
	// Predicate is a vectorized filter.
	Predicate = engine.Predicate
	// AggSpec describes one aggregate output.
	AggSpec = engine.AggSpec
	// OrderSpec is one sort key.
	OrderSpec = engine.OrderSpec
	// ArithOp enumerates arithmetic operators.
	ArithOp = engine.ArithOp
	// CmpIntColVal compares an Int64 column against a constant.
	CmpIntColVal = engine.CmpIntColVal
	// ConstFloat is a float literal expression.
	ConstFloat = engine.ConstFloat
)

// Arithmetic operators.
const (
	OpMul = engine.Mul
)

// Aggregate functions.
const (
	AggSum   = engine.AggSum
	AggCount = engine.AggCount
)

// Comparison operators.
const (
	CmpLT = engine.LT
)

// NewColRef references an input column in an expression.
func NewColRef(name string) Expr { return engine.NewColRef(name) }

// NewArith combines two expressions with an arithmetic operator.
func NewArith(op ArithOp, l, r Expr) Expr { return engine.NewArith(op, l, r) }

// NewToFloat widens an integer expression to Float64.
func NewToFloat(arg Expr) Expr { return engine.NewToFloat(arg) }

// Batch is a horizontal slice of vectors with an optional selection.
type Batch = vector.Batch
