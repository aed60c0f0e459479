// Package colbm implements ColumnBM, the column-oriented buffer manager
// and storage layer of MonetDB/X100 as described in the paper: columns
// are stored as sequences of multi-megabyte compressed blocks, disk
// accesses are large and sequential to maximize bandwidth, blocks stay
// compressed in RAM, and decompression happens on demand at vector
// granularity, directly into CPU-cache-sized buffers feeding the operator
// pipeline.
//
// # Contracts
//
// The package defines the two storage contracts every layer above reads
// through, so cursors, operators, and search plans are storage-agnostic:
//
//   - BlockStore — named column blobs, read with large sequential
//     requests. SimDisk (here) is the deterministic virtual-clock model
//     the paper-reproduction experiments use: reads advance a simulated
//     clock by seek latency plus size/bandwidth, without sleeping, so
//     cold-run times can be reported as measured CPU time plus simulated
//     I/O time. storage.FileStore is the real counterpart, doing large
//     aligned sequential reads against files on disk.
//   - ChunkCache — compressed column chunks cached in RAM under a byte
//     budget. Manager (here) is the ColumnBM buffer manager every index
//     reads through, over SimDisk or FileStore alike: one policy (CLOCK
//     eviction) and one fetch path (GetChunk, with singleflight), so a
//     chunk is loaded only when a cursor demands it. A cursor's miss reads
//     into a buffer the manager recycles from evicted chunks, and the
//     cursor pins the chunk while it decodes, so no buffer is reused under
//     a reader.
//
// # Tables, columns, cursors
//
// A Table is a named set of stored columns sharing a row count, each cut
// into chunks of its spec's length; Builder bulk-builds one, encoding each
// column per its ColumnSpec (raw, fixed-32, PFOR, PFOR-DELTA, PDICT). Readers open a
// Cursor per column: it claims compressed chunks from the ChunkCache and
// decompresses on demand into the caller's vectors. Cursor.ReadOffset
// additionally rebases docid-like columns, which is what lets a segment
// merge read postings from arbitrary source segments.
package colbm
