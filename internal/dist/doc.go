// Package dist implements the paper's §3.4 scale-out experiment (Table
// 3) and grows it into a small serving fleet: the collection is
// range-partitioned over n partitions, each partition is served by a
// *replica group* of R servers running the full single-node stack
// (ColumnBM + vectorized engine + IR plans), and a broker fans every
// query batch out to one replica per partition and merges the local
// top-k lists into the global ranking.
//
// # Correctness
//
// Two properties make the merged ranking equal the centralized one:
//
//  1. every partition index is built with the *global* collection
//     statistics (ir.GlobalStats) so BM25 scores are comparable across
//     servers — without this each node would rank by partition-local idf;
//  2. partitions are disjoint docid ranges, so merging is a simple top-k
//     union with no deduplication.
//
// Every partition server serves a partition directory: StartCluster builds
// them (BuildPartitions) into a temporary directory the cluster owns, and
// StartClusterFromDirs serves directories built elsewhere. Merging two
// such partitions keeps the global statistics they were built with.
//
// Replication adds nothing to merge correctness: replicas of a partition
// serve their own copies of the partition directory, kept at the same
// generation by pulling from a peer, so *which* replica answers never
// changes the ranking — the property failover and hedging rely on to
// re-issue work freely.
//
// # Ingest and catch-up
//
// Broker.Add appends a batch on one replica of the owning group (the
// primary), which commits it as a new generation. Every replica directory
// then catches up the same way, through one pull: fetch the source's
// committed manifest, copy the segments the local SEGMENTS.json lacks
// chunk by chunk, and install the manifest, which is the commit point.
// Broker.Add has each other group member pull from the primary (the
// verbPull request); Cluster.AddReplica pulls into the new replica's
// directory before its server starts. Segment bytes travel source to
// replica once, never through the broker, and SetShipHook observes every
// chunk of every pull.
//
// Every broker round trip — search, status probe, append, pull — goes
// through one call path, on the replica's query connection for searches
// and its ingest connection for the rest. So the append is pinned like a
// search (a replica behind the partition's pinned generation refuses it
// as Stale and the append fails over, or fails), and a replica that an
// Add cannot reach is cooled down for queries too.
//
// # Replica groups, hedging, failover
//
// Table 3's finding is that per-query latency tracks the *slowest*
// partition server. Replica groups (WithReplicas, a cluster option of
// StartCluster and StartClusterFromDirs) are the defense: the broker tracks per-replica health
// (consecutive failures open a cooldown) and a moving latency estimate
// (EWMA of response times), rotates primaries round-robin to spread load,
// and
//
//   - *hedges*: with WithHedging, when a partition's primary has not
//     answered within 4x the group's recent median, the same batch slice
//     is re-issued to the next-best replica and whichever answer lands
//     first wins — the loser is canceled;
//   - *fails over*: a replica connection breaking mid-query re-issues the
//     slice on the next live replica of the group transparently. Only
//     when every replica of a group has failed does the batch error, and
//     the error says which partition died.
//
// Queries are read-only, so re-issuing is always safe; the wire protocol
// still guards against a desynchronized connection delivering a *stale*
// reply to a retried request: every request carries a sequence number the
// server echoes, and a mismatched echo drops the connection instead of
// returning another request's answer. Timing.Hedged/Retried (and the
// RunStats aggregates of the same names) count both mechanisms, so
// experiments can report exactly how often the tail defense fired.
//
// # Transport
//
// Transport is loopback TCP with gob framing — honest socket round-trips
// (the latency the paper's Table 3 measures is dominated by the slowest
// server, not the wire), while staying inside the standard library. One
// wireRequest carries a whole query batch; servers execute batches
// concurrently through their serving core (internal/serving — the same
// pipeline and searcher pool a repro.Engine runs on) and honor the
// forwarded remainder of the client's deadline. The package is designed against the
// context-aware API: Broker.SearchContext/SearchMany compose client-side
// cancellation with the server-side pools.
package dist
