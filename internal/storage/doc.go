// Package storage is the persistent storage subsystem: the real
// (non-simulated) counterpart of colbm.SimDisk. Both are read through
// colbm.Manager, the one ColumnBM buffer manager; this package adds two
// pieces beneath it:
//
//   - FileStore, a colbm.BlockStore doing large aligned sequential reads
//     against real files — the paper's "disk accesses in blocks of
//     several megabytes" discipline on an actual filesystem;
//   - a versioned on-disk index format with exactly one layout: an index
//     directory is an ordered set of immutable segment subdirectories
//     (each MANIFEST.json plus one blob file per column) under a
//     generation-stamped SEGMENTS.json super-manifest. An index nobody
//     has appended to is the one-segment case. A segment stores the
//     paper's three relations as columns: TD (postings), D (documents)
//     and T (the term dictionary, with the skylines), every chunk with a
//     CRC32C its reads verify (format 2; format 1, the dictionary inside
//     the manifest and no checksums, stays readable). Opening reads only
//     the manifests and T (column files are eagerly verified to exist at
//     their recorded sizes), and posting chunks stream in through the
//     buffer manager as queries touch them.
//
// # Index directories
//
// WriteSegmentedIndex persists pre-built indexes as generation 1;
// AppendSegment indexes a document batch into one fresh segment and
// atomically commits generation+1; OpenSegmented opens every segment of
// the newest generation against the one colbm.Manager its caller hands in
// and recomputes collection-wide statistics exactly from the manifests
// (directories marked External carry statistics coordinated elsewhere and
// refuse local writers with ErrExternalStats);
// PlanMerge/BuildMergedSegment/CommitMerge implement the tiered background
// merge; PrepareSplit/CommitSplit and PrepareAbsorb/CommitAbsorb reshape
// partition ranges; SweepSegments garbage-collects directories no
// generation references. Every write of SEGMENTS.json goes through one
// commit door (commitSegments: writer lock, re-read, the caller's check,
// atomic write). An append, either split half and an absorb change the
// collection, so they move a directory owning its statistics to a new
// epoch with freshly folded quantization bounds; a merge, an install and a
// copy do not. Every mutation is a new generation sharing all unchanged
// segment directories with the old one, which is what lets the serving
// core (internal/serving) swap generations under a reference count without
// dropping in-flight searches.
//
// Segment manifests are decoded once per distinct content while a segment
// holding them is open (see manifestMemo), and a segment's writer hands
// the manifest it wrote to the memo, so a *Manifest is shared across
// generations and nobody writes into it (ir.Snapshot patches only each
// segment's Params; df is summed per query). With its generation open, an
// append or a merge decodes no manifest at all; ManifestDecodes counts the
// decodes that remain.
//
// The package sits above internal/ir in the dependency order (it persists
// and restores ir.Index values); below it, colbm defines the BlockStore
// and ChunkCache contracts and the buffer manager that both the simulated
// and the real stores are read through, so every layer in between —
// cursors, operators, search plans — is storage-agnostic.
package storage
