package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/corpus"
	"repro/internal/storage"
)

// Doc is one live document for distributed ingest, mirroring the
// engine-side type.
type Doc = corpus.Doc

// shipChunk is the pull transfer unit: one verbFetch from the source per
// chunk. Small enough that a pull never monopolizes the source connection
// for long, large enough that a segment is a handful of round trips.
const shipChunk = 256 << 10

// AddStats reports one distributed Add: where the batch landed and what
// replication it triggered.
type AddStats struct {
	// Partition is the group the batch was routed to; Gen the generation
	// its primary committed; Segment the new segment's directory name.
	Partition int
	Gen       uint64
	Segment   string
	// Docs is the batch size; TotalDocs the partition's document count
	// after the commit (the routing signal).
	Docs      int
	TotalDocs int
	// Replicated counts group members at generation Gen when Add
	// returned (the primary included); Lagging counts members that could
	// not be brought up to date (down, or their pull failed). A lagging
	// replica cannot corrupt results — queries and appends pin Gen, so it
	// refuses with Stale until it catches up on a later Add or refresh.
	Replicated int
	Lagging    int
	// ShippedFiles/ShippedBytes count segment file data the other group
	// members pulled from the primary (zero when every replica was
	// already current).
	ShippedFiles int
	ShippedBytes int64
}

// pull brings the partition directory dir up to the committed generation
// of the server behind src: it fetches the source's manifest, ships every
// segment dir's own SEGMENTS.json lacks chunk by chunk (calling hook, when
// set, before each chunk is written — an error aborts the pull there),
// and commits the manifest through install(dir, manifest). Nothing before
// install commits: an aborted pull leaves at most partial segment
// directories no manifest references, which the next pull re-ships.
func pull(ctx context.Context, src *srvConn, dir string, hook func(seg, file string, off int64) error,
	install func(dir string, manifest []byte) (uint64, error)) (wirePullResult, error) {
	var res wirePullResult
	resp, err := src.roundTrip(ctx, wireRequest{Verb: verbManifest})
	if err != nil {
		return res, err
	}
	manifest := resp.Data
	names, err := storage.ManifestSegNames(manifest)
	if err != nil {
		return res, err
	}
	have := make(map[string]bool)
	switch sm, err := storage.ReadSegments(dir); {
	case err == nil:
		for _, name := range sm.Names() {
			have[name] = true
		}
	case !errors.Is(err, os.ErrNotExist):
		return res, err
	}
	for _, seg := range names {
		if have[seg] {
			continue
		}
		resp, err := src.roundTrip(ctx, wireRequest{Verb: verbFetch, Fetch: &wireFetch{Seg: seg}})
		if err != nil {
			return res, err
		}
		for _, f := range resp.Files {
			// A zero-length file is one empty chunk: it must still exist.
			for off := int64(0); off == 0 || off < f.Size; off += shipChunk {
				n := int(min(shipChunk, f.Size-off))
				var data []byte
				if n > 0 {
					r, err := src.roundTrip(ctx, wireRequest{Verb: verbFetch,
						Fetch: &wireFetch{Seg: seg, File: f.Name, Off: off, Len: n}})
					if err != nil {
						return res, err
					}
					if len(r.Data) != n {
						return res, fmt.Errorf("dist: %s: short fetch of %s/%s at %d: %d of %d bytes",
							src.addr, seg, f.Name, off, len(r.Data), n)
					}
					data = r.Data
				}
				if hook != nil {
					if err := hook(seg, f.Name, off); err != nil {
						return res, err
					}
				}
				if err := storage.WriteSegmentFileChunk(dir, seg, f.Name, off, data); err != nil {
					return res, err
				}
				res.Bytes += int64(len(data))
			}
			res.Files++
		}
	}
	res.Gen, err = install(dir, manifest)
	return res, err
}

// status asks replica ri of partition gi where it stands (generation,
// docid range, ingest capability), through the call path.
func status(ctx context.Context, m *membership, gi, ri int) (*wireStatus, error) {
	rep := call(ctx, m, gi, wireRequest{Verb: verbStatus}, callPolicy{order: m.groups[gi].replicas[ri : ri+1]})
	if rep.err != nil {
		return nil, rep.err
	}
	if rep.resp.Status == nil {
		return nil, fmt.Errorf("dist: %s: status reply with no payload", rep.r.conn.addr)
	}
	return rep.resp.Status, nil
}

// Add routes one document batch to the owning partition and replicates
// the commit: the partition's primary indexes the batch as a new
// committed generation, and each of the group's other replicas pulls the
// segment files it lacks straight from the primary, installs the
// primary's manifest and refreshes without dropping in-flight searches.
// The owning partition is
// the ingest-capable group with the fewest documents (appends balance
// across partitions; a partition's docid range is fixed at cluster
// build, so growth lands where there is room). The broker's generation
// table is ratcheted to the new commit before Add returns, so every
// subsequent query through this broker pins a generation that includes
// the batch — read-your-writes.
//
// Every round trip goes through the broker's one call path, so it feeds
// replica health like a query does, and the append is pinned like a
// query: a replica behind the partition's pinned generation refuses it
// as Stale, so a batch never commits on a directory that lacks one the
// broker already acknowledged. Add succeeds when any reachable replica
// of the owning group commits the batch. Replicas that cannot be brought
// current (down, mid-revival, failed pull) are reported in
// AddStats.Lagging, not errors: generation pinning already guarantees
// they refuse queries and appends until they catch up, which happens on
// the next Add to the group (its pull ships whatever the replica's
// directory lacks) or on their own refresh.
func (b *Broker) Add(ctx context.Context, docs []Doc) (AddStats, error) {
	var stats AddStats
	if len(docs) == 0 {
		return stats, errors.New("dist: Add with no documents")
	}
	// Pin the membership across route + append + replicate: a topology
	// swap mid-Add waits for this Add to finish (or lands afterwards),
	// never half-applies to it. A sealed membership (range-op commit
	// window) parks the Add until the new layout publishes.
	m, err := b.acquireMem(ctx)
	if err != nil {
		return stats, err
	}
	defer m.release()

	// Route: least-loaded ingest-capable partition; a partition with every
	// replica unreachable is simply not a candidate.
	gi, reachable, err := b.route(ctx, m)
	if err != nil {
		return stats, err
	}
	stats.Partition = gi
	stats.Docs = len(docs)

	g := m.groups[gi]
	g.addMu.Lock()
	defer g.addMu.Unlock()

	// Append on the first reachable replica, in replica-index order, that
	// takes it — a dead primary fails over to the next group member,
	// which becomes the pull source.
	wdocs := make([]wireDoc, len(docs))
	for i, d := range docs {
		wdocs[i] = wireDoc{Name: d.Name, Tokens: d.Tokens}
	}
	rep := call(ctx, m, gi, wireRequest{Verb: verbAppend, Append: &wireAppend{Docs: wdocs}},
		callPolicy{pin: true, order: reachable})
	if rep.err != nil {
		return stats, fmt.Errorf("dist: partition %d: append: %w", gi, rep.err)
	}
	res := rep.resp.Append
	if res == nil {
		return stats, fmt.Errorf("dist: %s: append reply with no payload", rep.r.conn.addr)
	}
	stats.Gen = res.Gen
	stats.Segment = res.Seg
	stats.TotalDocs = res.NumDocs
	stats.Replicated = 1

	// Replicate: every other group member pulls the segments its directory
	// lacks straight from the primary and installs the primary's manifest.
	from := &wirePull{From: rep.r.conn.addr}
	for ri, r := range g.replicas {
		if r == rep.r {
			continue
		}
		pr := call(ctx, m, gi, wireRequest{Verb: verbPull, Pull: from}, callPolicy{order: g.replicas[ri : ri+1]})
		if pr.err != nil || pr.resp.Pull == nil || pr.resp.Pull.Gen < res.Gen {
			if ctx.Err() != nil {
				return stats, ctx.Err()
			}
			stats.Lagging++
			continue
		}
		stats.Replicated++
		stats.ShippedFiles += pr.resp.Pull.Files
		stats.ShippedBytes += pr.resp.Pull.Bytes
	}
	return stats, nil
}

// route picks the owning partition for a new batch: among groups with at
// least one reachable ingest-capable replica, the one serving the fewest
// documents. Partitions frozen for a range operation are skipped — no
// commit may land between a split/merge prepare and its commit. Returns
// the group index and its reachable ingest replicas in replica-index
// order.
func (b *Broker) route(ctx context.Context, m *membership) (int, []*replica, error) {
	bestGi, bestDocs := -1, 0
	var best []*replica
	var lastErr error
	frozen := 0
	for gi, g := range m.groups {
		if g.frozen {
			frozen++
			continue
		}
		var reachable []*replica
		docs := 0
		for ri, r := range g.replicas {
			ws, err := status(ctx, m, gi, ri)
			if err != nil {
				lastErr = err
				if ctx.Err() != nil {
					return -1, nil, ctx.Err()
				}
				continue
			}
			if !ws.Ingest {
				continue
			}
			reachable = append(reachable, r)
			if ws.NumDocs > docs {
				docs = ws.NumDocs // replicas may be skewed; size by the freshest
			}
		}
		if len(reachable) == 0 {
			continue
		}
		if bestGi < 0 || docs < bestDocs {
			bestGi, bestDocs, best = gi, docs, reachable
		}
	}
	if bestGi < 0 {
		if lastErr != nil {
			return -1, nil, fmt.Errorf("dist: no ingest-capable partition reachable: %w", lastErr)
		}
		if frozen == len(m.groups) {
			return -1, nil, errors.New("dist: every partition is frozen for a split or merge; retry once it commits")
		}
		return -1, nil, fmt.Errorf("dist: no partition takes appends: %w", storage.ErrExternalStats)
	}
	return bestGi, best, nil
}

// PartitionGens reports the broker's generation table: the highest
// generation it has seen each partition commit or answer at (what new
// queries will pin).
func (b *Broker) PartitionGens() []uint64 {
	m := b.mem.Load()
	if m == nil {
		return nil
	}
	out := make([]uint64, len(m.gens))
	for i := range m.gens {
		out[i] = m.gens[i].Load()
	}
	return out
}

// WaitConverged polls every replica of every partition until each one's
// serving generation reaches the broker's pinned generation for its
// partition (or the context expires) — test and operations support for
// "has the cluster caught up with everything this broker ingested".
func (b *Broker) WaitConverged(ctx context.Context) error {
	for {
		m, err := b.acquireMem(ctx)
		if err != nil {
			return err
		}
		behind := ""
		for gi, g := range m.groups {
			want := m.gens[gi].Load()
			if want == 0 {
				continue
			}
			for ri, r := range g.replicas {
				ws, err := status(ctx, m, gi, ri)
				if err != nil {
					behind = fmt.Sprintf("%s: %v", r.conn.addr, err)
					continue
				}
				if ws.Gen < want {
					behind = fmt.Sprintf("%s at generation %d, want %d", r.conn.addr, ws.Gen, want)
				}
			}
		}
		m.release()
		if behind == "" {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("dist: not converged (%s): %w", behind, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}
