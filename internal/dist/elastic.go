package dist

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/colbm"
	"repro/internal/storage"
)

// Elastic cluster operations: the reconfiguration steps a topology
// reconciler composes to move a live ingest cluster from one shape to
// another — add a replica by pulling the partition from a live peer,
// retire one with drain-then-close, move one between hosts, split a
// partition's docid range at a segment boundary, or merge an adjacent
// partition back in by rewriting its segments' docid bases.
// Every step keeps the cluster serving: replica-set changes go through
// Broker.Retarget (no barrier — the ranges are unchanged), and range
// changes bracket their single atomic manifest commit with a broker seal,
// so no query ever runs against a half-committed layout.
//
// Elastic state lives in the partition directories every server serves.
// The operations are serialized per cluster; each is resumable — killed
// between prepare and commit it leaves the cluster exactly as it was, and
// a re-run converges on the same deterministic destination directories.

// elasticDir is the deterministic destination for a cluster-owned
// partition copy: one directory per (docid base, host), so a reconciler
// re-running an interrupted step resumes into the same directory instead
// of orphaning the first attempt.
func (cl *Cluster) elasticDir(lo int64, host string) string {
	return filepath.Join(cl.baseDir, fmt.Sprintf("elastic-lo%d-%s", lo, host))
}

// retargetAll rebinds every broker to the given replica layout.
func retargetAll(brokers []*Broker, groups [][]string) error {
	var first error
	for _, b := range brokers {
		if err := b.Retarget(groups); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// freezeAll freezes Add routing for partitions ps (of n) on every broker;
// indexes outside [0, n) are ignored.
func freezeAll(ctx context.Context, brokers []*Broker, n int, ps ...int) error {
	frozen := make([]bool, n)
	for _, p := range ps {
		if p >= 0 && p < n {
			frozen[p] = true
		}
	}
	for _, b := range brokers {
		if err := b.freeze(ctx, frozen); err != nil {
			return err
		}
	}
	return nil
}

func unfreezeAll(brokers []*Broker) {
	for _, b := range brokers {
		b.freeze(context.Background(), nil)
	}
}

// AddReplica grows partition p's replica group by one: the partition's
// current committed state is pulled over the wire from a live group
// member into a fresh cluster-owned directory on the given host (the
// same pull every replica runs to catch up during an Add, so a torn ship
// can never serve: the install verifies every referenced file before
// committing), a server starts on it, and every given broker is
// retargeted to the grown group. Queries and Adds keep flowing
// throughout; the new replica answers as soon as retarget publishes it.
// An empty host picks the next free default label. The pull repeats
// until the source stands still, so a replica added under live ingest
// starts current, not a generation behind.
func (cl *Cluster) AddReplica(ctx context.Context, p int, host string, brokers ...*Broker) error {
	cl.elastic.Lock()
	defer cl.elastic.Unlock()

	cl.mu.Lock()
	if p < 0 || p >= len(cl.slots) {
		cl.mu.Unlock()
		return fmt.Errorf("dist: partition %d out of range", p)
	}
	src := cl.slots[p][0]
	for _, sl := range cl.slots[p] {
		if !sl.srv.isClosed() {
			src = sl
			break
		}
	}
	if host == "" {
		host = fmt.Sprintf("h%d", len(cl.slots[p]))
	}
	for _, sl := range cl.slots[p] {
		if sl.host == host {
			cl.mu.Unlock()
			return fmt.Errorf("dist: partition %d already has a replica on host %s", p, host)
		}
	}
	cl.mu.Unlock()

	lo, err := partitionLo(src.dir)
	if err != nil {
		return err
	}
	dst := cl.elasticDir(lo, host)
	sc := &srvConn{addr: src.addr}
	defer sc.close()
	// The source may commit more while a pull ships: pull again until a
	// pull ends at the generation the previous one installed.
	for tries, last := 0, uint64(0); ; tries++ {
		res, err := pull(ctx, sc, dst, cl.hook.load(), storage.InstallManifest)
		if err != nil {
			return err
		}
		if tries > 0 && res.Gen == last {
			break
		}
		if tries >= 32 {
			return fmt.Errorf("dist: replica %s cannot catch up with %s", dst, src.addr)
		}
		last = res.Gen
	}

	srv, err := serveSegmentedDir(dst, "127.0.0.1:0", colbm.NewManager(cl.poolBytes), cl.hook)
	if err != nil {
		return err
	}

	cl.mu.Lock()
	warm := cl.warmReplica
	cl.mu.Unlock()
	if warm != nil {
		if err := warm(srv); err != nil {
			srv.Close()
			os.RemoveAll(dst)
			return fmt.Errorf("dist: warming replica %s: %w", dst, err)
		}
	}

	cl.mu.Lock()
	cl.slots[p] = append(cl.slots[p],
		&slotMeta{srv: srv, addr: srv.Addr(), dir: dst, host: host, owned: true})
	groups := cl.currentGroupsLocked()
	cl.mu.Unlock()
	return retargetAll(brokers, groups)
}

// RetireReplica shrinks partition p's replica group by removing slot r:
// brokers are retargeted away first, then the server drains its in-flight
// requests and closes, and a cluster-owned directory is deleted. The last
// replica of a partition cannot be retired — that would lose the range.
func (cl *Cluster) RetireReplica(ctx context.Context, p, r int, brokers ...*Broker) error {
	cl.elastic.Lock()
	defer cl.elastic.Unlock()
	return cl.retireLocked(ctx, p, r, brokers...)
}

func (cl *Cluster) retireLocked(ctx context.Context, p, r int, brokers ...*Broker) error {
	cl.mu.Lock()
	if p < 0 || p >= len(cl.slots) || r < 0 || r >= len(cl.slots[p]) {
		cl.mu.Unlock()
		return fmt.Errorf("dist: partition %d replica %d out of range", p, r)
	}
	if len(cl.slots[p]) == 1 {
		cl.mu.Unlock()
		return fmt.Errorf("dist: partition %d has a single replica; retiring it would lose the range", p)
	}
	sl := cl.slots[p][r]
	cl.slots[p] = append(append([]*slotMeta{}, cl.slots[p][:r]...), cl.slots[p][r+1:]...)
	groups := cl.currentGroupsLocked()
	cl.mu.Unlock()
	if err := retargetAll(brokers, groups); err != nil {
		return err
	}
	if err := sl.srv.Drain(ctx); err != nil {
		return err
	}
	if err := sl.srv.Close(); err != nil {
		return err
	}
	if sl.owned {
		return os.RemoveAll(sl.dir)
	}
	return nil
}

// MoveReplica relocates partition p's replica r onto another host:
// add-then-retire, so the group never dips below its size and serving
// never pauses. The retire index is still r — AddReplica appends.
func (cl *Cluster) MoveReplica(ctx context.Context, p, r int, host string, brokers ...*Broker) error {
	if err := cl.AddReplica(ctx, p, host, brokers...); err != nil {
		return err
	}
	return cl.RetireReplica(ctx, p, r, brokers...)
}

// SplitPartition splits partition p's docid range at a segment boundary:
// everything at or past docid at moves to a new partition served by a
// fresh server on the same host. The heavy half (hardlinking the upper
// segments into the new directory) happens before any barrier; the
// commit — one manifest write shrinking the left directory — runs inside
// a broker seal, so every query either completes against the pre-split
// layout or starts against the post-split one. Add routing to p is frozen
// for the duration so no commit can land between prepare and commit.
// The partition must be down to one replica (retire first); re-add
// replicas to the halves afterwards.
func (cl *Cluster) SplitPartition(ctx context.Context, p int, at int64, brokers ...*Broker) error {
	cl.elastic.Lock()
	defer cl.elastic.Unlock()

	cl.mu.Lock()
	if p < 0 || p >= len(cl.slots) {
		cl.mu.Unlock()
		return fmt.Errorf("dist: partition %d out of range", p)
	}
	if len(cl.slots[p]) != 1 {
		cl.mu.Unlock()
		return fmt.Errorf("dist: partition %d has %d replicas; a split needs exactly one (retire the others first)",
			p, len(cl.slots[p]))
	}
	left := cl.slots[p][0]
	n := len(cl.slots)
	cl.mu.Unlock()

	if err := freezeAll(ctx, brokers, n, p); err != nil {
		return err
	}
	fail := func(err error) error {
		unfreezeAll(brokers)
		return err
	}

	// Prepare the right half — unless a previous run already committed the
	// split on disk and died before publishing it (resume: the left
	// directory then holds nothing at or past the split point, and the
	// right half must already exist).
	rightDir := cl.elasticDir(at, left.host)
	sm, err := storage.ReadSegments(left.dir)
	if err != nil {
		return fail(err)
	}
	needPrep := false
	for _, e := range sm.Segments {
		if e.DocBase >= at {
			needPrep = true
			break
		}
	}
	if needPrep {
		if err := storage.PrepareSplit(left.dir, rightDir, at); err != nil {
			return fail(err)
		}
	} else if _, err := storage.ReadSegments(rightDir); err != nil {
		return fail(fmt.Errorf("dist: partition %d already split below %d but right half %s is missing",
			p, at, rightDir))
	}
	rsrv, err := serveSegmentedDir(rightDir, "127.0.0.1:0", colbm.NewManager(cl.poolBytes), cl.hook)
	if err != nil {
		return fail(err)
	}

	// Seal every broker around the commit: in-flight calls drain, new ones
	// park until the post-split layout is published.
	sealed := make([]*membership, 0, len(brokers))
	abort := func(err error) error {
		for i, old := range sealed {
			brokers[i].unseal(old, nil)
		}
		rsrv.Close()
		return fail(err)
	}
	for _, b := range brokers {
		old, err := b.seal(ctx)
		if err != nil {
			return abort(err)
		}
		sealed = append(sealed, old)
	}
	if _, err := storage.CommitSplit(left.dir, at); err != nil {
		return abort(err)
	}
	if err := left.srv.core.Refresh(); err != nil {
		// The commit landed but the left server still serves the pre-split
		// epoch, which covers the full range — reverting the brokers keeps
		// answers complete, and a re-run resumes at the commit.
		return abort(err)
	}

	cl.mu.Lock()
	rslot := &slotMeta{srv: rsrv, addr: rsrv.Addr(), dir: rightDir, host: left.host, owned: true}
	next := make([][]*slotMeta, 0, len(cl.slots)+1)
	next = append(next, cl.slots[:p+1]...)
	next = append(next, []*slotMeta{rslot})
	next = append(next, cl.slots[p+1:]...)
	cl.slots = next
	groups := cl.currentGroupsLocked()
	cl.mu.Unlock()

	// Publish the split layout to every sealed broker: existing partitions
	// keep their generation-pinning entries (pointer identity), the new
	// right partition starts a fresh one.
	var firstErr error
	for i, b := range brokers {
		old := sealed[i]
		gens := make([]*atomic.Uint64, 0, len(old.gens)+1)
		gens = append(gens, old.gens[:p+1]...)
		gens = append(gens, &atomic.Uint64{})
		gens = append(gens, old.gens[p+1:]...)
		nm, err := b.newMembership(groups, old, gens, nil)
		if err != nil {
			// Dialing the just-started local server failed — publish the old
			// layout rather than deadlocking parked calls; the error reports
			// the broker as out of sync.
			b.unseal(old, nil)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		b.unseal(old, nm)
	}
	// Reclaim the left directory's dropped segments (and their cached
	// chunks) once no serving generation references them; the data lives on
	// as hardlinks in the right half.
	left.srv.core.Sweep()
	return firstErr
}

// MergePartitions merges partition p+1 back into partition p: the
// source's segments are streamed into one fresh destination segment with
// their docid bases rewritten to follow the destination's last document
// (the heavy half, before any barrier), then the commit — one manifest
// write splicing the segment in, compare-and-swapped against both
// directories — runs inside a broker seal, the brokers drop the absorbed
// group, and its servers retire. Both partitions must be down to one
// replica, and Add routing to both is frozen for the duration.
func (cl *Cluster) MergePartitions(ctx context.Context, p int, brokers ...*Broker) error {
	cl.elastic.Lock()
	defer cl.elastic.Unlock()

	cl.mu.Lock()
	if p < 0 || p+1 >= len(cl.slots) {
		cl.mu.Unlock()
		return fmt.Errorf("dist: cannot merge partition %d with its right neighbor: out of range", p)
	}
	if len(cl.slots[p]) != 1 || len(cl.slots[p+1]) != 1 {
		cl.mu.Unlock()
		return fmt.Errorf("dist: partitions %d and %d must each have one replica to merge (retire the others first)",
			p, p+1)
	}
	dst, src := cl.slots[p][0], cl.slots[p+1][0]
	n := len(cl.slots)
	cl.mu.Unlock()

	if err := freezeAll(ctx, brokers, n, p, p+1); err != nil {
		return err
	}
	fail := func(err error) error {
		unfreezeAll(brokers)
		return err
	}

	prep, err := storage.PrepareAbsorb(dst.dir, src.dir, func() bool { return ctx.Err() != nil })
	if err != nil {
		return fail(err)
	}

	sealed := make([]*membership, 0, len(brokers))
	abort := func(err error) error {
		for i, old := range sealed {
			brokers[i].unseal(old, nil)
		}
		return fail(err)
	}
	for _, b := range brokers {
		old, err := b.seal(ctx)
		if err != nil {
			prep.Abandon()
			return abort(err)
		}
		sealed = append(sealed, old)
	}
	if _, err := storage.CommitAbsorb(prep); err != nil {
		return abort(err)
	}
	// The commit landed: publish the merged layout even if the local
	// refresh failed (reverting would double-count the absorbed documents
	// once dst eventually refreshes; until then dst serves the pre-merge
	// generation and the absorbed range is briefly dark).
	refreshErr := dst.srv.core.Refresh()

	cl.mu.Lock()
	nextSlots := make([][]*slotMeta, 0, len(cl.slots)-1)
	nextSlots = append(nextSlots, cl.slots[:p+1]...)
	nextSlots = append(nextSlots, cl.slots[p+2:]...)
	cl.slots = nextSlots
	groups := cl.currentGroupsLocked()
	cl.mu.Unlock()

	firstErr := refreshErr
	for i, b := range brokers {
		old := sealed[i]
		gens := make([]*atomic.Uint64, 0, len(old.gens)-1)
		gens = append(gens, old.gens[:p+1]...)
		gens = append(gens, old.gens[p+2:]...)
		nm, err := b.newMembership(groups, old, gens, nil)
		if err != nil {
			b.unseal(old, nil)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		b.unseal(old, nm)
	}

	// Retire the absorbed partition's server; its directory was only read.
	if err := src.srv.Drain(ctx); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := src.srv.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if src.owned {
		if err := os.RemoveAll(src.dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
