package ir

import (
	"context"
	"fmt"
)

// SearcherPool makes an index safe to query from many goroutines by
// recycling a fixed set of single-owner Searchers. The underlying storage
// (ColumnBM buffer pool and simulated disk) is already mutex-protected;
// what is *not* shareable is a Searcher's execution state — its
// ExecContext, operator buffers, and cursors — so concurrency is obtained
// by checking a whole Searcher out per query, never by sharing one.
//
// The pool doubles as an admission controller: at most Size() queries
// execute at once and further callers queue on the free list, which is the
// behaviour a server wants under heavy traffic (bounded memory, no
// thundering herd of plans).
type SearcherPool struct {
	free chan *Searcher
}

// NewSnapshotSearcherPool builds n searchers over a snapshot's segment set
// (vectorSize 0 = the 1024 default). n < 1 is treated as 1. All searchers
// share the snapshot's immutable segments; the engine swaps whole
// pool+snapshot pairs on Refresh rather than mutating one in place.
func NewSnapshotSearcherPool(snap *Snapshot, vectorSize, n int) *SearcherPool {
	if n < 1 {
		n = 1
	}
	p := &SearcherPool{free: make(chan *Searcher, n)}
	for i := 0; i < n; i++ {
		p.free <- NewSnapshotSearcher(snap, vectorSize)
	}
	return p
}

// Size returns the number of pooled searchers (the concurrency bound).
func (p *SearcherPool) Size() int { return cap(p.free) }

// Acquire checks a searcher out, blocking until one is free or the context
// is done. Callers must Release the searcher and must not use it after.
func (p *SearcherPool) Acquire(ctx context.Context) (*Searcher, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case s := <-p.free:
		return s, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Release returns a searcher obtained from Acquire.
func (p *SearcherPool) Release(s *Searcher) {
	select {
	case p.free <- s:
	default:
		panic(fmt.Sprintf("ir: SearcherPool.Release beyond capacity %d", cap(p.free)))
	}
}

// SearchBool checks a searcher out, runs the boolean query under the
// context, and returns the searcher to the pool. (Ranked searches go
// through the serving core's pipeline, which holds its searcher itself.)
func (p *SearcherPool) SearchBool(ctx context.Context, expr BoolExpr, k int) ([]Result, QueryStats, error) {
	s, err := p.Acquire(ctx)
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer p.Release(s)
	return s.SearchBoolContext(ctx, expr, k)
}
