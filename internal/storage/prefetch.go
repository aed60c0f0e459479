package storage

import (
	"errors"
	"sync"

	"repro/internal/colbm"
)

// prefetchQueue bounds the number of pending jobs. When the queue is full
// a run's claims are released immediately (its waiters retry through the
// demand path) and tail ranges are dropped outright, which keeps Prefetch
// non-blocking no matter how far the workers fall behind.
const prefetchQueue = 256

// maxRunBytes caps one batched read. Contiguous missing chunks beyond the
// cap split into several reads, so a pathological range cannot pin an
// arbitrarily large private buffer per worker.
const maxRunBytes = 8 << 20

// DefaultPrefetchWindow is the read-ahead window in chunks: how many
// chunks of one range may be claimed ahead of the scanning cursor at a
// time. Claiming a whole multi-gigabyte range up front would flood the
// buffer manager with data no cursor touches for seconds (and, under a
// byte budget, evict it again before use); a window keeps the read-ahead
// just ahead of the scan, bounding the memory pressure of concurrent cold
// scans to window-sized slack per range.
const DefaultPrefetchWindow = 32

// errPrefetchDropped fails the claims of a run the saturated worker set
// could not accept; demand readers waiting on them retry and load
// themselves.
var errPrefetchDropped = errors.New("storage: prefetch queue full, run dropped")

// FetchCache is the buffer-manager surface an opened directory reads
// through: demand caching, the claim/deliver protocol of batched fetches
// and the free-admission hook the prefetcher drives, and the by-prefix
// eviction segment GC drops a removed segment's chunks with. *colbm.Manager
// implements it directly; CacheView implements it over a shared manager
// with a private key namespace.
type FetchCache interface {
	colbm.ChunkCache
	BeginFetch(keys []string) []string
	EndFetch(claimed []string, chunks map[string]*colbm.CachedChunk, err error)
	Admit(key string, c *colbm.CachedChunk) bool
	DropPrefix(prefix string) int64
}

// spanReader is the optional BlockStore extension surfacing the whole
// aligned span a read touched (FileStore.ReadSpan); the prefetcher uses
// it to admit adjacent chunks from bytes already paid for.
type spanReader interface {
	ReadSpan(name string, off, size int) (data, span []byte, spanOff int, err error)
}

// Prefetcher is the manifest-driven read-ahead stage of the storage
// subsystem: searchers hand it the posting ranges a plan is about to scan,
// and the missing chunks stream in ahead of the scanning cursors —
// contiguous runs coalesced into single large sequential store reads —
// instead of being demand-paged one at a time.
//
// The split matters: Prefetch *claims* missing chunks synchronously (cheap
// map operations against the buffer manager, no I/O), so a cursor reaching
// a claimed chunk waits on the batched fetch and shares it — never a
// duplicate read, and never a race the read-ahead can lose. Only the reads
// themselves run on the worker set. Claims are windowed: Prefetch claims
// only the first window of a long range; the worker claims each further
// window as the previous one lands, pacing the read-ahead to the scan
// instead of front-loading the whole range (a cursor that overtakes the
// window simply demand-pages, and the worker's later claim skips what is
// already resident or in flight).
type Prefetcher struct {
	store  colbm.BlockStore
	cache  FetchCache
	window int

	jobs chan prefetchJob
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
	st     PrefetchStats
}

// prefetchJob is either one contiguous claimed chunk run to fetch, or the
// unclaimed tail of a long range to work through window by window.
type prefetchJob struct {
	run  *prefetchRun
	tail *prefetchTail
}

// prefetchRun is one contiguous claimed chunk run of a column.
type prefetchRun struct {
	col *colbm.Column
	cis []int
}

// prefetchTail is the not-yet-claimed remainder of a range: chunks
// [from, to) of a column, claimed in window-sized steps by the worker.
type prefetchTail struct {
	col      *colbm.Column
	from, to int
}

// PrefetchStats reports the read-ahead activity of a Prefetcher.
type PrefetchStats struct {
	Ranges  int64 // ranges whose first window claimed at least one missing chunk
	Windows int64 // claim windows processed (first window + each tail step)
	Dropped int64 // runs or tails dropped (queue full, or budget headroom exhausted)
	Reads   int64 // batched store reads issued
	Chunks  int64 // chunks admitted into the manager
	Bytes   int64 // bytes read ahead
	// Adjacent counts chunks admitted for free from the aligned span of a
	// batched read — bytes the store had already paid for (ReadSpan).
	Adjacent int64
}

// NewPrefetcher returns a prefetcher reading from store into cache with the
// given number of workers (minimum 1) and the default claim window. Close
// it to stop the workers.
func NewPrefetcher(store colbm.BlockStore, cache FetchCache, workers int) *Prefetcher {
	if workers < 1 {
		workers = 1
	}
	p := &Prefetcher{
		store:  store,
		cache:  cache,
		window: DefaultPrefetchWindow,
		jobs:   make(chan prefetchJob, prefetchQueue),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// SetWindow overrides the claim window in chunks (minimum 1). Call before
// the first Prefetch; the window is not synchronized.
func (p *Prefetcher) SetWindow(n int) {
	if n < 1 {
		n = 1
	}
	p.window = n
}

// Prefetch implements colbm.Prefetcher: it claims the first window of
// not-yet-resident chunks covering the value rows [startRow, endRow) of
// col with the buffer manager, hands the claimed runs to the workers, and
// queues the remainder of the range as a tail the workers claim window by
// window. It performs no I/O itself and never blocks on the queue: runs
// that do not fit have their claims released and tails are dropped (demand
// paging takes over).
func (p *Prefetcher) Prefetch(col *colbm.Column, startRow, endRow int) {
	lo, hi := col.ChunkSpan(startRow, endRow)
	if lo >= hi {
		return
	}
	head := lo + p.window
	if head > hi {
		head = hi
	}
	claimed := p.claimWindow(col, lo, head, func(run *prefetchRun) {
		p.submit(prefetchJob{run: run})
	})
	// A fully resident first window means the range was read recently
	// (warm engine, repeat query): skip the tail rather than keep workers
	// walking no-op windows under the manager lock on every hot query. If
	// later chunks did fall out, the cursor demand-pages them.
	if claimed == 0 {
		return
	}
	if head < hi {
		p.submit(prefetchJob{tail: &prefetchTail{col: col, from: head, to: hi}})
	}
	p.mu.Lock()
	p.st.Ranges++
	p.mu.Unlock()
}

// claimWindow claims the missing chunks of [lo, hi) with the buffer
// manager, hands each resulting contiguous run to sink, and returns how
// many chunks were claimed. BeginFetch preserves input order, so claimed
// chunk indices ascend; resident (or already in-flight) chunks and the
// byte cap split the runs naturally.
func (p *Prefetcher) claimWindow(col *colbm.Column, lo, hi int, sink func(*prefetchRun)) int {
	blob := col.BlobName()
	keys := make([]string, 0, hi-lo)
	for ci := lo; ci < hi; ci++ {
		keys = append(keys, colbm.ChunkKey(blob, ci))
	}
	claimed := p.cache.BeginFetch(keys)
	p.mu.Lock()
	p.st.Windows++
	p.mu.Unlock()
	if len(claimed) == 0 {
		return 0
	}
	claimedSet := make(map[string]bool, len(claimed))
	for _, key := range claimed {
		claimedSet[key] = true
	}
	run := make([]int, 0, len(claimed))
	var runBytes int64
	flush := func() {
		if len(run) > 0 {
			sink(&prefetchRun{col: col, cis: run})
			run = nil
		}
		runBytes = 0
	}
	for ci := lo; ci < hi; ci++ {
		if !claimedSet[colbm.ChunkKey(blob, ci)] {
			flush()
			continue
		}
		size := int64(col.Chunk(ci).Size)
		if len(run) > 0 && runBytes+size > maxRunBytes {
			flush()
		}
		run = append(run, ci)
		runBytes += size
	}
	flush()
	return len(claimed)
}

// submit enqueues one job. A claimed run that does not fit has its claims
// released (so no waiter hangs); a tail that does not fit is simply
// dropped — nothing was claimed for it yet.
func (p *Prefetcher) submit(job prefetchJob) {
	p.mu.Lock()
	if !p.closed {
		select {
		case p.jobs <- job:
			p.mu.Unlock()
			return
		default:
		}
	}
	p.st.Dropped++
	p.mu.Unlock()
	if job.run != nil {
		p.cache.EndFetch(runKeys(job.run), nil, errPrefetchDropped)
	}
}

// runKeys returns the cache keys of a run's chunks.
func runKeys(run *prefetchRun) []string {
	blob := run.col.BlobName()
	keys := make([]string, len(run.cis))
	for i, ci := range run.cis {
		keys[i] = colbm.ChunkKey(blob, ci)
	}
	return keys
}

// Stats returns a snapshot of the read-ahead counters.
func (p *Prefetcher) Stats() PrefetchStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

func (p *Prefetcher) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Close stops the workers after draining the queued jobs (every claimed
// chunk is delivered or failed — no waiter is left hanging; tails stop
// claiming new windows). Prefetch calls after Close are no-ops.
func (p *Prefetcher) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.jobs)
	p.wg.Wait()
	return nil
}

func (p *Prefetcher) worker() {
	defer p.wg.Done()
	for job := range p.jobs {
		switch {
		case job.run != nil:
			p.fetchRun(job.run)
		case job.tail != nil:
			p.fetchTail(job.tail)
		}
	}
}

// fetchTail works through a range tail window by window: claim the next
// window, fetch its runs inline, repeat. The next window is claimed only
// after the previous one landed, and only while the buffer manager has
// headroom for it — read-ahead that would evict resident data to make
// room is worse than useless (under a tight budget the prefetched chunks
// would themselves be evicted before the slower cursor arrives, doubling
// the I/O), so a tail that outruns the budget stops and leaves the
// remainder to demand paging. A closing prefetcher stops the same way;
// nothing is left hanging either way, since unclaimed chunks have no
// waiters.
func (p *Prefetcher) fetchTail(tail *prefetchTail) {
	for w := tail.from; w < tail.to; w += p.window {
		if p.isClosed() {
			return
		}
		hi := w + p.window
		if hi > tail.to {
			hi = tail.to
		}
		if !p.headroom(tail.col, w, hi) {
			p.mu.Lock()
			p.st.Dropped++
			p.mu.Unlock()
			return
		}
		// Runs are fetched in this worker, bypassing the queue (a tail must
		// not deadlock on its own queue slot); the next window is claimed
		// only after they land, which is the pacing.
		p.claimWindow(tail.col, w, hi, p.fetchRun)
	}
}

// headroom reports whether the buffer manager can admit the chunks of
// window [lo, hi) without evicting anything (always true for unbounded
// managers). Resident chunks inside the window over-count the need — a
// conservative error in the right direction.
func (p *Prefetcher) headroom(col *colbm.Column, lo, hi int) bool {
	st := p.cache.Stats()
	if st.Cap <= 0 {
		return true
	}
	var need int64
	for ci := lo; ci < hi; ci++ {
		need += int64(col.Chunk(ci).Size)
	}
	return st.Used+need <= st.Cap
}

// fetchRun reads one contiguous chunk run in a single store request and
// delivers the chunks to the manager, waking the demand readers that piled
// up on them. On failure the claims are released with the error and the
// waiters retry through the demand path. Stores that surface their full
// aligned span additionally donate any *adjacent* chunks the span happens
// to cover whole — bytes already read, admitted without a fetch.
func (p *Prefetcher) fetchRun(run *prefetchRun) {
	col, cis := run.col, run.cis
	keys := runKeys(run)
	first := col.Chunk(cis[0])
	last := col.Chunk(cis[len(cis)-1])
	off := first.Off
	size := last.Off + last.Size - off

	var raw, span []byte
	var spanOff int
	var err error
	if sr, ok := p.store.(spanReader); ok {
		raw, span, spanOff, err = sr.ReadSpan(col.BlobName(), off, size)
	} else {
		raw, err = p.store.Read(col.BlobName(), off, size)
	}
	if err != nil {
		p.cache.EndFetch(keys, nil, err)
		return
	}
	chunks := make(map[string]*colbm.CachedChunk, len(cis))
	for i, ci := range cis {
		m := col.Chunk(ci)
		// Each chunk owns a private copy: aliasing the run buffer would pin
		// the whole run in memory for as long as any one chunk stays cached.
		data := append([]byte(nil), raw[m.Off-off:m.Off-off+m.Size]...)
		ch, perr := col.ParseChunk(ci, data)
		if perr != nil {
			p.cache.EndFetch(keys, nil, perr)
			return
		}
		chunks[keys[i]] = ch
	}
	p.cache.EndFetch(keys, chunks, nil)

	adjacent := 0
	if span != nil {
		adjacent = p.admitAdjacent(col, cis, span, spanOff)
	}
	p.mu.Lock()
	p.st.Reads++
	p.st.Chunks += int64(len(cis))
	p.st.Bytes += int64(size)
	p.st.Adjacent += int64(adjacent)
	p.mu.Unlock()
}

// admitAdjacent offers the manager every chunk bordering the run that the
// read's aligned span covers in full — the widened bytes the store
// already paid for instead of discarding. Admission is best-effort: the
// manager declines chunks that are resident, in flight, or would force an
// eviction. Returns how many chunks were admitted.
func (p *Prefetcher) admitAdjacent(col *colbm.Column, cis []int, span []byte, spanOff int) int {
	blob := col.BlobName()
	admitted := 0
	try := func(ci int) bool {
		m := col.Chunk(ci)
		if m.Off < spanOff || m.Off+m.Size > spanOff+len(span) {
			return false
		}
		// A private copy, like run chunks: aliasing the span would pin the
		// whole read in memory for as long as the chunk stays cached.
		data := append([]byte(nil), span[m.Off-spanOff:m.Off-spanOff+m.Size]...)
		ch, err := col.ParseChunk(ci, data)
		if err != nil {
			return false
		}
		if p.cache.Admit(colbm.ChunkKey(blob, ci), ch) {
			admitted++
		}
		return true
	}
	for ci := cis[0] - 1; ci >= 0 && try(ci); ci-- {
	}
	for ci := cis[len(cis)-1] + 1; ci < col.NumChunks() && try(ci); ci++ {
	}
	return admitted
}

var _ colbm.Prefetcher = (*Prefetcher)(nil)
