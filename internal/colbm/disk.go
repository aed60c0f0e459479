package colbm

import (
	"fmt"
	"sort"
	"sync"
	"time"
	"unsafe"
)

// DiskParams models a sequential-I/O-optimized storage device.
type DiskParams struct {
	// SeekLatency is charged once per read request (positioning cost).
	SeekLatency time.Duration
	// Bandwidth is the sequential transfer rate in bytes per second.
	Bandwidth float64
}

// DefaultDiskParams approximates the paper's 12-disk software RAID:
// a few milliseconds to position, several hundred MB/s sequential.
func DefaultDiskParams() DiskParams {
	return DiskParams{SeekLatency: 4 * time.Millisecond, Bandwidth: 400e6}
}

// DiskStats aggregates the read activity of a BlockStore.
type DiskStats struct {
	Reads     int64
	BytesRead int64
	// IOTime is the time spent reading: virtual-clock time for a simulated
	// store, measured time (already part of query wall time) for a real one.
	IOTime time.Duration
}

// BlockStore is the storage contract of ColumnBM: named immutable blobs
// (one per column), written once at index-build time as a stream of chunks
// and read back with large sequential requests at chunk granularity.
// Implementations must be safe for concurrent use. The two
// implementations are SimDisk (simulated, in this package) and
// storage.FileStore (real files).
type BlockStore interface {
	// Create starts writing blob name. Nothing is visible under the name
	// until the writer's Close, which replaces any previous content.
	Create(name string) (ChunkWriter, error)
	// Read returns size bytes of blob name starting at off: ReadInto with a
	// fresh buffer. The returned slice is owned by the caller:
	// implementations must not alias internal state (a misbehaving decoder
	// must not be able to corrupt the store).
	Read(name string, off, size int) ([]byte, error)
	// ReadInto reads size bytes of blob name starting at off into a buffer
	// from alloc (a fresh one when alloc is nil), placed by AlignedBuffer:
	// data, the bytes read, starts on an 8-byte boundary and has at least 8
	// bytes of capacity past its end. buf is the whole buffer alloc gave,
	// for the caller to reuse once nothing references data.
	ReadInto(name string, off, size int, alloc func(n int) []byte) (data, buf []byte, err error)
	// Size returns the stored size of a blob, or 0 if absent.
	Size(name string) int
	// TotalSize returns the summed size of all blobs (the on-disk footprint
	// of an index).
	TotalSize() int64
	// Stats returns a snapshot of the read counters.
	Stats() DiskStats
	// ResetStats zeroes the counters (used between experiment runs).
	ResetStats()
	// Simulated reports whether IOTime is virtual-clock time, charged on
	// top of measured wall time, rather than real time already included in
	// it. Query accounting uses this to avoid double-counting I/O.
	Simulated() bool
	// Close releases underlying resources (file handles); the store is
	// unusable afterwards.
	Close() error
}

// ChunkWriter streams one blob into its BlockStore, a chunk at a time, as
// the chunks are encoded. A ChunkWriter is used by one goroutine.
type ChunkWriter interface {
	// Append adds chunk to the end of the blob. The writer does not retain
	// chunk: the caller may reuse it once Append returns.
	Append(chunk []byte) error
	// Close publishes the blob under its name. After a failed Append it
	// publishes nothing, discards what was written and returns that
	// failure.
	Close() error
	// Abort discards the blob unpublished; after Close it does nothing.
	Abort()
}

// WriteBlob stores data as blob name of s in one piece, replacing any
// previous content.
func WriteBlob(s BlockStore, name string, data []byte) error {
	w, err := s.Create(name)
	if err != nil {
		return err
	}
	w.Append(data)
	return w.Close()
}

// CopyBlob streams size bytes of blob name of src into w without reading
// the blob whole: a SimDisk hands over the chunks it holds, any other
// store is read in pieces of at most copyPiece bytes through one buffer.
// It does not close w.
func CopyBlob(w ChunkWriter, src BlockStore, name string, size int) error {
	if d, ok := src.(*SimDisk); ok {
		return d.copyTo(w, name, size)
	}
	var buf []byte
	alloc := func(n int) []byte {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		return buf[:n]
	}
	for off := 0; off < size; off += copyPiece {
		data, b, err := src.ReadInto(name, off, min(copyPiece, size-off), alloc)
		if err != nil {
			return err
		}
		buf = b
		if err := w.Append(data); err != nil {
			return err
		}
	}
	return nil
}

// copyPiece is the read size of CopyBlob from a store other than a SimDisk.
const copyPiece = 1 << 20

// ReadSlack is what a BlockStore asks of alloc beyond the bytes it reads:
// up to 7 bytes ahead of them, which put the requested first byte on an
// 8-byte boundary, and 8 after, which let compress.Unmarshal view a code
// section that ends with the read as whole words.
const ReadSlack = 15

// AlignedBuffer returns buf, a buffer from alloc (a fresh one when alloc is
// nil) of n+ReadSlack bytes, and span, the n bytes of it placed so that
// span[lead] lies on an 8-byte boundary and at least 8 bytes of capacity
// follow span. alloc(k) must return a slice of length k.
func AlignedBuffer(alloc func(int) []byte, n, lead int) (span, buf []byte) {
	if alloc == nil {
		buf = make([]byte, n+ReadSlack)
	} else {
		buf = alloc(n + ReadSlack)
	}
	p := int(-(uintptr(unsafe.Pointer(&buf[0])) + uintptr(lead)) & 7)
	return buf[p : p+n], buf
}

// SimDisk is a virtual-clock BlockStore holding named immutable blobs in
// memory, each as the chunks it was written in. Read charges simulated
// time instead of sleeping, so experiments can separate CPU cost (measured
// wall time) from I/O cost (simulated time) deterministically.
type SimDisk struct {
	params DiskParams

	mu    sync.Mutex
	blobs map[string]*simBlob
	stats DiskStats
}

// simBlob is one stored blob: its chunks, each kept once, and their
// cumulative end offsets.
type simBlob struct {
	chunks [][]byte
	ends   []int
}

func (b *simBlob) size() int {
	if len(b.ends) == 0 {
		return 0
	}
	return b.ends[len(b.ends)-1]
}

// chunkAt returns the index of the chunk holding byte off.
func (b *simBlob) chunkAt(off int) int { return sort.SearchInts(b.ends, off+1) }

// NewSimDisk returns an empty disk with the given parameters.
func NewSimDisk(params DiskParams) *SimDisk {
	return &SimDisk{params: params, blobs: make(map[string]*simBlob)}
}

// Create starts writing a named blob. Writing is a load-time operation and
// is not charged to the virtual clock (the experiments measure query time,
// not index-build time, matching the TREC efficiency task). Neither Create
// nor the writer's methods fail.
func (d *SimDisk) Create(name string) (ChunkWriter, error) {
	return &simWriter{d: d, name: name, blob: new(simBlob)}, nil
}

// simWriter keeps a private copy of every chunk appended and publishes the
// blob at Close.
type simWriter struct {
	d    *SimDisk
	name string
	blob *simBlob
}

func (w *simWriter) Append(chunk []byte) error {
	if len(chunk) > 0 && w.blob != nil {
		w.blob.chunks = append(w.blob.chunks, append([]byte(nil), chunk...))
		w.blob.ends = append(w.blob.ends, w.blob.size()+len(chunk))
	}
	return nil
}

func (w *simWriter) Close() error {
	if w.blob != nil {
		w.d.mu.Lock()
		w.d.blobs[w.name] = w.blob
		w.d.mu.Unlock()
		w.blob = nil
	}
	return nil
}

func (w *simWriter) Abort() { w.blob = nil }

// blob returns the named blob after checking [off, off+size) lies in it,
// and charges the read to the virtual clock.
func (d *SimDisk) blob(name string, off, size int) (*simBlob, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.blobs[name]
	if !ok {
		return nil, fmt.Errorf("colbm: no such blob %q", name)
	}
	if off < 0 || size < 0 || off+size > b.size() {
		return nil, fmt.Errorf("colbm: read [%d,%d) out of blob %q of %d bytes", off, off+size, name, b.size())
	}
	d.stats.Reads++
	d.stats.BytesRead += int64(size)
	d.stats.IOTime += d.params.SeekLatency +
		time.Duration(float64(size)/d.params.Bandwidth*float64(time.Second))
	return b, nil
}

// copyTo appends the first size bytes of blob name to w, the stored chunks
// themselves, charging one read as Read does.
func (d *SimDisk) copyTo(w ChunkWriter, name string, size int) error {
	b, err := d.blob(name, 0, size)
	if err != nil {
		return err
	}
	for i, c := range b.chunks {
		if start := b.ends[i] - len(c); start < size {
			if err := w.Append(c[:min(len(c), size-start)]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Size returns the stored size of a blob, or 0 if absent.
func (d *SimDisk) Size(name string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if b, ok := d.blobs[name]; ok {
		return b.size()
	}
	return 0
}

// TotalSize returns the summed size of all blobs (the on-disk footprint of
// an index).
func (d *SimDisk) TotalSize() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var total int64
	for _, b := range d.blobs {
		total += int64(b.size())
	}
	return total
}

// Read returns size bytes of blob name starting at off, charging one seek
// plus transfer time to the virtual clock. The returned slice is a fresh
// copy: callers (and the decoders above them) may scribble on it without
// corrupting the stored blob, matching the contract of a real disk read.
func (d *SimDisk) Read(name string, off, size int) ([]byte, error) {
	data, _, err := d.ReadInto(name, off, size, nil)
	return data, err
}

// ReadInto is Read into a buffer from alloc: it copies the bytes, from
// however many stored chunks they span, into the span AlignedBuffer places,
// and charges the virtual clock as Read does.
func (d *SimDisk) ReadInto(name string, off, size int, alloc func(int) []byte) ([]byte, []byte, error) {
	b, err := d.blob(name, off, size)
	if err != nil {
		return nil, nil, err
	}
	span, buf := AlignedBuffer(alloc, size, 0)
	for i, n := b.chunkAt(off), 0; n < size; i++ {
		c := b.chunks[i][off+n-(b.ends[i]-len(b.chunks[i])):]
		n += copy(span[n:], c)
	}
	return span, buf, nil
}

// Stats returns a snapshot of the disk counters.
func (d *SimDisk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the counters (used between experiment runs).
func (d *SimDisk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = DiskStats{}
}

// Simulated reports that IOTime is virtual-clock time.
func (d *SimDisk) Simulated() bool { return true }

// Close releases nothing: the disk is in-memory simulation.
func (d *SimDisk) Close() error { return nil }
