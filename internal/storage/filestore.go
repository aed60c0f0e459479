package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colbm"
)

// readAlign is the alignment of FileStore read requests: offsets are
// rounded down and extents rounded up to this boundary, so every request
// the kernel sees is a page-aligned sequential span — the large-transfer
// discipline ColumnBM is designed around. Chunk sizes are hundreds of
// kilobytes, so the at-most-8KiB of over-read per request is noise.
const readAlign = 4096

// blobExt is the file extension of column blob files inside an index
// directory.
const blobExt = ".col"

// FileStore is a colbm.BlockStore over real files: every blob is one file
// in a directory, written once at index-build time and read back with
// aligned sequential positioned reads — the one read path, on every
// platform. It is safe for concurrent use; the read path takes only a
// read-lock for the handle lookup and counts its statistics on atomics, so
// reads on distinct goroutines proceed in parallel.
type FileStore struct {
	dir string

	mu     sync.RWMutex
	files  map[string]*os.File
	sizes  map[string]int64
	closed bool

	// release, when set, runs once at Close: an opened segment's store
	// drops the segment's hold on its memoized manifest (acquireManifest).
	release func()

	reads, bytesRead, ioNanos atomic.Int64
}

// NewFileStore opens (creating if needed) the directory as a block store.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return readStore(dir), nil
}

// readStore is a FileStore over dir for reading, which creates nothing.
func readStore(dir string) *FileStore {
	return &FileStore{
		dir:   dir,
		files: make(map[string]*os.File),
		sizes: make(map[string]int64),
	}
}

// Dir returns the directory backing the store.
func (fs *FileStore) Dir() string { return fs.dir }

func (fs *FileStore) path(name string) string {
	return filepath.Join(fs.dir, name+blobExt)
}

// Create starts writing a blob as <dir>/<name>.col. The chunks land in a
// temporary file in the directory, which the writer's Close renames into
// place, so a crashed or failed write never leaves a plausible-looking half
// file under the blob's name. A read handle the store holds on a previous
// blob of that name is dropped once the new one is in place.
func (fs *FileStore) Create(name string) (colbm.ChunkWriter, error) {
	fs.mu.RLock()
	closed := fs.closed
	fs.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("storage: write %q on closed store", name)
	}
	w, err := createAtomic(fs.dir, "."+name+".tmp-*", fs.path(name))
	if err != nil {
		return nil, fmt.Errorf("storage: write %q: %w", name, err)
	}
	w.published = func() { fs.forget(name) }
	return w, nil
}

// forget closes and drops the read handle of blob name, if the store holds
// one: the file under that name was replaced.
func (fs *FileStore) forget(name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[name]; ok {
		f.Close()
		delete(fs.files, name)
	}
	delete(fs.sizes, name)
}

// WriteFileAtomic writes data to dst (inside dir) via a temporary file
// named by pattern (see os.CreateTemp) and a rename (createAtomic).
// Manifest and topology-spec writes go through it.
func WriteFileAtomic(dir, pattern, dst string, data []byte) error {
	w, err := createAtomic(dir, pattern, dst)
	if err != nil {
		return err
	}
	w.Append(data)
	return w.Close()
}

// atomicFile is a file being written under a temporary name in its final
// directory and renamed to its final name at Close — the one way this
// package puts a file in place, so a crash mid-write never leaves a
// plausible-looking half file under the final name. It is the
// colbm.ChunkWriter of a FileStore blob. On any failure, and on Abort, the
// temporary file is removed.
type atomicFile struct {
	f   *os.File
	dst string
	off int64
	err error // the first failed Append
	// published, when set, runs after the rename.
	published func()
}

// chunkHook, when set, is called before every chunk an atomicFile appends,
// with the destination's base name and the chunk's offset in it; an error
// fails that Append. It is the failure-injection point of the
// failed-build tests (setChunkHook).
var chunkHook atomic.Pointer[func(file string, off int64) error]

func createAtomic(dir, pattern, dst string) (*atomicFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &atomicFile{f: f, dst: dst}, nil
}

func (a *atomicFile) Append(chunk []byte) error {
	if a.err == nil {
		if h := chunkHook.Load(); h != nil {
			a.err = (*h)(filepath.Base(a.dst), a.off)
		}
	}
	if a.err == nil {
		_, a.err = a.f.Write(chunk)
		a.off += int64(len(chunk))
	}
	return a.err
}

func (a *atomicFile) Close() error {
	f := a.f
	if f == nil {
		return nil
	}
	a.f = nil
	err := a.err
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), a.dst)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	if a.published != nil {
		a.published()
	}
	return nil
}

func (a *atomicFile) Abort() {
	if a.f != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		a.f = nil
	}
}

// handle returns an open file and its size, opening lazily on first use.
// The hot path — the blob is already open — takes only the read lock, so
// concurrent scans of resident handles never serialize here.
func (fs *FileStore) handle(name string) (*os.File, int64, error) {
	fs.mu.RLock()
	if fs.closed {
		fs.mu.RUnlock()
		return nil, 0, fmt.Errorf("storage: read %q on closed store", name)
	}
	if f, ok := fs.files[name]; ok {
		sz := fs.sizes[name]
		fs.mu.RUnlock()
		return f, sz, nil
	}
	fs.mu.RUnlock()

	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, 0, fmt.Errorf("storage: read %q on closed store", name)
	}
	if f, ok := fs.files[name]; ok { // raced another opener
		return f, fs.sizes[name], nil
	}
	f, err := os.Open(fs.path(name))
	if err != nil {
		return nil, 0, fmt.Errorf("storage: no such blob %q: %w", name, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("storage: %w", err)
	}
	fs.files[name] = f
	fs.sizes[name] = fi.Size()
	return f, fi.Size(), nil
}

// Read returns size bytes of blob name starting at off: ReadInto with a
// fresh buffer. The returned slice is private to the caller, starts on an
// 8-byte boundary, and keeps the whole widened read reachable — at most
// 2·4 KiB + 16 B more than size — for as long as it is held, as a cached
// chunk holds it while resident.
func (fs *FileStore) Read(name string, off, size int) ([]byte, error) {
	data, _, err := fs.ReadInto(name, off, size, nil)
	return data, err
}

// ReadInto reads size bytes of blob name starting at off. The request is
// widened to readAlign boundaries (clipped at the end of the blob) and
// served by one positioned read; DiskStats count the widened bytes. The
// widened span lands in a buffer from alloc (a fresh one when alloc is nil)
// where colbm.AlignedBuffer places it: data, the requested bytes, starts on
// an 8-byte boundary with at least 8 bytes of capacity past its end. buf,
// the whole buffer, is at most 2·readAlign + colbm.ReadSlack bytes longer
// than size, and a cached chunk read into it retains all of it.
func (fs *FileStore) ReadInto(name string, off, size int, alloc func(int) []byte) (data, buf []byte, err error) {
	if off < 0 || size < 0 {
		return nil, nil, fmt.Errorf("storage: read [%d,%d) of blob %q", off, off+size, name)
	}
	f, fileSize, err := fs.handle(name)
	if err != nil {
		return nil, nil, err
	}
	if int64(off+size) > fileSize {
		return nil, nil, fmt.Errorf("storage: read [%d,%d) out of blob %q of %d bytes",
			off, off+size, name, fileSize)
	}
	lo := int64(off) - int64(off)%readAlign
	hi := int64(off + size)
	if rem := hi % readAlign; rem != 0 {
		hi += readAlign - rem
	}
	if hi > fileSize {
		hi = fileSize
	}
	head := int(int64(off) - lo)
	span, buf := colbm.AlignedBuffer(alloc, int(hi-lo), head)
	start := time.Now()
	if _, err := f.ReadAt(span, lo); err != nil {
		return nil, nil, fmt.Errorf("storage: read %q: %w", name, err)
	}
	fs.reads.Add(1)
	fs.bytesRead.Add(int64(len(span)))
	fs.ioNanos.Add(time.Since(start).Nanoseconds())
	return span[head : head+size], buf, nil
}

// Size returns the stored size of a blob, or 0 if absent.
func (fs *FileStore) Size(name string) int {
	fs.mu.RLock()
	if sz, ok := fs.sizes[name]; ok {
		fs.mu.RUnlock()
		return int(sz)
	}
	fs.mu.RUnlock()
	fi, err := os.Stat(fs.path(name))
	if err != nil {
		return 0
	}
	return int(fi.Size())
}

// TotalSize returns the summed size of all blob files in the directory.
func (fs *FileStore) TotalSize() int64 {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), blobExt) {
			continue
		}
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// Stats returns a snapshot of the read counters. IOTime is measured time,
// already part of any wall-clock measurement that covers the reads.
func (fs *FileStore) Stats() DiskStats {
	return DiskStats{
		Reads:     fs.reads.Load(),
		BytesRead: fs.bytesRead.Load(),
		IOTime:    time.Duration(fs.ioNanos.Load()),
	}
}

// ResetStats zeroes the counters (used between experiment runs).
func (fs *FileStore) ResetStats() {
	fs.reads.Store(0)
	fs.bytesRead.Store(0)
	fs.ioNanos.Store(0)
}

// Simulated reports that IOTime is real measured time, not virtual-clock
// time.
func (fs *FileStore) Simulated() bool { return false }

// Close releases every open file handle; the store is unusable afterwards.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil
	}
	fs.closed = true
	if fs.release != nil {
		fs.release()
	}
	var first error
	for _, f := range fs.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	fs.files = nil
	return first
}

var _ colbm.BlockStore = (*FileStore)(nil)
