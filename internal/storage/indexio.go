package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/colbm"
	"repro/internal/ir"
)

// writeSegment persists one index into dir as a segment: one <blob>.col
// file per column plus MANIFEST.json. Column data is copied blob-at-a-time
// through the index's block store, so both freshly built (SimDisk-backed)
// and already persisted (FileStore-backed) indexes can be written anywhere.
// The manifest is written last: a crashed or interrupted write leaves a
// directory openSegment refuses, never a torn segment.
func writeSegment(dir string, ix *ir.Index) error {
	if ix == nil {
		return fmt.Errorf("storage: writeSegment(nil index)")
	}
	fs, err := NewFileStore(dir)
	if err != nil {
		return err
	}
	defer fs.Close()

	m := &Manifest{
		Magic:   FormatMagic,
		Version: FormatVersion,
		Config:  ix.Config(),
		Params:  ix.Params,
		ScoreLo: ix.ScoreLo,
		ScoreHi: ix.ScoreHi,
		Terms:   ix.Terms,
		TD:      ix.TD.Stored(),
		D:       ix.D.Stored(),
	}
	// The stats override is a build-time input only (its idf and score
	// bounds are already baked into Params/ScoreLo/ScoreHi and the stored
	// columns); persisting it would duplicate the collection-wide term map
	// into every partition manifest.
	m.Config.Stats = nil
	// On disk a segment's table and blob names carry its directory name,
	// whatever prefix (if any) the index was built under: segments of one
	// directory share a buffer manager whose keys are blob-derived, and
	// segment GC drops a removed segment's cached chunks by that prefix.
	built := m.Config.TablePrefix
	m.Config.TablePrefix = filepath.Base(dir) + "."
	rename := func(s string) string { return m.Config.TablePrefix + strings.TrimPrefix(s, built) }
	for _, table := range []*colbm.StoredTable{&m.TD, &m.D} {
		table.Name = rename(table.Name)
		for i := range table.Columns {
			col := &table.Columns[i]
			data, err := ix.Store.Read(col.Blob, 0, col.DiskSize())
			if err != nil {
				return fmt.Errorf("storage: persist column %q: %w", col.Blob, err)
			}
			col.Blob = rename(col.Blob)
			if err := fs.Write(col.Blob, data); err != nil {
				return err
			}
		}
	}
	return writeManifest(dir, m)
}

// OpenOption tunes how OpenSegmented serves a persisted directory.
type OpenOption func(*openConfig)

type openConfig struct {
	prefetchWorkers int
	prefetchWindow  int
	manager         *Manager
	mmap            bool
	admission       AdmissionPolicy
	namespace       string
}

// cache returns the chunk-cache surface the opened index should read
// through: the manager itself, or a namespaced view of it when the open
// carries a cache namespace (co-located indexes sharing one pool).
func (oc *openConfig) cache(mgr *Manager) FetchCache {
	if oc.namespace != "" {
		return NewCacheView(mgr, oc.namespace)
	}
	return mgr
}

// WithPrefetchWorkers enables manifest-driven chunk prefetch on the opened
// index with n read-ahead workers: before a plan scans a posting range, the
// searcher hands the range's chunk extents (recorded in the manifest) to a
// Prefetcher that batch-fetches the missing chunks in large sequential
// reads, ahead of the scanning cursor. n < 1 disables prefetch (the
// default: demand paging only).
func WithPrefetchWorkers(n int) OpenOption {
	return func(c *openConfig) { c.prefetchWorkers = n }
}

// WithPrefetchWindow bounds how many chunks a prefetch range may hold
// claimed ahead of the scanning cursor at once (the read-ahead window; 0 =
// DefaultPrefetchWindow). Long ranges are claimed and fetched window by
// window instead of all up front, so concurrent cold scans cannot flood
// the buffer manager with read-ahead data far ahead of any cursor.
func WithPrefetchWindow(n int) OpenOption {
	return func(c *openConfig) { c.prefetchWindow = n }
}

// WithSharedManager serves the opened index (or segmented generation)
// through an existing buffer manager instead of a fresh one, ignoring the
// poolBytes argument. A refreshing engine passes its long-lived manager so
// a generation swap keeps every cached chunk of the unchanged segments
// warm (chunk-cache keys are segment-name-scoped and segment names are
// never reused, so stale entries cannot alias) — without it, each append
// would cold-start the whole pool.
func WithSharedManager(m *Manager) OpenOption {
	return func(c *openConfig) { c.manager = m }
}

// WithMmapReads serves the opened index's column blobs out of per-blob
// memory mappings instead of positioned reads: each .col file is mapped
// once on first touch and chunk reads are a single copy out of the
// mapping — no read(2) per request, no widened private buffer, and the
// prefetcher's coalesced runs get madvise(SEQUENTIAL) ahead of the scan.
// Platforms or blobs that cannot map fall back to the positioned-read
// path transparently, byte-for-byte equivalent.
func WithMmapReads() OpenOption {
	return func(c *openConfig) { c.mmap = true }
}

// WithCacheAdmission selects the buffer manager's admission policy
// (default AdmissionClock; Admission2Q is the scan-resistant choice —
// see the AdmissionPolicy constants). It applies to the manager this
// open creates; combined with WithSharedManager the pre-built manager's
// policy wins and this option is ignored.
func WithCacheAdmission(p AdmissionPolicy) OpenOption {
	return func(c *openConfig) { c.admission = p }
}

// WithCacheNamespace scopes the opened index's chunk-cache keys under the
// given prefix. Required whenever indexes whose blob names may collide
// share one manager (WithSharedManager across co-located partition
// servers: every partition directory allocates seg-000001); pointless — but
// harmless — for an index with a manager of its own.
func WithCacheNamespace(ns string) OpenOption {
	return func(c *openConfig) { c.namespace = ns }
}

// ResolveAdmission applies opts and returns the admission policy they
// select — for callers that build a shared manager up front (dist's
// cross-server pool) and must honor a WithCacheAdmission riding in the
// same option list that would otherwise be ignored.
func ResolveAdmission(opts []OpenOption) AdmissionPolicy {
	var oc openConfig
	for _, opt := range opts {
		opt(&oc)
	}
	return oc.admission
}

// verifyIndexFiles cross-checks a manifest against the directory's column
// files before any query trusts it: every referenced column file must
// exist with exactly the manifest's size, and no unreferenced .col file
// may be present. Failing eagerly with the offending file named beats the
// alternative — a stray or truncated blob surfacing as a decode error in
// the middle of some later query.
func verifyIndexFiles(dir string, m *Manifest) error {
	want := make(map[string]int, len(m.TD.Columns)+len(m.D.Columns))
	for _, st := range []*colbm.StoredTable{&m.TD, &m.D} {
		for _, col := range st.Columns {
			want[col.Blob] = col.DiskSize()
		}
	}
	for blob, size := range want {
		fi, err := os.Stat(filepath.Join(dir, blob+blobExt))
		if err != nil {
			return fmt.Errorf("storage: index in %q is missing column file %q (crashed write or mixed index?)",
				dir, blob+blobExt)
		}
		if got := int(fi.Size()); got != size {
			return fmt.Errorf("storage: column file %q is %d bytes, manifest says %d (truncated or mismatched index)",
				blob+blobExt, got, size)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, blobExt) {
			continue
		}
		if _, ok := want[strings.TrimSuffix(name, blobExt)]; !ok {
			return fmt.Errorf("storage: stray column file %q in %q (not referenced by the manifest; partial write or mixed index?)",
				name, dir)
		}
	}
	return nil
}

// openSegment opens one persisted segment for querying. Only the manifest
// is read eagerly; column data stays on disk and streams in through mgr as
// queries touch it. Every segment of a generation opens against one shared
// manager so the byte budget covers the whole directory, not each segment
// separately. The caller owns the returned index: Close it to release the
// file handles and stop any prefetch workers.
func openSegment(dir string, mgr *Manager, oc openConfig) (*ir.Index, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	var fsOpts []FileStoreOption
	if oc.mmap {
		fsOpts = append(fsOpts, WithMmap())
	}
	fs, err := NewFileStore(dir, fsOpts...)
	if err != nil {
		return nil, err
	}
	if err := verifyIndexFiles(dir, m); err != nil {
		fs.Close()
		return nil, err
	}
	cache := oc.cache(mgr)
	var tables []*colbm.Table
	for _, st := range []*colbm.StoredTable{&m.TD, &m.D} {
		t, err := colbm.OpenTable(*st, fs, cache)
		if err != nil {
			fs.Close()
			return nil, err
		}
		tables = append(tables, t)
	}
	ix := ir.RestoreIndex(tables[0], tables[1], m.Terms, m.Params,
		m.ScoreLo, m.ScoreHi, fs, cache, m.Config)
	if oc.prefetchWorkers > 0 {
		pf := NewPrefetcher(fs, cache, oc.prefetchWorkers)
		if oc.prefetchWindow > 0 {
			pf.SetWindow(oc.prefetchWindow)
		}
		ix.Prefetcher = pf
	}
	return ix, nil
}
