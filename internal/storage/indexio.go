package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/colbm"
	"repro/internal/ir"
)

// writeSegment persists one index into dir as a segment in the current
// format: one <blob>.col file per column of TD, D and T plus MANIFEST.json.
// A segment this package builds itself (buildSegment) already has its
// columns in dir, written there chunk by chunk under the segment's table
// prefix as the build encoded them, and only the manifest is written. An
// index built elsewhere — ir.Build's SimDisk, or another directory's files
// — has each column streamed into its file in dir under the segment's
// prefix, never read whole (copyColumns). The manifest is written last: a
// crashed or interrupted write leaves a directory openSegment refuses,
// never a torn segment.
//
// The manifest written is handed to the memo (handOff) with the bytes it
// encodes to, after the validation a decode would run, so whatever reads
// the segment next in this process — the open that serves it, an append's
// statistics pass, a merge — decodes nothing. Its dictionary and skylines
// are the index's own, which nothing writes after the build. The
// manifest is returned, for the running statistics of the commit that
// takes the segment in.
func writeSegment(dir string, ix *ir.Index) (*Manifest, error) {
	if ix == nil {
		return nil, fmt.Errorf("storage: writeSegment(nil index)")
	}
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
	sky := ix.Skylines
	if ix.T != nil {
		m.T = ix.T.Stored()
	}
	// The stats override is a build-time input only (its idf and score
	// bounds are already baked into Params/ScoreLo/ScoreHi and the stored
	// columns); persisting it would duplicate the collection-wide term map
	// into every partition manifest. The build's pool budget describes the
	// process that built it, and is not encoded; clearing it keeps the
	// handed-off manifest equal to its decode.
	m.Config.Stats, m.Config.PoolBytes = nil, 0
	// On disk a segment's table and blob names carry its directory name,
	// whatever prefix (if any) the index was built under: segments of one
	// directory share a buffer manager whose keys are blob-derived, and
	// segment GC drops a removed segment's cached chunks by that prefix.
	built, seg := m.Config.TablePrefix, filepath.Base(dir)
	m.Config.TablePrefix = seg + "."
	if fs, ok := ix.Store.(*FileStore); !ok || fs.Dir() != dir || built != m.Config.TablePrefix {
		var err error
		if sky, err = copyColumns(dir, ix, m, built); err != nil {
			return nil, err
		}
	}
	if err := m.validate(dir, seg); err != nil {
		return nil, err
	}
	m.setRows(sky, termsWithout(m.Terms, sky))
	data, err := writeManifest(dir, m)
	if err != nil {
		return nil, err
	}
	memo.handOff(dir, seg, data, m)
	return m, nil
}

// copyColumns streams every column of m, the manifest of ix, from ix's
// store into a file of dir, renaming its table and blob from the prefix
// built to m's, and returns the skylines in the order of the T it writes.
// An index restored from a format-1 segment is written in the current
// format: its chunks get their checksums as they are copied (copyChunks),
// D's docid column is left behind, and its dictionary is written as T
// (ir.BuildDictionary) with its skylines in term order.
func copyColumns(dir string, ix *ir.Index, m *Manifest, built string) ([]ir.Skyline, error) {
	fs, err := NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	sky, tables := ix.Skylines, m.tables()
	if ix.T == nil {
		m.D.Columns = slices.DeleteFunc(m.D.Columns, func(c colbm.StoredColumn) bool { return c.Spec.Name == "docid" })
		sky = slices.Clone(sky)
		slices.SortFunc(sky, func(a, b ir.Skyline) int { return strings.Compare(a.Term, b.Term) })
		t, err := ir.BuildDictionary(m.Config.TablePrefix+"T", fs, colbm.NewManager(0), m.Config.ChunkLen, m.Terms, sky)
		if err != nil {
			return nil, fmt.Errorf("storage: persist the dictionary: %w", err)
		}
		m.T, tables = t.Stored(), tables[:2] // T is written in place
	}
	rename := func(s string) string { return m.Config.TablePrefix + strings.TrimPrefix(s, built) }
	for _, table := range tables {
		table.Name = rename(table.Name)
		for i := range table.Columns {
			col := &table.Columns[i]
			w, err := fs.Create(rename(col.Blob))
			if err != nil {
				return nil, err
			}
			if table.Checksums {
				err = colbm.CopyBlob(w, ix.Store, col.Blob, col.DiskSize())
			} else {
				err = copyChunks(w, ix.Store, col)
			}
			if err != nil {
				w.Abort()
				return nil, fmt.Errorf("storage: persist column %q: %w", col.Blob, err)
			}
			if err := w.Close(); err != nil {
				return nil, err
			}
			col.Blob = rename(col.Blob)
		}
		table.Checksums = true
	}
	return sky, nil
}

// copyChunks streams column col of src into w a chunk at a time, recording
// each chunk's checksum in col.
func copyChunks(w colbm.ChunkWriter, src colbm.BlockStore, col *colbm.StoredColumn) error {
	var buf []byte
	alloc := func(n int) []byte {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		return buf[:n]
	}
	for i := range col.Chunks {
		ch := &col.Chunks[i]
		data, b, err := src.ReadInto(col.Blob, ch.Off, ch.Size, alloc)
		if err != nil {
			return err
		}
		buf = b
		ch.CRC = colbm.Checksum(data)
		if err := w.Append(data); err != nil {
			return err
		}
	}
	return nil
}

// termsWithout returns the terms of the dictionary that have no skyline
// in sky.
func termsWithout(terms map[string]ir.TermInfo, sky []ir.Skyline) []string {
	has := make(map[string]bool, len(sky))
	for _, s := range sky {
		has[s.Term] = true
	}
	rest := make([]string, 0, len(terms)-len(has))
	for t := range terms {
		if !has[t] {
			rest = append(rest, t)
		}
	}
	return rest
}

// buildSegment finishes a build of segment name of dir straight into the
// segment's directory: build writes its columns through a FileStore there
// (under the TablePrefix "<name>.", which the caller set on the build's
// configuration), and writeSegment adds the manifest, which is returned.
// The index is closed on return.
func buildSegment(dir, name string, build func(colbm.BlockStore) (*ir.Index, error)) (*Manifest, error) {
	segDir := filepath.Join(dir, name)
	fs, err := NewFileStore(segDir)
	if err != nil {
		return nil, err
	}
	ix, err := build(fs)
	if err != nil {
		fs.Close()
		return nil, err
	}
	defer ix.Close()
	return writeSegment(segDir, ix)
}

// verifyIndexFiles cross-checks a manifest against the directory's column
// files before any query trusts it: every referenced column file must
// exist with exactly the manifest's size, and no unreferenced .col file
// may be present. Failing eagerly with the offending file named beats the
// alternative — a stray or truncated blob surfacing as a decode error in
// the middle of some later query.
func verifyIndexFiles(dir string, m *Manifest) error {
	want := make(map[string]int, len(m.TD.Columns)+len(m.D.Columns)+len(m.T.Columns))
	for _, st := range m.tables() {
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

// openSegment opens segment seg of the index directory dir for querying
// ("." is the legacy one-segment layout) from its decoded manifest m. The
// only column data read is a format-1 document table's docid column, once,
// to check it is dense (ir.RestoreIndex; a segment that is not fails naming
// its directory, with ir.ErrDocTableNotDense). The rest stays on disk and
// streams in through cache as queries touch it. Every segment of a
// generation opens against the one cache its directory reads through, so
// the byte budget covers the whole directory, not each segment separately.
// The caller owns the returned index: Close it to release the file handles.
// release, when non-nil, runs when that store closes (at once if the open
// fails) — OpenSegmented passes acquireManifest's, so the memoized manifest
// lives as long as the segment. The index shares m's term dictionary, which
// nobody writes, and m's stride-maxima cache.
func openSegment(dir, seg string, m *Manifest, cache *colbm.Manager, release func()) (*ir.Index, error) {
	segDir := filepath.Join(dir, seg)
	fs, err := NewFileStore(segDir)
	if err != nil {
		if release != nil {
			release()
		}
		return nil, err
	}
	fs.release = release
	if err := verifyIndexFiles(segDir, m); err != nil {
		fs.Close()
		return nil, err
	}
	tables := make([]*colbm.Table, 3)
	for i, st := range m.tables() {
		t, err := colbm.OpenTable(*st, fs, cache)
		if err != nil {
			fs.Close()
			return nil, err
		}
		tables[i] = t
	}
	ix, err := ir.RestoreIndex(tables[0], tables[1], tables[2], m.Terms, m.Params,
		m.ScoreLo, m.ScoreHi, fs, cache, m.Config, m.maxima)
	if err != nil {
		fs.Close()
		return nil, fmt.Errorf("storage: segment %q: %w", segDir, err)
	}
	ix.Skylines = m.skylines
	return ix, nil
}
