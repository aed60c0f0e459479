package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Segment shipping. Distributed live ingest commits an append on one
// replica (the primary) and replicates the *committed artifact*: the new
// segment's files are copied chunk-by-chunk into each other replica's
// directory, then the primary's exact SEGMENTS.json bytes are installed
// as the replica's new generation. Segments are immutable, so file
// shipping needs no coordination — only the manifest install is a commit,
// and it goes through the same commit door (commitSegments) local appends
// use, so a shipped install and a local append can never interleave on
// one directory.

// SegmentFileInfo names one file of a committed segment and its size —
// the listing a source hands a pulling replica so chunk transfers know
// exactly what to move.
type SegmentFileInfo struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// validShipName rejects path components that could escape the segment
// directory: shipping verbs carry names straight off the wire.
func validShipName(name string) error {
	if name == "" || name == "." || name == ".." || name != filepath.Base(name) {
		return fmt.Errorf("storage: invalid shipped path component %q", name)
	}
	return nil
}

// SegmentFiles lists a committed segment directory's files (sorted by
// name), sized for chunked transfer.
func SegmentFiles(dir, seg string) ([]SegmentFileInfo, error) {
	if err := validShipName(seg); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Join(dir, seg))
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	files := make([]SegmentFileInfo, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		files = append(files, SegmentFileInfo{Name: e.Name(), Size: fi.Size()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
	return files, nil
}

// ReadSegmentFileAt reads up to n bytes of one segment file starting at
// off — the fetch side of a chunked transfer. A short read at end of
// file is returned, not an error; n is a request from a peer, so the
// buffer is sized by what the file holds past off, not by n.
func ReadSegmentFileAt(dir, seg, file string, off int64, n int) ([]byte, error) {
	if err := validShipName(seg); err != nil {
		return nil, err
	}
	if err := validShipName(file); err != nil {
		return nil, err
	}
	if off < 0 || n <= 0 {
		return nil, fmt.Errorf("storage: read %d bytes at offset %d", n, off)
	}
	f, err := os.Open(filepath.Join(dir, seg, file))
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	buf := make([]byte, max(0, min(int64(n), fi.Size()-off)))
	m, err := f.ReadAt(buf, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return buf[:m], nil
}

// WriteSegmentFileChunk writes one received chunk at its offset,
// creating the segment directory and file as needed — the install side
// of a chunked transfer. Chunks may arrive in any order; nothing here is
// a commit (the file only becomes reachable when InstallManifest lands a
// generation referencing its segment).
func WriteSegmentFileChunk(dir, seg, file string, off int64, data []byte) error {
	if err := validShipName(seg); err != nil {
		return err
	}
	if err := validShipName(file); err != nil {
		return err
	}
	if off < 0 {
		return fmt.Errorf("storage: write at negative offset %d", off)
	}
	if err := os.MkdirAll(filepath.Join(dir, seg), 0o755); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, seg, file), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	if _, err := f.WriteAt(data, off); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// InstallManifest commits shipped super-manifest bytes as the directory's
// new generation, under the writer lock. The install is idempotent and
// monotonic: a directory already at or past the shipped generation is
// left untouched (a re-shipped install hits this), and every segment the
// manifest references must already be fully present — ship the files
// first. Its manifest decodes stay parked for the open that follows. It
// returns the directory's generation after the call (the shipped one, or
// the newer one already installed).
func InstallManifest(dir string, manifest []byte) (uint64, error) {
	sm, err := decodeSegments(dir, manifest)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("storage: %w", err)
	}
	type ref struct {
		segDir string
		e      *memoEntry
	}
	var held []ref
	gen, err := commitSegments(dir, func(cur *SegmentsManifest) ([]byte, error) {
		if cur != nil && cur.Generation >= sm.Generation {
			return nil, nil
		}
		for _, e := range sm.Segments {
			segDir := filepath.Join(dir, e.Name)
			me, err := loadManifest(dir, e.Name, true)
			if err != nil {
				return nil, fmt.Errorf("storage: install of generation %d references segment %q not present in %q (ship its files first): %w",
					sm.Generation, e.Name, dir, err)
			}
			held = append(held, ref{segDir, me})
			// Size-check every column file now: a truncated ship must fail
			// the install, not the first query paging the chunk in.
			if err := verifyIndexFiles(segDir, me.m); err != nil {
				return nil, err
			}
		}
		return manifest, nil
	})
	// A no-op install leaves an earlier one's references parked; a failed
	// one keeps nothing of its own.
	for _, r := range held {
		if err != nil {
			memo.release(r.segDir, r.e)
		} else {
			memo.park(r.segDir, r.e)
		}
	}
	return gen, err
}

// ManifestSegNames decodes committed manifest bytes (as shipped on the
// wire) and returns the segment directory names they reference, in
// docid order — what a replica must hold before installing them.
func ManifestSegNames(manifest []byte) ([]string, error) {
	sm, err := decodeSegments("(shipped manifest)", manifest)
	if err != nil {
		return nil, err
	}
	return sm.Names(), nil
}
