package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// ErrConcurrentWriter reports that another writer committed a generation
// of SEGMENTS.json between this writer's read and its commit (or is
// holding the writer lock past the acquisition timeout). The losing
// append has already cleaned up its segment directory; callers retry by
// re-running the append against the new generation.
var ErrConcurrentWriter = errors.New("storage: concurrent segments writer")

// WriterLockName is the cross-handle commit lock file. It exists for
// writers the in-process engine lock cannot see: a second Engine handle
// on the same directory, another process, or a shipped install racing a
// local append. Creation with O_EXCL is the acquisition; the file holds
// the owner's pid. A lock left behind by a crashed process must be
// removed manually (the acquisition error names the path); a copied one
// would wedge the copy's writers behind a writer that never existed there.
const WriterLockName = "SEGMENTS.lock"

// writerLockWait bounds how long an acquirer spins on a held lock before
// giving up with ErrConcurrentWriter. Commits hold the lock for one
// manifest read-modify-write — milliseconds — so a lock held for seconds
// is either a crashed writer or severe contention; both should surface.
const writerLockWait = 2 * time.Second

// acquireWriterLock takes the directory's commit lock, returning the
// release func. It spins (2ms steps) while another writer holds the
// lock, failing with ErrConcurrentWriter after writerLockWait.
func acquireWriterLock(dir string) (func(), error) {
	path := filepath.Join(dir, WriterLockName)
	deadline := time.Now().Add(writerLockWait)
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			return func() { os.Remove(path) }, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("storage: writer lock: %w", err)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("storage: writer lock %q held for over %v (crashed writer? remove the file manually): %w",
				path, writerLockWait, ErrConcurrentWriter)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// commitSegments is the one door every write of SEGMENTS.json goes
// through — the commit point of every append, merge, split, absorb,
// install and fresh directory. Under dir's writer lock it reads the
// current super-manifest (nil when dir holds none) and hands it to fn,
// which makes its own checks and returns the bytes to commit, or nil to
// leave the directory as it is. The bytes must decode as a reader would
// decode them; they are written atomically (temp + rename). Returns the
// directory's generation after the call.
func commitSegments(dir string, fn func(cur *SegmentsManifest) ([]byte, error)) (uint64, error) {
	unlock, err := acquireWriterLock(dir)
	if err != nil {
		return 0, err
	}
	defer unlock()
	cur, err := ReadSegments(dir)
	if errors.Is(err, os.ErrNotExist) {
		cur, err = nil, nil
	}
	if err != nil {
		return 0, err
	}
	data, err := fn(cur)
	if err != nil {
		return 0, err
	}
	if data == nil {
		return cur.generation(), nil
	}
	next, err := decodeSegments(dir, data)
	if err != nil {
		return 0, err
	}
	if err := WriteFileAtomic(dir, ".segments-*", segmentsPath(dir), data); err != nil {
		return 0, fmt.Errorf("storage: write segments manifest: %w", err)
	}
	return next.Generation, nil
}

// commitFresh commits sm as the first super-manifest of dir. A directory
// that already holds an index is refused: a fresh manifest over it would
// orphan what it serves.
func commitFresh(dir string, sm *SegmentsManifest) error {
	_, err := commitSegments(dir, func(cur *SegmentsManifest) ([]byte, error) {
		if cur != nil {
			return nil, fmt.Errorf("storage: %q already holds an index", dir)
		}
		return sm.encode()
	})
	return err
}

func (sm *SegmentsManifest) encode() ([]byte, error) {
	data, err := json.Marshal(sm)
	if err != nil {
		return nil, fmt.Errorf("storage: encode segments manifest: %w", err)
	}
	return data, nil
}

// generation is the manifest's generation, 0 for a directory without one.
func (sm *SegmentsManifest) generation() uint64 {
	if sm == nil {
		return 0
	}
	return sm.Generation
}

// claim records a committed segment name, so name allocation never hands
// it out again.
func (sm *SegmentsManifest) claim(name string) {
	var seq uint64
	fmt.Sscanf(strings.TrimPrefix(name, segDirPrefix), "%d", &seq)
	if seq >= sm.NextSeq {
		sm.NextSeq = seq + 1
	}
}

// newEpoch records a commit that changed the directory's collection (an
// append, a split half, an absorb): a directory owning its statistics
// moves to a new epoch with quantization bounds b, so every segment baked
// before it scores virtually. External directories keep theirs.
func (sm *SegmentsManifest) newEpoch(b bounds) {
	if sm.External {
		return
	}
	sm.StatsEpoch++
	sm.HasBounds, sm.ScoreLo, sm.ScoreHi = b.ok, b.lo, b.hi
}
