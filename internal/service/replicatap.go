// Replication tap: the LiveCorpus surface internal/replica ships WAL bytes
// through. A primary exposes its committed log as (generation, offset)
// byte ranges — the acknowledged prefix of wal-G.log is immutable within a
// generation (rollback only ever truncates unacknowledged bytes), so chunk
// reads run outside the corpus mutex and never contend with appends. A
// follower applies shipped ranges through ApplyReplicated, which keeps the
// primary's invariant (durable before applied) and its byte-identical log:
// the follower's wal-G.log is a prefix of the primary's, so the follower's
// restart/recovery path is the ordinary OpenLive replay with no extra
// cursor file — the manifest generation plus the replayed valid length ARE
// the replication cursor.
//
// Fencing: a follower promoted to primary immediately compacts, bumping its
// generation past the one it shared with the old primary. ApplyReplicated
// rejects frames carrying an older generation with a typed
// StaleGenerationError, so a partitioned ex-primary's stream cannot write
// into a promoted corpus once the partition heals.
package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/snapshot"
	"repro/internal/vfs"
)

// ReadOnlyError marks a mutation attempted on a replica corpus: a follower
// serves scans of everything it has applied but refuses writes until
// promoted (two writers on one replicated log would fork history). The
// HTTP layer maps it to 409 Conflict.
type ReadOnlyError struct {
	Name string
}

func (e *ReadOnlyError) Error() string {
	return fmt.Sprintf("corpus %q is a replica (read-only); promote it to accept writes", e.Name)
}

// IsReadOnly unwraps a ReadOnlyError.
func IsReadOnly(err error) (*ReadOnlyError, bool) {
	var r *ReadOnlyError
	if errors.As(err, &r) {
		return r, true
	}
	return nil, false
}

// StaleGenerationError rejects a replicated frame carrying a generation
// older than the corpus's current one — the fencing check that makes
// promotion safe: the promoted follower compacted to a newer generation, so
// a partitioned ex-primary's frames (still stamped with the shared old
// generation) can never be applied.
type StaleGenerationError struct {
	Name    string
	Frame   int // generation the frame carries
	Current int // corpus's current generation
}

func (e *StaleGenerationError) Error() string {
	return fmt.Sprintf("corpus %q: frame generation %d is fenced (current generation %d)", e.Name, e.Frame, e.Current)
}

// ErrReplicaDiverged reports a replication cursor the primary can no longer
// serve incrementally — the generation moved past it (a compaction) or the
// offset does not meet the log. The follower's move is a full snapshot
// re-seed, not an error retry.
var ErrReplicaDiverged = errors.New("service: replication cursor diverged; re-seed from a snapshot")

// WALProgress is a point in a corpus's committed history: the bytes of
// generation Gen's log that are acknowledged (durable AND applied). It is
// the replication cursor's shape on both ends — what a primary has to ship
// and what a follower has applied.
type WALProgress struct {
	Gen    int   `json:"gen"`
	Offset int64 `json:"offset"`
	// Closed marks a corpus that will never progress again (shutdown).
	Closed bool `json:"-"`
}

// progressCell is one published progress value plus the channel its
// successor closes — the epoch-chan pattern that lets WaitWALProgress block
// on a select (and thus honor a context) instead of a condition variable.
type progressCell struct {
	p       WALProgress
	changed chan struct{}
}

// publishProgressLocked publishes the current (gen, walSize, closed) triple
// and wakes every waiter on the previous value. Callers hold mu (or hold
// the only reference, during construction).
func (lc *LiveCorpus) publishProgressLocked() {
	old := lc.progress.Load()
	lc.progress.Store(&progressCell{
		p:       WALProgress{Gen: lc.gen, Offset: lc.walSize, Closed: lc.closed},
		changed: make(chan struct{}),
	})
	if old != nil {
		close(old.changed)
	}
}

// WALProgress returns the corpus's current committed position. Lock-free.
func (lc *LiveCorpus) WALProgress() WALProgress {
	if c := lc.progress.Load(); c != nil {
		return c.p
	}
	return WALProgress{}
}

// WaitWALProgress blocks until the corpus's committed position moves past
// (gen, offset) — a later offset in the same generation, a different
// generation, or closure — and returns the position that satisfied it. The
// context bounds the wait.
func (lc *LiveCorpus) WaitWALProgress(ctx context.Context, gen int, offset int64) (WALProgress, error) {
	for {
		c := lc.progress.Load()
		if c == nil {
			return WALProgress{}, fmt.Errorf("service: corpus %q publishes no progress", lc.name)
		}
		if c.p.Closed || c.p.Gen != gen || c.p.Offset > offset {
			return c.p, nil
		}
		select {
		case <-ctx.Done():
			return c.p, ctx.Err()
		case <-c.changed:
		}
	}
}

// IsReplica reports whether the corpus is a read-only replica.
func (lc *LiveCorpus) IsReplica() bool { return lc.replica.Load() }

// Durable reports whether the corpus has a backing store and WAL — only
// durable corpora replicate. Immutable after construction.
func (lc *LiveCorpus) Durable() bool { return lc.durable }

// Generation returns the corpus's current WAL generation.
func (lc *LiveCorpus) Generation() int {
	return lc.WALProgress().Gen
}

// ReadWALChunk reads up to max committed bytes of generation gen's log
// starting at off, trimmed to a record boundary so the chunk replays
// standalone (a chunk would only be cut mid-record when max lands inside
// one; the read is then widened to cover that record whole). It returns the
// chunk (nil when the caller is caught up or the generation moved — compare
// the returned progress) and the committed position at call time.
//
// The read itself runs outside the corpus mutex: the committed prefix is
// immutable within a generation, so a fresh read-only handle sees exactly
// those bytes even while appends land. A concurrent Compact may remove the
// log file between the position check and the open; that surfaces as
// ErrReplicaDiverged and the caller re-requests against the new generation.
func (lc *LiveCorpus) ReadWALChunk(gen int, off int64, max int) ([]byte, WALProgress, error) {
	lc.mu.Lock()
	cur := WALProgress{Gen: lc.gen, Offset: lc.walSize, Closed: lc.closed}
	if lc.closed {
		lc.mu.Unlock()
		return nil, cur, fmt.Errorf("service: corpus %q is closed", lc.name)
	}
	if lc.wal == nil {
		lc.mu.Unlock()
		return nil, cur, badRequest("corpus %q is not durable; nothing to replicate", lc.name)
	}
	if gen != lc.gen {
		// Generation moved (compaction): the caller reads cur and re-seeds.
		lc.mu.Unlock()
		return nil, cur, nil
	}
	if off > lc.walSize {
		lc.mu.Unlock()
		return nil, cur, fmt.Errorf("%w: corpus %q offset %d is past the %d committed bytes of generation %d",
			ErrReplicaDiverged, lc.name, off, cur.Offset, cur.Gen)
	}
	if off == lc.walSize {
		lc.mu.Unlock()
		return nil, cur, nil // caught up
	}
	if off < 0 {
		lc.mu.Unlock()
		return nil, cur, badRequest("negative WAL offset %d", off)
	}
	n := lc.walSize - off
	fsys, path := lc.fs, filepath.Join(lc.dir, walName(lc.gen))
	lc.mu.Unlock()

	if max > 0 && int64(max) < n {
		n = int64(max)
	}
	chunk, err := readWALRange(fsys, path, off, n)
	if err != nil {
		return nil, cur, fmt.Errorf("%w: corpus %q: %v", ErrReplicaDiverged, lc.name, err)
	}
	aligned := snapshot.WALAlign(chunk)
	if aligned == 0 {
		// max cut inside the first record: widen the read to exactly that
		// record — an oversized record still ships whole, but the cap keeps
		// meaning "about this many bytes" for everything after it.
		if len(chunk) < 4 {
			if chunk, err = readWALRange(fsys, path, off, 4); err != nil {
				return nil, cur, fmt.Errorf("%w: corpus %q: %v", ErrReplicaDiverged, lc.name, err)
			}
		}
		rec := snapshot.WALRecordSize(int(binary.LittleEndian.Uint32(chunk[:4])))
		if rec > cur.Offset-off {
			return nil, cur, fmt.Errorf("%w: corpus %q: offset %d is not a record boundary of generation %d",
				ErrReplicaDiverged, lc.name, off, cur.Gen)
		}
		if chunk, err = readWALRange(fsys, path, off, rec); err != nil {
			return nil, cur, fmt.Errorf("%w: corpus %q: %v", ErrReplicaDiverged, lc.name, err)
		}
		if aligned = snapshot.WALAlign(chunk); aligned == 0 {
			return nil, cur, fmt.Errorf("%w: corpus %q: offset %d is not a record boundary of generation %d",
				ErrReplicaDiverged, lc.name, off, cur.Gen)
		}
	}
	return chunk[:aligned], cur, nil
}

// readWALRange reads exactly [off, off+n) of path through fsys.
func readWALRange(fsys vfs.FS, path string, off, n int64) ([]byte, error) {
	f, err := vfs.Open(fsys, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReplicaSnapshot opens the current generation's sealed base for streaming
// to a follower, returning the open handle, the generation it seals, and
// its size. The caller must Close the handle. A Compact racing the stream
// may unlink the file; an open OS handle keeps serving the old bytes, and
// the follower's subsequent WAL tail detects the generation flip and
// re-seeds.
func (lc *LiveCorpus) ReplicaSnapshot() (vfs.File, int, int64, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.closed {
		return nil, 0, 0, fmt.Errorf("service: corpus %q is closed", lc.name)
	}
	if lc.wal == nil {
		return nil, 0, 0, badRequest("corpus %q is not durable; nothing to replicate", lc.name)
	}
	path := filepath.Join(lc.dir, baseName(lc.gen))
	st, err := lc.fs.Stat(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("service: snapshotting corpus %q: %w", lc.name, err)
	}
	f, err := vfs.Open(lc.fs, path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("service: snapshotting corpus %q: %w", lc.name, err)
	}
	return f, lc.gen, st.Size(), nil
}

// ApplyReplicated lands one shipped byte range of the primary's log:
// raw record bytes [off, off+len(frame)) of generation gen. Its records
// take the local append path — queued, then landed by one group write and
// fsync before any is applied — so the follower's log stays a bit-identical
// prefix of the primary's (the record framing is deterministic) and its
// commit counters count what it fsyncs.
//
// Out-of-order delivery is absorbed, not trusted: a frame wholly at or
// before the committed position is a duplicate and is skipped; a frame
// starting past it is a gap (ErrReplicaDiverged — the session re-requests
// from its cursor); an overlapping frame applies only its unseen suffix. A
// frame from an older generation is fenced with StaleGenerationError; a
// newer generation means the primary compacted and the follower must
// re-seed (ErrReplicaDiverged).
func (lc *LiveCorpus) ApplyReplicated(gen int, off int64, frame []byte) (WALProgress, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	cur := WALProgress{Gen: lc.gen, Offset: lc.walSize, Closed: lc.closed}
	if lc.closed {
		return cur, fmt.Errorf("service: corpus %q is closed", lc.name)
	}
	if gen < lc.gen {
		// Fencing before any other check: this is the promoted-follower path
		// and must reject regardless of the corpus's replica status.
		return cur, &StaleGenerationError{Name: lc.name, Frame: gen, Current: lc.gen}
	}
	if !lc.replica.Load() {
		return cur, &ReadOnlyError{Name: lc.name}
	}
	if lc.wal == nil {
		return cur, badRequest("corpus %q is not durable; cannot apply replicated frames", lc.name)
	}
	if d := lc.degraded.Load(); d != nil {
		if err := lc.recoverLocked(); err != nil {
			return cur, lc.unavailableLocked()
		}
	}
	if gen > lc.gen {
		return cur, fmt.Errorf("%w: corpus %q frame generation %d is ahead of local generation %d",
			ErrReplicaDiverged, lc.name, gen, lc.gen)
	}
	end := off + int64(len(frame))
	if end <= lc.walSize {
		return cur, nil // duplicate delivery: already committed, skip
	}
	if off > lc.walSize {
		return cur, fmt.Errorf("%w: corpus %q frame starts at %d but only %d bytes are committed",
			ErrReplicaDiverged, lc.name, off, lc.walSize)
	}
	skip := lc.walSize - off // bytes of the frame already committed (overlap)

	// Queue each unseen record while validating the whole frame: every
	// record decodes, the skip point is a boundary, and no torn tail rides
	// along. A bad frame fails its queued records before anything touches
	// the disk.
	var tickets []*commitTicket
	valid, err := snapshot.ReplayWALFrom(bytes.NewReader(frame), skip, func(_ int64, payload []byte) error {
		t, err := lc.enqueueLocked(bytes.Clone(payload), false)
		if err == nil {
			tickets = append(tickets, t)
		}
		return err
	})
	if err == nil && valid != int64(len(frame)) {
		err = fmt.Errorf("frame carries a torn record (%d of %d bytes valid)", valid, len(frame))
	}
	if err != nil {
		err = fmt.Errorf("%w: corpus %q: %v", ErrReplicaDiverged, lc.name, err)
		lc.failQueueLocked(err)
		return cur, err
	}
	// Land the frame exactly as a local group commit: one write, one fsync,
	// then the records applied in WAL order and the progress published once.
	lc.drainLocked()
	for _, t := range tickets {
		if t.err != nil {
			return lc.WALProgress(), t.err
		}
	}
	return lc.WALProgress(), nil
}

// Promote seals a replica into a writable corpus. The replica marker is
// removed durably first (a crash after that leaves a writable corpus that
// no replication session will adopt), then the corpus compacts, bumping its
// generation past the one shared with the old primary — the fence that
// makes a partitioned ex-primary's frames rejectable by generation check.
// Promoting a corpus that is not a replica is a validation error.
func (lc *LiveCorpus) Promote() error {
	lc.mu.Lock()
	if lc.closed {
		lc.mu.Unlock()
		return fmt.Errorf("service: corpus %q is closed", lc.name)
	}
	if !lc.replica.Load() {
		lc.mu.Unlock()
		return badRequest("corpus %q is not a replica; only followers promote", lc.name)
	}
	if lc.store == nil {
		lc.mu.Unlock()
		return badRequest("corpus %q is not durable; nothing to promote", lc.name)
	}
	if err := lc.store.clearReplicaMarker(lc.name); err != nil {
		lc.mu.Unlock()
		return fmt.Errorf("service: promoting corpus %q: %w", lc.name, err)
	}
	lc.replica.Store(false)
	lc.mu.Unlock()
	// Compact bumps the generation (the fence). It takes mu itself.
	if err := lc.Compact(); err != nil {
		return fmt.Errorf("service: promoting corpus %q: %w", lc.name, err)
	}
	return nil
}
