// Live-corpus persistence: the appendable layer on top of the snapshot
// store. A live corpus is a directory
//
//	<base64url(name)>.live/
//	    MANIFEST.json      {"version":1,"gen":G}   (atomically replaced)
//	    base-G.snap        sealed snapshot — today's single-file format,
//	                       mmap-served in place exactly like a frozen corpus
//	    wal-G.log          write-ahead log of appended symbol batches,
//	                       group-committed (one fsync covers every record
//	                       queued while the previous fsync was in flight)
//
// An append is durable once a WAL fsync covers its record; the sealed base
// is never rewritten by appends. Recovery opens base-G, replays wal-G through
// the corpus appender (truncating any torn tail a crash left), and the
// corpus answers for its full appended history — bit-identical to a corpus
// that was never restarted. Compact folds the log into a fresh sealed
// base-G+1 (temp+fsync+rename, manifest flipped last), so the corpus stays
// appendable while its durable form returns to one snapshot plus an empty
// log; a crash anywhere during compaction leaves the old generation intact.
//
// Every filesystem operation goes through the store's vfs.FS, so disk
// faults (EIO, ENOSPC, failed fsyncs, crashes mid-sequence) are injectable
// at each step. A corpus whose log cannot be rolled back after a failed
// append degrades instead of dying: reads keep serving, appends return an
// UnavailableError, and the corpus heals itself in process — reopen the
// log, verify the acknowledged prefix, truncate past it — with exponential
// backoff between attempts (see recoverLocked).
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sigsub "repro"
	"repro/internal/counts"
	"repro/internal/snapshot"
	"repro/internal/vfs"
)

// liveExt is the live-corpus directory extension, alongside snapExt files.
const liveExt = ".live"

// manifestName is the generation pointer inside a live directory.
const manifestName = "MANIFEST.json"

// manifest is the durable generation pointer. Gen names the base/wal pair
// currently authoritative; older generations are garbage the moment the
// manifest rename lands.
type manifest struct {
	Version int `json:"version"`
	Gen     int `json:"gen"`
}

func baseName(gen int) string { return fmt.Sprintf("base-%d.snap", gen) }
func walName(gen int) string  { return fmt.Sprintf("wal-%d.log", gen) }

// liveDir returns the live directory path for a corpus name.
func (s *Store) liveDir(name string) string {
	return filepath.Join(s.dir, base64Name(name)+liveExt)
}

// base64Name is the hostile-byte-safe encoding shared with snapshot files.
func base64Name(name string) string {
	f := fileName(name)
	return f[:len(f)-len(snapExt)]
}

// readManifest loads and validates a live directory's manifest; a missing
// or unreadable manifest means the directory is not a (complete) live
// corpus.
func readManifest(fsys vfs.FS, dir string) (manifest, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return manifest{}, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("service: parsing %s: %w", manifestName, err)
	}
	if m.Version != 1 || m.Gen < 0 {
		return manifest{}, fmt.Errorf("service: unsupported manifest version %d gen %d", m.Version, m.Gen)
	}
	return m, nil
}

// writeManifest atomically replaces the manifest and fsyncs the directory,
// the commit point of upgrades and compactions.
func writeManifest(fsys vfs.FS, dir string, m manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, ".manifest.tmp")
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}

// IsLive reports whether name has a complete (manifest-committed) live
// directory.
func (s *Store) IsLive(name string) bool {
	if checkName(name) != nil {
		return false
	}
	_, err := readManifest(s.fs, s.liveDir(name))
	return err == nil
}

// ListLive returns the names of every complete live corpus.
func (s *Store) ListLive() ([]string, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("service: listing store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		base, ok := strings.CutSuffix(e.Name(), liveExt)
		if !ok {
			continue
		}
		name, ok := decodeName(base + snapExt)
		if !ok {
			continue
		}
		if _, err := readManifest(s.fs, filepath.Join(s.dir, e.Name())); err != nil {
			continue // incomplete upgrade or stray directory
		}
		names = append(names, name)
	}
	return names, nil
}

// UpgradeToLive converts a frozen snapshot corpus into a live one: the
// existing snapshot becomes generation 0's sealed base (hardlinked when the
// filesystem allows, copied otherwise), an empty WAL is created, and the
// manifest commit makes the live directory authoritative; only then is the
// frozen file removed. A crash anywhere before the manifest rename leaves
// the frozen corpus untouched (stray half-built directories are ignored by
// ListLive/IsLive and recycled here).
func (s *Store) UpgradeToLive(name string, c *Committer) (*LiveCorpus, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	dir := s.liveDir(name)
	if _, err := readManifest(s.fs, dir); err == nil {
		return s.OpenLive(name, c) // already live
	}
	snapPath := s.path(name)
	if _, err := s.fs.Stat(snapPath); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return nil, fmt.Errorf("service: upgrading corpus %q: %w", name, err)
	}
	// Recycle any stray half-upgrade, then build gen 0.
	if err := s.fs.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("service: upgrading corpus %q: %w", name, err)
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: upgrading corpus %q: %w", name, err)
	}
	basePath := filepath.Join(dir, baseName(0))
	if err := s.fs.Link(snapPath, basePath); err != nil {
		if err := copyFileSync(s.fs, snapPath, basePath); err != nil {
			return nil, fmt.Errorf("service: upgrading corpus %q: %w", name, err)
		}
	}
	wal, err := s.fs.OpenFile(filepath.Join(dir, walName(0)), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: upgrading corpus %q: %w", name, err)
	}
	if err := wal.Sync(); err != nil {
		wal.Close()
		return nil, fmt.Errorf("service: upgrading corpus %q: %w", name, err)
	}
	wal.Close()
	if err := writeManifest(s.fs, dir, manifest{Version: 1, Gen: 0}); err != nil {
		return nil, fmt.Errorf("service: upgrading corpus %q: %w", name, err)
	}
	// The live directory is authoritative; the frozen file is now garbage.
	s.fs.Remove(snapPath)
	return s.OpenLive(name, c)
}

// copyFileSync copies src to dst and fsyncs dst — the hardlink fallback.
func copyFileSync(fsys vfs.FS, src, dst string) error {
	in, err := vfs.Open(fsys, src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := fsys.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		fsys.Remove(dst)
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		fsys.Remove(dst)
		return err
	}
	return out.Close()
}

// OpenLive opens a live corpus: mmap the sealed base, replay the WAL
// through the appender (truncating any torn tail), and position the log for
// further appends, which commit through c — the corpus's only way to make a
// record durable. Queries before the first post-open append are served
// straight from the base mapping when the WAL was empty.
func (s *Store) OpenLive(name string, c *Committer) (*LiveCorpus, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	dir := s.liveDir(name)
	m, err := readManifest(s.fs, dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return nil, fmt.Errorf("service: opening live corpus %q: %w", name, err)
	}
	sn, err := s.openSnapshot(filepath.Join(dir, baseName(m.Gen)))
	if err != nil {
		return nil, fmt.Errorf("service: opening live corpus %q: %w", name, err)
	}
	codec := sn.Codec()
	if codec == nil {
		sn.Close()
		return nil, fmt.Errorf("service: live corpus %q base carries no codec table", name)
	}
	corpus, err := sigsub.NewCorpusFromSnapshot(sn)
	if err != nil {
		sn.Close()
		return nil, fmt.Errorf("service: opening live corpus %q: %w", name, err)
	}

	walPath := filepath.Join(dir, walName(m.Gen))
	wal, err := s.fs.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		sn.Close()
		return nil, fmt.Errorf("service: opening live corpus %q: %w", name, err)
	}
	valid, err := snapshot.ReplayWAL(wal, corpus.Append)
	if err != nil {
		wal.Close()
		sn.Close()
		return nil, fmt.Errorf("service: replaying WAL of corpus %q: %w", name, err)
	}
	// Drop any torn tail so new records append after the valid prefix.
	if err := wal.Truncate(valid); err != nil {
		wal.Close()
		sn.Close()
		return nil, fmt.Errorf("service: truncating torn WAL of corpus %q: %w", name, err)
	}
	if _, err := wal.Seek(valid, io.SeekStart); err != nil {
		wal.Close()
		sn.Close()
		return nil, fmt.Errorf("service: seeking WAL of corpus %q: %w", name, err)
	}
	lc := &LiveCorpus{
		name:      name,
		codec:     codec,
		model:     sn.Model(),
		modelStr:  sn.Model().String(),
		corpus:    corpus,
		store:     s,
		fs:        s.fs,
		dir:       dir,
		gen:       m.Gen,
		wal:       wal,
		walSize:   valid,
		durable:   true,
		committer: c,
	}
	lc.flushCond = sync.NewCond(&lc.mu)
	// The durable replica marker survives restarts: a follower's corpora
	// stay read-only (and resumable at their manifest generation + replayed
	// valid length — the replication cursor) until explicitly promoted.
	lc.replica.Store(s.hasReplicaMarker(name))
	lc.publishProgressLocked()
	return lc, nil
}

// deleteLive removes a live corpus directory, reporting whether one
// existed.
func (s *Store) deleteLive(name string) (bool, error) {
	dir := s.liveDir(name)
	if _, err := s.fs.Stat(dir); errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err := s.fs.RemoveAll(dir); err != nil {
		return false, fmt.Errorf("service: deleting live corpus %q: %w", name, err)
	}
	return true, nil
}

// replicaMarkerName flags a live directory as a follower replica: the
// corpus opens read-only and a replication session may adopt it. Removed
// durably by promotion.
const replicaMarkerName = "REPLICA"

// hasReplicaMarker reports whether name's live directory carries the
// replica marker.
func (s *Store) hasReplicaMarker(name string) bool {
	_, err := s.fs.Stat(filepath.Join(s.liveDir(name), replicaMarkerName))
	return err == nil
}

// writeReplicaMarker durably marks name's live directory as a replica.
func (s *Store) writeReplicaMarker(name string) error {
	dir := s.liveDir(name)
	f, err := s.fs.OpenFile(filepath.Join(dir, replicaMarkerName), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return s.fs.SyncDir(dir)
}

// clearReplicaMarker durably removes the replica marker — the commit point
// of a promotion: after the directory sync, no restart reopens the corpus
// read-only and no replication session adopts it.
func (s *Store) clearReplicaMarker(name string) error {
	dir := s.liveDir(name)
	if err := s.fs.Remove(filepath.Join(dir, replicaMarkerName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return s.fs.SyncDir(dir)
}

// Recovery backoff: the first self-heal attempt is immediate (most log
// failures are transient), then doubles per failed attempt up to the cap.
const (
	recoverBackoffBase = 100 * time.Millisecond
	recoverBackoffMax  = 10 * time.Second
)

// degradedState is the reason a corpus stopped accepting appends, plus the
// self-heal schedule. It is published through an atomic pointer so health
// probes read it without contending on the append mutex (appends hold mu
// across an fsync); all writes happen under mu.
type degradedState struct {
	cause    error
	since    time.Time
	attempts int       // failed recovery attempts so far
	nextTry  time.Time // earliest next automatic recovery attempt
}

// DegradedInfo describes a degraded live corpus for health reporting.
type DegradedInfo struct {
	// Cause is the failure that degraded the corpus (or the latest failed
	// recovery attempt).
	Cause string `json:"cause"`
	// Since is when the corpus degraded.
	Since time.Time `json:"since"`
	// Attempts counts failed in-process recovery attempts.
	Attempts int `json:"attempts"`
	// RetryAfter is how long until the next automatic recovery attempt
	// (zero when one is already allowed).
	RetryAfter time.Duration `json:"retry_after_ns"`
}

// LiveCorpus is an appendable corpus the daemon serves: a sigsub.Corpus for
// epoch-published scanning plus, when backed by a store, the WAL that makes
// each append durable before it is applied. All mutations (Append, Compact,
// Recover, Close) are serialized on the corpus's own mutex; queries run on
// published Views and are never blocked by them.
type LiveCorpus struct {
	name   string
	codec  *sigsub.TextCodec
	model  *sigsub.Model
	corpus *sigsub.Corpus
	// modelStr caches model.String() — Freeze builds an Info per append,
	// and the fmt-heavy render would otherwise run on every ack.
	modelStr string

	// degraded, when non-nil, marks a corpus whose WAL could not be rolled
	// back after a write/sync failure: the on-disk log may hold a record the
	// in-memory corpus never applied, so further appends would let replay
	// diverge from what was acknowledged. Reads keep working; appends refuse
	// with an UnavailableError until recovery re-establishes the invariant
	// (log == acknowledged prefix). Read lock-free; written under mu.
	degraded atomic.Pointer[degradedState]

	// replica marks a follower corpus: scans serve, local mutations refuse
	// with a ReadOnlyError, and ApplyReplicated is the only write path. Set
	// from the durable replica marker at open; cleared by Promote.
	replica atomic.Bool

	// progress publishes the committed (gen, walSize) position lock-free —
	// the replication tap's cursor and wait channel (see replicatap.go).
	// Written under mu via publishProgressLocked.
	progress atomic.Pointer[progressCell]

	// durable is set once at construction: the corpus has a backing store,
	// a WAL and a committer, so it can replicate. Read lock-free.
	durable bool

	// autoCompactBytes, when positive, triggers a background Compact once
	// the acknowledged WAL passes it (set before the corpus is reachable);
	// autoCompacting is the CAS guard keeping at most one such compaction
	// in flight per corpus.
	autoCompactBytes int64
	autoCompacting   atomic.Bool

	mu      sync.Mutex
	store   *Store   // nil for memory-only live corpora
	fs      vfs.FS   // nil when memory-only
	dir     string   // live directory ("" when memory-only)
	gen     int      // current generation
	wal     vfs.File // nil when memory-only
	walSize int64    // bytes of acknowledged (synced + applied) records
	closed  bool

	// Group-commit state (all under mu; nil/zero when memory-only). A
	// durable corpus gets its committer when the store opens it, and every
	// record reaches the log through it. queue holds enqueued-but-unflushed
	// tickets in append order; walBuf holds their framed record bytes, not
	// yet written to the log — the flush lands the whole buffer with ONE
	// write and ONE fsync, so the mutex-serialized cost of an append is a
	// memcpy, not a syscall. flushing marks the one in-flight flush (its
	// batch is detached from queue/walBuf), and flushCond (on mu) lets
	// Compact/Close wait it out. queuedSyms is the symbol count riding the
	// queue, so the corpus-size guard covers not-yet-applied records too.
	// pumping marks a live flushCommit loop (which spans several flush
	// cycles and the yields between them, where flushing is momentarily
	// false): while it is set, appends skip the committer wakeup — the loop
	// collects them itself — and the scheduler's spawned flushes bow out at
	// entry.
	committer   *Committer
	flushCond   *sync.Cond
	flushing    bool
	pumping     bool
	queue       []*commitTicket
	walBuf      []byte
	queuedSyms  int64
	commitStats commitCounters
}

// CommitStats returns the corpus's commit-pipeline counters (zero when
// memory-only). Lock-free.
func (lc *LiveCorpus) CommitStats() CommitStats {
	return lc.commitStats.Stats()
}

// NewLiveCorpus builds a memory-only live corpus from a frozen one — the
// append path of a daemon running without -data-dir. The frozen scanner's
// state is adopted once (O(n)); nothing is persisted.
func NewLiveCorpus(c *Corpus) (*LiveCorpus, error) {
	corpus, err := sigsub.NewCorpusFromScanner(c.Scanner)
	if err != nil {
		return nil, err
	}
	lc := &LiveCorpus{name: c.Name, codec: c.Codec, model: c.Model, modelStr: c.Model.String(), corpus: corpus}
	lc.publishProgressLocked()
	return lc, nil
}

// Name returns the corpus name.
func (lc *LiveCorpus) Name() string { return lc.name }

// Epoch returns the corpus's append epoch (appends applied since this
// process opened it — replayed WAL records count).
func (lc *LiveCorpus) Epoch() uint64 { return lc.corpus.Epoch() }

// View returns the immutable scanner of the current epoch.
func (lc *LiveCorpus) View() *sigsub.Scanner { return lc.corpus.View() }

// Degraded reports the corpus's degraded state, nil when healthy. It never
// blocks on the append path (lock-free read of the published state).
func (lc *LiveCorpus) Degraded() *DegradedInfo {
	d := lc.degraded.Load()
	if d == nil {
		return nil
	}
	retry := time.Until(d.nextTry)
	if retry < 0 {
		retry = 0
	}
	return &DegradedInfo{
		Cause:      d.cause.Error(),
		Since:      d.since,
		Attempts:   d.attempts,
		RetryAfter: retry,
	}
}

// Freeze returns the corpus frozen at the current epoch in the shape the
// executor scans: a transient read-only Corpus whose scanner is the live
// corpus's current View, labeled with the epoch that view was published at
// (the pair is read atomically, so answers computed mid-append never carry
// a neighboring epoch's label).
func (lc *LiveCorpus) Freeze() *Corpus {
	view, epoch := lc.corpus.ViewEpoch()
	c := &Corpus{
		Name:       lc.name,
		Codec:      lc.codec,
		Model:      lc.model,
		modelStr:   lc.modelStr,
		Scanner:    view,
		symbols:    view.Symbols(),
		epoch:      epoch,
		live:       true,
		degraded:   lc.Degraded(),
		generation: lc.WALProgress().Gen,
		replica:    lc.replica.Load(),
	}
	if lc.committer != nil {
		stats := lc.commitStats.Stats()
		c.commit = &stats
	}
	return c
}

// Append encodes text through the corpus codec and appends the symbols
// with the default fsync durability: the call returns only after the
// record's covering fsync (acked ⇒ durable). It returns the number of
// symbols appended. Characters outside the corpus alphabet (fixed at
// upload) reject the whole batch with a validation error. A degraded
// corpus first tries to heal itself (respecting the recovery backoff) and
// refuses with an UnavailableError if it cannot.
func (lc *LiveCorpus) Append(text string) (int, error) {
	return lc.AppendMode(text, DurabilityFsync)
}

// AppendMode is Append with an explicit durability contract: fsync waits
// for the record's covering fsync, relaxed returns once the record is queued
// and leaves the fsync to the committer's interval floor. A memory-only
// corpus has nothing to make durable and applies either mode at once.
func (lc *LiveCorpus) AppendMode(text string, mode Durability) (int, error) {
	if text == "" {
		return 0, badRequest("empty append text")
	}
	symbols, err := lc.codec.Encode(text)
	if err != nil {
		return 0, badRequest("append text: %v (the corpus alphabet is fixed at upload time)", err)
	}
	lc.mu.Lock()
	if lc.closed {
		lc.mu.Unlock()
		return 0, fmt.Errorf("service: corpus %q is closed", lc.name)
	}
	if lc.replica.Load() {
		// A follower's only write path is ApplyReplicated; a local append
		// would fork the replicated history.
		lc.mu.Unlock()
		return 0, &ReadOnlyError{Name: lc.name}
	}
	if d := lc.degraded.Load(); d != nil {
		// Recovery truncates the log to the acknowledged prefix, which
		// would destroy queued-but-uncovered records — wait for the
		// pipeline to fail them first.
		if lc.flushing || len(lc.queue) > 0 || time.Now().Before(d.nextTry) {
			err := lc.unavailableLocked()
			lc.mu.Unlock()
			return 0, err
		}
		if err := lc.recoverLocked(); err != nil {
			err := lc.unavailableLocked()
			lc.mu.Unlock()
			return 0, err
		}
	}
	if int64(lc.corpus.Len())+lc.queuedSyms+int64(len(symbols)) > counts.MaxAppendLen {
		lc.mu.Unlock()
		return 0, badRequest("append of %d symbols would exceed the %d-position corpus limit", len(symbols), counts.MaxAppendLen)
	}
	if lc.wal == nil {
		// Memory-only: nothing to make durable, apply directly.
		err := lc.corpus.Append(symbols)
		lc.mu.Unlock()
		if err != nil {
			return 0, fmt.Errorf("service: appending to corpus %q: %w", lc.name, err)
		}
		return len(symbols), nil
	}
	// Frame the record into the in-memory log buffer under mu, enqueue a
	// ticket, and wait for the covering flush OUTSIDE the lock. Nothing
	// touches the disk here — the flush lands the whole buffer with one
	// write and one fsync — so the serialized cost of an append is encode +
	// memcpy, and neither reads, epoch publishes, nor the appends queueing
	// behind this one wait on I/O. The in-memory corpus advances only after
	// the covering fsync (in flushCommit, in WAL order), so memory never
	// runs ahead of stable storage.
	buf, err := snapshot.AppendWALRecordBuf(lc.walBuf, symbols)
	if err != nil {
		lc.mu.Unlock()
		return 0, fmt.Errorf("service: appending to corpus %q: %w", lc.name, err)
	}
	lc.walBuf = buf
	t := &commitTicket{
		syms:     symbols,
		size:     snapshot.WALRecordSize(len(symbols)),
		relaxed:  mode == DurabilityRelaxed,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	lc.queue = append(lc.queue, t)
	lc.queuedSyms += int64(len(symbols))
	lc.commitStats.pending.Add(1)
	c := lc.committer
	// A live flush loop collects this ticket itself on its next cycle; only
	// an idle pipeline needs the committer woken.
	notify := !lc.pumping
	lc.mu.Unlock()
	if notify {
		c.markDirty(lc, mode == DurabilityFsync)
	}
	if mode == DurabilityRelaxed {
		// Acked on write: the committer's interval floor bounds how long
		// this record can ride the page cache.
		return len(symbols), nil
	}
	<-t.done
	if t.err != nil {
		return 0, t.err
	}
	return len(symbols), nil
}

// flushCommit lands every queued record with one group write + one covering
// fsync and, on success, applies them to the in-memory corpus in WAL order.
// Called by the committer; at most one flush is in flight per corpus
// (flushing), its batch and buffer detached under mu so appends arriving
// during the write+fsync accumulate a fresh batch for the next cycle —
// that handoff is the pipelining that makes the batch window exactly one
// fsync long under load. When the queue refilled during the flush, the same
// goroutine loops and flushes again (after briefly yielding the processor,
// so clients it just acknowledged can re-append into THIS batch instead of
// fragmenting into per-fsync cohorts — the yield is what lets a steady
// population of N appenders converge to N appends per fsync). On failure
// the batch fails AND everything that queued behind it (see
// failBatchLocked).
func (lc *LiveCorpus) flushCommit() {
	first := true
	gathered := false
	for {
		lc.mu.Lock()
		if lc.closed || lc.flushing || (first && lc.pumping) || len(lc.queue) == 0 {
			if !first {
				lc.pumping = false
			}
			lc.mu.Unlock()
			return
		}
		first = false
		lc.pumping = true
		if !gathered {
			// The wakeup that started this flush schedules it AHEAD of any
			// other appenders already in the run queue (Go's runnext slot),
			// so detaching now would flush one record while its peers stand
			// in line. Yield — with pumping set their enqueues skip
			// markDirty — until the queue stops growing (bounded, so a lone
			// appender pays at most one extra scheduler pass), then re-enter
			// the loop to take the gathered batch.
			gathered = true
			for rounds := 0; rounds < 4; rounds++ {
				before := len(lc.queue)
				lc.mu.Unlock()
				runtime.Gosched()
				lc.mu.Lock()
				if len(lc.queue) <= before {
					break
				}
			}
			lc.mu.Unlock()
			continue
		}
		if lc.degraded.Load() != nil {
			// A rollback failed while these records were queued; the log
			// past the acknowledged prefix is untrusted. Fail them.
			lc.failQueueLocked(lc.unavailableLocked())
			lc.pumping = false
			lc.mu.Unlock()
			return
		}
		lc.flushing = true
		batch := lc.queue
		buf := lc.walBuf
		lc.queue, lc.walBuf = nil, nil
		wal := lc.wal
		lc.mu.Unlock()

		var err error
		if _, err = wal.Write(buf); err == nil {
			err = wal.Sync()
		}

		lc.mu.Lock()
		lc.flushing = false
		if err == nil && lc.degraded.Load() != nil {
			// Degraded mid-flush: the log tail is untrusted even though this
			// write+sync succeeded.
			err = fmt.Errorf("corpus degraded during commit")
		}
		if err != nil {
			lc.failBatchLocked(batch, err)
			lc.pumping = false
			lc.flushCond.Broadcast()
			lc.mu.Unlock()
			return
		}
		lc.applyBatchLocked(batch)
		lc.flushCond.Broadcast()
		lc.mu.Unlock()
		// Yield BEFORE deciding whether to keep pumping: the resolve above
		// made this batch's clients runnable, but they have not run yet, so
		// an instantaneous queue check would miss their next records and end
		// the pump — collapsing a steady population of N appenders into
		// one-record scheduler-driven flushes. After the yield their records
		// are queued (pumping suppresses their markDirty) and the whole
		// population rides the next group write. flushing is false here, so
		// a Compact/Close drain can slip in — the checks below cope.
		runtime.Gosched()
		lc.mu.Lock()
		urgent := false
		for _, t := range lc.queue {
			if !t.relaxed {
				urgent = true
				break
			}
		}
		relaxedLeft := !urgent && len(lc.queue) > 0
		if !urgent {
			lc.pumping = false
		}
		lc.mu.Unlock()
		if !urgent {
			if relaxedLeft {
				// Only relaxed (already-acknowledged) records refilled the
				// queue: hand them back to the committer's interval timer
				// instead of fsyncing greedily — batching them up to the
				// floor is the whole point of relaxed mode.
				lc.committer.markDirty(lc, false)
			}
			return
		}
		// Re-gather on the next cycle: stragglers still encoding their next
		// record when the yield above ran join before the batch detaches.
		gathered = false
	}
}

// applyBatchLocked acknowledges a covered (written + fsynced) batch: each
// record is applied to the in-memory corpus in WAL order and the
// acknowledged prefix advances. The batch is counted and the new position
// published BEFORE any ticket resolves, so a returning append always finds
// its own record in CommitStats and WALProgress. Callers hold mu; batch is
// detached from the queue.
func (lc *LiveCorpus) applyBatchLocked(batch []*commitTicket) {
	now := time.Now()
	applied := 0
	var err error
	for _, t := range batch {
		if err = lc.corpus.Append(t.syms); err != nil {
			break
		}
		lc.walSize += t.size
		lc.queuedSyms -= int64(len(t.syms))
		lc.commitStats.pending.Add(-1)
		wait := now.Sub(t.enqueued)
		lc.commitStats.observeWait(wait)
		lc.committer.stats.observeWait(wait)
		applied++
	}
	lc.commitStats.observeBatch(applied)
	lc.committer.stats.observeBatch(applied)
	if err != nil {
		// Can only trip if the corpus-limit guard was bypassed; applying
		// later records would diverge memory order from WAL order, so fail
		// everything from here and drop it from the log (the failed records
		// are fsynced but unacknowledged — rollback truncates them back off).
		lc.failBatchLocked(batch[applied:], err)
	}
	// One covering fsync landed a whole batch: publish once, so the
	// replication tap ships the batch as one frame.
	lc.publishProgressLocked()
	for _, t := range batch[:applied] {
		t.resolve(nil)
	}
}

// failBatchLocked refuses a batch whose group write, covering fsync or
// apply failed, and everything queued behind it (those records were
// ordered after ones that never became durable). The log is rolled back to
// the acknowledged prefix first — degrading the corpus if that fails — so
// a refused appender already sees the state its failure left. Callers hold
// mu; batch is detached from the queue.
func (lc *LiveCorpus) failBatchLocked(batch []*commitTicket, err error) {
	if lc.degraded.Load() == nil {
		lc.rollbackWAL(err)
	}
	cause := fmt.Errorf("service: appending to corpus %q: %w", lc.name, err)
	lc.failTicketsLocked(batch, cause)
	lc.failQueueLocked(cause)
}

// failTicketsLocked fails tickets with cause. Fsync-mode waiters get the
// error; relaxed records were already acknowledged, so their loss is
// counted — the in-process analogue of the crash-loss window. Callers hold
// mu.
func (lc *LiveCorpus) failTicketsLocked(tickets []*commitTicket, cause error) {
	for _, t := range tickets {
		lc.commitStats.pending.Add(-1)
		lc.queuedSyms -= int64(len(t.syms))
		if t.relaxed {
			lc.commitStats.relaxedLost.Add(1)
			lc.committer.stats.relaxedLost.Add(1)
		}
		t.resolve(cause)
	}
}

// failQueueLocked fails every queued ticket (and drops their buffered,
// never-written record bytes). Callers hold mu.
func (lc *LiveCorpus) failQueueLocked(cause error) {
	lc.failTicketsLocked(lc.queue, cause)
	lc.queue = nil
	lc.walBuf = nil
}

// drainLocked completes the commit pipeline for this corpus: waits out an
// in-flight flush, then writes, syncs, and applies (or fails) whatever is
// still queued, synchronously. Compact and Close call it so no ticket is
// left riding a pipeline that is about to lose the log handle. Callers hold
// mu.
func (lc *LiveCorpus) drainLocked() {
	for lc.flushing {
		lc.flushCond.Wait()
	}
	if len(lc.queue) == 0 {
		return
	}
	if lc.degraded.Load() != nil {
		lc.failQueueLocked(lc.unavailableLocked())
		return
	}
	batch := lc.queue
	buf := lc.walBuf
	lc.queue, lc.walBuf = nil, nil
	var err error
	if _, err = lc.wal.Write(buf); err == nil {
		err = lc.wal.Sync()
	}
	if err != nil {
		lc.failBatchLocked(batch, err)
		return
	}
	lc.applyBatchLocked(batch)
}

// rollbackWAL restores the log to the acknowledged prefix after a failed
// group write, replicated-frame write, or sync: everything past walSize is
// a record that was never acknowledged at its promised durability (queued
// records that WERE acked — relaxed mode — are counted as lost by the
// caller), so replay must never see it ahead of a later successful append.
// If the rollback itself fails, the corpus degrades: appends refuse (reads
// keep serving) until in-process recovery — attempted automatically by
// later appends, or on demand via Recover — re-verifies the acknowledged
// prefix on disk. Callers hold mu; queued records were never written, so
// the caller fails them afterwards.
func (lc *LiveCorpus) rollbackWAL(cause error) error {
	err := fmt.Errorf("service: appending to corpus %q: %w", lc.name, cause)
	end := lc.walSize
	if terr := lc.wal.Truncate(end); terr != nil {
		lc.markDegradedLocked(cause)
		return err
	}
	if _, serr := lc.wal.Seek(end, io.SeekStart); serr != nil {
		lc.markDegradedLocked(cause)
		return err
	}
	// Make the rollback itself durable: if the truncation cannot be synced,
	// a crash could still replay the unacknowledged record.
	if serr := lc.wal.Sync(); serr != nil {
		lc.markDegradedLocked(cause)
	}
	return err
}

// markDegradedLocked publishes the degraded state. The first recovery
// attempt is allowed immediately — most log failures are transient — and
// each failed attempt pushes the next one out exponentially. Callers hold
// mu.
func (lc *LiveCorpus) markDegradedLocked(cause error) {
	now := time.Now()
	lc.degraded.Store(&degradedState{cause: cause, since: now, nextTry: now})
}

// retryLaterLocked records a failed recovery attempt and schedules the
// next. Callers hold mu.
func (lc *LiveCorpus) retryLaterLocked(d *degradedState, cause error) error {
	attempts := d.attempts + 1
	backoff := recoverBackoffBase << (attempts - 1)
	if backoff > recoverBackoffMax || backoff <= 0 {
		backoff = recoverBackoffMax
	}
	lc.degraded.Store(&degradedState{
		cause:    cause,
		since:    d.since,
		attempts: attempts,
		nextTry:  time.Now().Add(backoff),
	})
	return fmt.Errorf("service: recovering corpus %q: %w", lc.name, cause)
}

// unavailableLocked shapes the current degraded state into the error the
// append path returns (and the HTTP layer maps to 503 + Retry-After).
func (lc *LiveCorpus) unavailableLocked() error {
	d := lc.degraded.Load()
	if d == nil {
		return nil
	}
	retry := time.Until(d.nextTry)
	if retry < 0 {
		retry = 0
	}
	return &UnavailableError{
		Message:    fmt.Sprintf("corpus %q is degraded (%v); reads keep serving, appends resume after recovery", lc.name, d.cause),
		RetryAfter: retry,
	}
}

// recoverLocked re-establishes the append invariant — on-disk log ==
// acknowledged prefix — without restarting the process. The old handle's
// offset and error state are untrusted after a failed write or sync, so the
// log is reopened fresh, replayed (no-op visitor: memory already holds the
// acknowledged history) to verify the acknowledged bytes are intact, and
// truncated past them to drop whatever the failed append left. If the disk
// lost acknowledged records — valid prefix shorter than what was acked —
// the corpus stays degraded: serving memory is now the only copy, and
// Compact (which seals memory into a fresh base) is the way back to
// durability. Callers hold mu.
func (lc *LiveCorpus) recoverLocked() error {
	d := lc.degraded.Load()
	if d == nil {
		return nil
	}
	wal, err := lc.fs.OpenFile(filepath.Join(lc.dir, walName(lc.gen)), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return lc.retryLaterLocked(d, err)
	}
	fail := func(err error) error {
		wal.Close()
		return lc.retryLaterLocked(d, err)
	}
	valid, err := snapshot.ReplayWAL(wal, func([]byte) error { return nil })
	if err != nil {
		return fail(err)
	}
	if valid < lc.walSize {
		return fail(fmt.Errorf("log holds %d valid bytes but %d were acknowledged; compact to reseal from memory", valid, lc.walSize))
	}
	if err := wal.Truncate(lc.walSize); err != nil {
		return fail(err)
	}
	if err := wal.Sync(); err != nil {
		return fail(err)
	}
	if _, err := wal.Seek(lc.walSize, io.SeekStart); err != nil {
		return fail(err)
	}
	old := lc.wal
	lc.wal = wal
	if old != nil {
		old.Close()
	}
	lc.degraded.Store(nil)
	return nil
}

// Recover attempts in-process recovery immediately, ignoring the backoff
// schedule — the manual override behind POST /v1/corpora/{name}/recover.
// It returns nil when the corpus is healthy (including when it was not
// degraded to begin with).
func (lc *LiveCorpus) Recover() error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.closed {
		return fmt.Errorf("service: corpus %q is closed", lc.name)
	}
	if lc.wal == nil || lc.degraded.Load() == nil {
		return nil
	}
	// Recovery truncates to the acknowledged prefix; fail any queued
	// records first (degraded ⇒ the drain refuses rather than syncs them).
	lc.drainLocked()
	return lc.recoverLocked()
}

// Compact folds the WAL into a fresh sealed base: generation G+1's base
// snapshot (today's single-file format, written temp+fsync+rename) plus an
// empty WAL, committed by the manifest flip; generation G's files are then
// garbage-collected. Memory-only corpora have nothing to compact. Compact
// also heals a degraded corpus: the new base seals the acknowledged
// in-memory state, superseding whatever the broken log held.
func (lc *LiveCorpus) Compact() error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.closed {
		return fmt.Errorf("service: corpus %q is closed", lc.name)
	}
	if lc.wal == nil {
		return badRequest("corpus %q is not durable; nothing to compact", lc.name)
	}
	if lc.replica.Load() {
		// A follower compacting locally would advance its generation past
		// the primary's and desynchronize the cursor; compaction arrives via
		// re-seed instead (Promote clears the flag before its fencing
		// compact).
		return &ReadOnlyError{Name: lc.name}
	}
	// Settle the commit pipeline first: every queued record is either
	// applied (and thus sealed into the new base) or failed before the old
	// log is superseded.
	lc.drainLocked()
	view := lc.corpus.View()
	next := lc.gen + 1

	tmp, err := lc.fs.CreateTemp(lc.dir, ".tmp-base-*")
	if err != nil {
		return fmt.Errorf("service: compacting corpus %q: %w", lc.name, err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		lc.fs.Remove(tmpName)
		return fmt.Errorf("service: compacting corpus %q: %w", lc.name, err)
	}
	if err := sigsub.WriteSnapshot(tmp, view, lc.codec); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		lc.fs.Remove(tmpName)
		return fmt.Errorf("service: compacting corpus %q: %w", lc.name, err)
	}
	if err := lc.fs.Rename(tmpName, filepath.Join(lc.dir, baseName(next))); err != nil {
		lc.fs.Remove(tmpName)
		return fmt.Errorf("service: compacting corpus %q: %w", lc.name, err)
	}
	newWal, err := lc.fs.OpenFile(filepath.Join(lc.dir, walName(next)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("service: compacting corpus %q: %w", lc.name, err)
	}
	if err := newWal.Sync(); err != nil {
		newWal.Close()
		return fmt.Errorf("service: compacting corpus %q: %w", lc.name, err)
	}
	// Commit point: after this rename+dirsync, generation `next` is what a
	// restart opens; before it, generation `gen` still replays identically.
	if err := writeManifest(lc.fs, lc.dir, manifest{Version: 1, Gen: next}); err != nil {
		newWal.Close()
		return fmt.Errorf("service: compacting corpus %q: %w", lc.name, err)
	}
	oldWal, oldGen := lc.wal, lc.gen
	lc.wal, lc.gen, lc.walSize = newWal, next, 0
	// A completed compaction seals the acknowledged in-memory state into
	// the new base, superseding whatever a failed rollback left in the old
	// log — the corpus is healthy again.
	lc.degraded.Store(nil)
	// Wake WAL tails blocked on the old generation: their next read sees
	// the flip and re-seeds from the new base.
	lc.publishProgressLocked()
	oldWal.Close()
	lc.fs.Remove(filepath.Join(lc.dir, baseName(oldGen)))
	lc.fs.Remove(filepath.Join(lc.dir, walName(oldGen)))
	return nil
}

// maybeAutoCompact kicks one background Compact once the acknowledged WAL
// passes the configured threshold. CAS-guarded so at most one auto-compaction
// is in flight per corpus; a compaction that fails (or loses the race with a
// manual one) is simply retried at the next threshold crossing — the corpus
// is correct either way, auto-compaction only bounds replay time and disk.
func (lc *LiveCorpus) maybeAutoCompact() {
	if lc.autoCompactBytes <= 0 || !lc.durable {
		return
	}
	if lc.WALProgress().Offset < lc.autoCompactBytes {
		return
	}
	if !lc.autoCompacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer lc.autoCompacting.Store(false)
		lc.Compact()
	}()
}

// Close fsyncs and releases the WAL handle — the graceful-shutdown path, so
// an acknowledged append never rides only in the page cache when the daemon
// exits voluntarily. Queries on previously obtained Views stay valid;
// further appends fail.
func (lc *LiveCorpus) Close() error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.closed {
		return nil
	}
	if lc.wal != nil {
		// Resolve every in-flight ticket before the handle goes away; an
		// appender must never be left waiting on a closed pipeline.
		lc.drainLocked()
	}
	lc.closed = true
	// Closure is terminal progress: blocked replication tails wake and end.
	lc.publishProgressLocked()
	if lc.wal == nil {
		return nil
	}
	// Every acknowledged append already fsynced; this last sync is belt and
	// braces for the handle's metadata. A degraded corpus may fail it —
	// close anyway.
	serr := lc.wal.Sync()
	cerr := lc.wal.Close()
	if serr != nil && lc.degraded.Load() == nil {
		return serr
	}
	return cerr
}
