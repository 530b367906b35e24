// Follower-mode executor surface: what internal/replica drives on the
// receiving node. A follower corpus is an ordinary durable LiveCorpus whose
// live directory carries the replica marker — it loads through the normal
// catalog path, serves scans of everything applied, refuses local writes,
// and resumes replication from its own durable state (manifest generation +
// replayed WAL length) with no extra cursor file.
package service

import (
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/vfs"
)

// Live returns the pinned live corpus under name, nil when there is none —
// the handle the replication server and sessions work against.
func (e *Executor) Live(name string) *LiveCorpus {
	return e.liveGet(name)
}

// ReplicaCursor reports where replication of name would resume: the
// committed (generation, offset) position, whether the corpus is a replica,
// and whether it exists locally at all. A missing corpus means "seed from
// scratch"; an existing non-replica corpus means "hands off" (it is either
// local data or a promoted ex-follower).
func (e *Executor) ReplicaCursor(name string) (p WALProgress, isReplica, exists bool) {
	lc := e.liveGet(name)
	if lc == nil {
		return WALProgress{}, false, false
	}
	return lc.WALProgress(), lc.IsReplica(), true
}

// ReplicaApply lands one shipped WAL byte range on the follower corpus.
// See LiveCorpus.ApplyReplicated for the fencing and idempotency contract.
func (e *Executor) ReplicaApply(name string, gen int, off int64, frame []byte) (WALProgress, error) {
	lc := e.liveGet(name)
	if lc == nil {
		return WALProgress{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return lc.ApplyReplicated(gen, off, frame)
}

// ReplicaSeed (re-)creates corpus name from a primary's sealed base
// snapshot at generation gen: the streamed snapshot becomes base-gen.snap
// with an empty log, the live directory is marked as a replica, and the
// corpus is opened and pinned read-only. An existing replica (or a corpus
// that never existed) is replaced wholesale — this is the catch-up path
// when the follower's cursor fell behind the primary's last compaction. An
// existing corpus that is NOT a replica refuses: seeding over local or
// promoted data would destroy a writable history.
func (e *Executor) ReplicaSeed(name string, gen int, snap io.Reader) error {
	if e.Store == nil {
		return badRequest("daemon has no data dir; a follower needs -data-dir to hold replicas")
	}
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	if lc := e.liveGet(name); lc != nil && !lc.IsReplica() {
		return badRequest("corpus %q exists and is not a replica; refusing to overwrite it with a seed", name)
	}
	e.retireLive(name)
	if err := e.Store.seedReplica(name, gen, snap); err != nil {
		return err
	}
	lc, err := e.Store.OpenLive(name, e.committer())
	if err != nil {
		// The seed produced an unopenable corpus (torn stream, bad
		// snapshot); leave nothing behind.
		e.Store.deleteLive(name)
		return fmt.Errorf("service: seeding replica %q: %w", name, err)
	}
	// The live directory is now authoritative for the name: retire any
	// frozen snapshot file and stale cache entry beneath it.
	e.Store.fs.Remove(e.Store.path(name))
	e.liveAdd(lc)
	return nil
}

// Promote seals a replica corpus into a writable primary: the replica
// marker is removed durably, then the corpus compacts — bumping its
// generation past the one shared with the old primary, so the ex-primary's
// frames are fenced by generation check (StaleGenerationError). It returns
// the promoted corpus's info.
func (e *Executor) Promote(name string) (Info, error) {
	lc := e.liveGet(name)
	if lc == nil {
		return Info{}, badRequest("corpus %q is not live; only replica corpora promote", name)
	}
	if err := lc.Promote(); err != nil {
		return Info{}, err
	}
	return lc.Freeze().Info(), nil
}

// seedReplica builds name's live directory from a streamed base snapshot at
// generation gen: base, empty log, replica marker, then the manifest commit
// — ordered so a crash leaves either no complete live directory or a
// complete read-only replica, never a writable half-seed.
func (s *Store) seedReplica(name string, gen int, snap io.Reader) error {
	if err := checkName(name); err != nil {
		return err
	}
	if gen < 0 {
		return badRequest("negative replica generation %d", gen)
	}
	dir := s.liveDir(name)
	if err := s.freshLiveDir(dir); err != nil {
		return fmt.Errorf("service: seeding replica %q: %w", name, err)
	}
	if err := vfs.WriteSynced(s.fs, filepath.Join(dir, baseName(gen)), snap); err != nil {
		return fmt.Errorf("service: seeding replica %q: %w", name, err)
	}
	if err := vfs.WriteSynced(s.fs, filepath.Join(dir, walName(gen)), nil); err != nil {
		return fmt.Errorf("service: seeding replica %q: %w", name, err)
	}
	if err := s.writeReplicaMarker(name); err != nil {
		return fmt.Errorf("service: seeding replica %q: %w", name, err)
	}
	if err := writeManifest(s.fs, dir, manifest{Version: 1, Gen: gen}); err != nil {
		return fmt.Errorf("service: seeding replica %q: %w", name, err)
	}
	return nil
}
