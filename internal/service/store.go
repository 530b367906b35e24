// Disk-backed corpus store: the durable layer behind the daemon's in-memory
// LRU. Every uploaded corpus is serialized to a versioned snapshot file
// (internal/snapshot via sigsub.WriteSnapshot) under one directory; cache
// misses reopen the file mmap'd instead of returning 404, and a daemon
// restart replays the whole catalog, so clients never re-upload.
package service

import (
	"bytes"
	"cmp"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"

	sigsub "repro"
	"repro/internal/snapshot"
	"repro/internal/vfs"
)

// MaxStoredNameBytes caps corpus names a store will persist: names are
// base64url-encoded into file names, and 180 input bytes keep the encoded
// name under every common filesystem's 255-byte component limit.
const MaxStoredNameBytes = 180

// snapExt is the snapshot file extension.
const snapExt = ".snap"

// The temp-file patterns of the store's atomic writes (vfs.WriteAtomic). A
// crash before a write's rename leaves its temp file behind, which List and
// ListLive skip; sweepTemps removes them.
const (
	snapTempPattern     = ".tmp-*"          // snapshots, in the store directory
	baseTempPattern     = ".tmp-base-*"     // compaction bases, in a live directory
	manifestTempPattern = ".manifest-*.tmp" // manifests, in a live directory
)

// Store persists corpora as snapshot files in a single directory. Writes
// go through a temp file plus rename, so a crash mid-upload leaves either
// the old file or the new one, never a torn snapshot; the checksum catches
// any other corruption at load time.
type Store struct {
	dir string
	fs  vfs.FS
}

// NewStore opens (creating if needed) a snapshot directory on the real
// filesystem.
func NewStore(dir string) (*Store, error) {
	return NewStoreFS(dir, vfs.OS)
}

// NewStoreFS is NewStore on an injectable filesystem — the disk-fault and
// crash-consistency tests run the whole store/live-corpus stack on a
// vfs.Faulty this way. Serving falls back from mmap to heap reads when fsys
// is not the real filesystem, so every read stays observable.
func NewStoreFS(dir string, fsys vfs.FS) (*Store, error) {
	if dir == "" {
		return nil, errors.New("service: empty store directory")
	}
	if fsys == nil {
		fsys = vfs.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating store directory: %w", err)
	}
	return &Store{dir: dir, fs: fsys}, nil
}

// openSnapshot opens a snapshot for serving through the store's filesystem:
// mmap'd via the dedicated path on the real filesystem, read through the
// injectable interface otherwise.
func (s *Store) openSnapshot(path string) (*sigsub.Snapshot, error) {
	if vfs.IsOS(s.fs) {
		return sigsub.OpenSnapshot(path)
	}
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return sigsub.ReadSnapshot(bytes.NewReader(data))
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// fileName encodes a corpus name into a safe file name; decodeName inverts
// it. base64url handles path separators, dots, and every other hostile
// byte a URL path segment can smuggle in.
func fileName(name string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(name)) + snapExt
}

func decodeName(file string) (string, bool) {
	base, ok := strings.CutSuffix(file, snapExt)
	if !ok {
		return "", false
	}
	raw, err := base64.RawURLEncoding.DecodeString(base)
	if err != nil {
		return "", false
	}
	return string(raw), true
}

// path returns the snapshot path for a corpus name.
func (s *Store) path(name string) string {
	return filepath.Join(s.dir, fileName(name))
}

// checkName validates a corpus name for persistence.
func checkName(name string) error {
	if name == "" {
		return badRequest("empty corpus name")
	}
	if len(name) > MaxStoredNameBytes {
		return badRequest("corpus name of %d bytes exceeds the %d byte limit for persisted corpora", len(name), MaxStoredNameBytes)
	}
	return nil
}

// Save persists the corpus durably: snapshot to a temp file in the same
// directory, fsync, atomic rename over the final name, then a directory
// fsync, so an acknowledged upload survives a crash.
func (s *Store) Save(c *Corpus) error {
	if err := checkName(c.Name); err != nil {
		return err
	}
	path := s.path(c.Name)
	err := vfs.WriteAtomic(s.fs, path, snapTempPattern, func(w io.Writer) error {
		return sigsub.WriteSnapshot(w, c.Scanner, c.Codec)
	})
	if err == nil && s.fs.Remove(snapshot.SegmentSidecarPath(path)) == nil {
		// An upload replaces whatever was under the name; a stale segment
		// sidecar describing the old snapshot must not outlive it, nor come
		// back after a crash.
		err = s.fs.SyncDir(s.dir)
	}
	if err != nil {
		return fmt.Errorf("service: persisting corpus %q: %w", c.Name, err)
	}
	return nil
}

// Load reopens a persisted corpus, served from an mmap of its snapshot
// file. A missing file reports ErrNotFound.
func (s *Store) Load(name string) (*Corpus, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	sn, err := s.openSnapshot(s.path(name))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return nil, fmt.Errorf("service: loading corpus %q: %w", name, err)
	}
	codec := sn.Codec()
	if codec == nil {
		sn.Close()
		return nil, fmt.Errorf("service: snapshot of corpus %q carries no codec table", name)
	}
	seg, err := s.segmentMeta(name)
	if err != nil {
		sn.Close()
		return nil, err
	}
	if seg != nil && seg.Offset+sn.Scanner().Len() != seg.TotalLen {
		// A sidecar that disagrees with its snapshot means one of the pair
		// was replaced without the other; serving it would translate shard
		// coordinates wrongly.
		sn.Close()
		return nil, fmt.Errorf("service: corpus %q segment sidecar claims symbols [%d, %d) but the snapshot holds %d symbols",
			name, seg.Offset, seg.TotalLen, sn.Scanner().Len())
	}
	return &Corpus{
		Name:    name,
		Codec:   codec,
		Model:   sn.Model(),
		Scanner: sn.Scanner(),
		symbols: sn.Scanner().Symbols(),
		snap:    sn,
		Segment: seg,
	}, nil
}

// segmentMeta reads and validates the corpus's segment sidecar, returning
// nil when the corpus is not a segment (no sidecar file).
func (s *Store) segmentMeta(name string) (*snapshot.SegmentMeta, error) {
	data, err := s.fs.ReadFile(snapshot.SegmentSidecarPath(s.path(name)))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: reading segment sidecar of corpus %q: %w", name, err)
	}
	meta, err := snapshot.ParseSegmentMeta(data)
	if err != nil {
		return nil, fmt.Errorf("service: corpus %q: %w", name, err)
	}
	return &meta, nil
}

// Delete removes the persisted corpus — its snapshot file and, for live
// corpora, the whole live directory — reporting whether either existed.
func (s *Store) Delete(name string) (bool, error) {
	if err := checkName(name); err != nil {
		return false, err
	}
	lived, err := s.deleteLive(name)
	if err != nil {
		return false, err
	}
	// The segment sidecar (if any) goes first: a snapshot without a sidecar
	// is a valid full corpus, a sidecar without its snapshot is a stray.
	s.fs.Remove(snapshot.SegmentSidecarPath(s.path(name)))
	rmErr := s.fs.Remove(s.path(name))
	if rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
		return lived, fmt.Errorf("service: deleting corpus %q: %w", name, rmErr)
	}
	// The removals are acknowledged only once durable: a restart must not
	// resurrect the corpus.
	if err := s.fs.SyncDir(s.dir); err != nil {
		return lived, fmt.Errorf("service: deleting corpus %q: %w", name, err)
	}
	return lived || rmErr == nil, nil
}

// sweepTemps removes the temp files that crashed atomic writes left behind:
// the store directory's snapTempPattern files and each live directory's
// baseTempPattern and manifestTempPattern files. It touches no other name.
// A temp file is only ever live while its write runs, so sweepTemps must
// not run beside a write; the catalog load at startup calls it before any
// corpus opens. It returns the first error and sweeps on past it.
func (s *Store) sweepTemps() error {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("service: sweeping temp files: %w", err)
	}
	first := s.removeMatching(s.dir, entries, snapTempPattern)
	for _, e := range entries {
		if !e.IsDir() || !strings.HasSuffix(e.Name(), liveExt) {
			continue
		}
		dir := filepath.Join(s.dir, e.Name())
		live, err := s.fs.ReadDir(dir)
		if err == nil {
			err = s.removeMatching(dir, live, baseTempPattern, manifestTempPattern)
		}
		first = cmp.Or(first, err)
	}
	if first != nil {
		return fmt.Errorf("service: sweeping temp files: %w", first)
	}
	return nil
}

// removeMatching removes the files among dir's entries whose names match
// one of patterns, returning the first failure.
func (s *Store) removeMatching(dir string, entries []fs.DirEntry, patterns ...string) error {
	var first error
	for _, e := range entries {
		matches := func(pat string) bool { ok, _ := filepath.Match(pat, e.Name()); return ok }
		if e.IsDir() || !slices.ContainsFunc(patterns, matches) {
			continue
		}
		if err := s.fs.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
			first = cmp.Or(first, err)
		}
	}
	return first
}

// List returns the names of every persisted corpus, in directory order.
// Files that are not well-formed snapshot names (temp files, strays) are
// skipped.
func (s *Store) List() ([]string, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("service: listing store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if name, ok := decodeName(e.Name()); ok {
			names = append(names, name)
		}
	}
	return names, nil
}
