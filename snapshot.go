package sigsub

import (
	"fmt"
	"io"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/counts"
	"repro/internal/snapshot"
)

// Snapshot is a corpus opened from its durable on-disk form: a ready
// Scanner (and optionally the TextCodec it was uploaded with) served — on
// platforms with mmap — directly from the page cache, with no heap copy of
// the symbol string or count index and no O(n·k) rebuild.
//
// Lifetime: the Scanner returned by Scanner() references the underlying
// file mapping and keeps it alive, so results stay valid even if the
// Snapshot itself becomes unreachable; the mapping is released by the
// garbage collector once neither is reachable, or deterministically by
// Close — after which the Scanner must not be used.
type Snapshot struct {
	scanner *Scanner
	codec   *TextCodec
	model   *Model
	mapping *snapshot.Mapping
	// heapBytes approximates the resident (non-mapped) footprint: decode
	// scratch like the probability vector, plus — on the heap fallback or
	// for unaligned block sections — whichever sections could not be served
	// in place.
	heapBytes int64
}

// WriteSnapshot serializes a complete scannable corpus — model, symbols,
// and the checkpointed count index — to w in the versioned, checksummed
// snapshot format. codec may be nil for symbol-level corpora; when present
// its alphabet table is stored so OpenSnapshot can decode result snippets.
func WriteSnapshot(w io.Writer, s *Scanner, codec *TextCodec) error {
	if s == nil {
		return fmt.Errorf("sigsub: nil scanner")
	}
	if codec != nil && codec.K() != s.k {
		return fmt.Errorf("sigsub: codec has %d symbols but the scanner uses %d", codec.K(), s.k)
	}
	cp := s.sc.Index()
	f := &snapshot.File{
		K:        s.k,
		N:        s.sc.Len(),
		Interval: cp.Interval(),
		Probs:    s.sc.Model().Probs(),
		Symbols:  s.sc.Symbols(),
		// ContiguousWords stitches the single-array image back together for
		// appender-published epoch views (zero cost for plain indexes), so a
		// live corpus snapshots to the exact bytes a from-scratch build
		// would produce.
		Words: cp.ContiguousWords(),
	}
	if codec != nil {
		f.HasCodec = true
		f.Alphabet = codec.Alphabet()
	}
	return snapshot.Encode(w, f)
}

// WriteSnapshot serializes the scanner's corpus without a codec table; use
// the package-level WriteSnapshot to include one.
func (s *Scanner) WriteSnapshot(w io.Writer) error {
	return WriteSnapshot(w, s, nil)
}

// OpenSnapshot opens a snapshot file for serving: the image is mmap'd
// read-only where the platform allows (heap-read otherwise), verified
// against its checksum, bounds-checked field by field, and wrapped in a
// Scanner whose symbol string and count index alias the mapping. Corrupt or
// truncated files return an error — never a panic.
func OpenSnapshot(path string) (*Snapshot, error) {
	f, m, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	sn, err := fromFile(f, m)
	if err != nil {
		m.Close()
		return nil, err
	}
	return sn, nil
}

// ReadSnapshot decodes a snapshot from a stream into heap-backed storage —
// the portable path for pipes and tests; OpenSnapshot is the mmap-backed
// serving path.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	f, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return fromFile(f, nil)
}

// fromFile assembles the public Snapshot from a decoded file, validating
// the semantic layers the format itself cannot: the probabilities must form
// a model and the alphabet table must decode to exactly k characters.
func fromFile(f *snapshot.File, m *snapshot.Mapping) (*Snapshot, error) {
	am, err := alphabet.NewModel(f.Probs)
	if err != nil {
		return nil, fmt.Errorf("sigsub: snapshot model: %w", err)
	}
	cp, err := counts.FromWords(f.N, f.K, f.Interval, f.Words)
	if err != nil {
		return nil, fmt.Errorf("sigsub: snapshot index: %w", err)
	}
	cs, err := core.NewScannerFromIndex(f.Symbols, am, cp)
	if err != nil {
		return nil, fmt.Errorf("sigsub: snapshot scanner: %w", err)
	}
	var codec *TextCodec
	if f.HasCodec {
		codec, err = NewTextCodec(f.Alphabet)
		if err != nil {
			return nil, fmt.Errorf("sigsub: snapshot codec table: %w", err)
		}
		if codec.K() != f.K {
			return nil, fmt.Errorf("sigsub: snapshot codec table has %d distinct characters, want k=%d", codec.K(), f.K)
		}
	}
	sn := &Snapshot{
		scanner:   &Scanner{sc: cs, k: f.K, pin: m},
		codec:     codec,
		model:     &Model{m: am},
		mapping:   m,
		heapBytes: int64(8*len(f.Probs)) + int64(len(f.Alphabet)),
	}
	if m == nil || !m.Mapped() {
		// Heap-backed: the whole image is resident.
		sn.heapBytes += int64(len(f.Symbols)) + int64(4*len(f.Words))
	}
	return sn, nil
}

// Scanner returns the snapshot's ready scanner. It remains valid after the
// Snapshot is garbage-collected (it pins the mapping) but not after Close.
func (sn *Snapshot) Scanner() *Scanner { return sn.scanner }

// Codec returns the codec stored in the snapshot, or nil when the corpus
// was written without one.
func (sn *Snapshot) Codec() *TextCodec { return sn.codec }

// Model returns the snapshot's null model.
func (sn *Snapshot) Model() *Model { return sn.model }

// MappedBytes returns the file-backed bytes the snapshot serves from (0
// when heap-backed).
func (sn *Snapshot) MappedBytes() int64 {
	if sn.mapping != nil && sn.mapping.Mapped() {
		return sn.mapping.Size()
	}
	return 0
}

// HeapBytes returns the resident heap footprint of the opened snapshot —
// what a byte-budgeted cache should charge it. For an mmap-served corpus
// this is a few hundred bytes of decode scratch, not the corpus.
func (sn *Snapshot) HeapBytes() int64 { return sn.heapBytes }

// Close releases the file mapping. Use it in short-lived tools where
// deterministic release matters; long-lived servers may simply drop the
// Snapshot and let the garbage collector unmap. After Close the Scanner
// and any result snippets decoded from it must not be used.
func (sn *Snapshot) Close() error {
	if sn.mapping == nil {
		return nil
	}
	return sn.mapping.Close()
}
