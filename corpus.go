package sigsub

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/counts"
)

// Corpus is an appendable symbol string under a fixed model — the live
// counterpart of the immutable Scanner. Where a Scanner freezes a corpus at
// construction, a Corpus grows by Append and publishes immutable epoch
// Views:
//
//	corpus, _ := sigsub.NewCorpus(model)
//	corpus.Append(events)
//	res, _ := corpus.View().MSS()       // exact, over everything appended
//
// Every View is an ordinary *Scanner pinned to the corpus state at the
// moment it was taken: all query paths — MSS, top-t, threshold, min-length,
// ranges, RunBatch, any workers setting — run on it unchanged and return
// exactly what NewScanner over the concatenation of all appended batches
// would return. Views share the corpus's committed count-index blocks and
// symbol storage with each other and with the appender (only the O(k) tail
// block is copied per epoch), so taking a View costs O(k), not O(n).
//
// Concurrency: Append calls are serialized by the Corpus; View may be
// called from any goroutine at any time, and Scanners obtained from View
// may be queried concurrently with each other AND with in-flight Appends —
// the appender never writes a word a published View can read. An appended
// symbol is visible to Views taken after the Append that carried it
// returns.
type Corpus struct {
	model *Model
	k     int

	mu  sync.Mutex
	app *counts.Appender
	// seed is the epoch-0 view of a snapshot-seeded corpus: served as-is
	// (possibly straight from an mmap) until the first Append adopts it
	// into appendable heap storage. It also pins the snapshot mapping.
	seed *Scanner

	epoch atomic.Uint64
	view  atomic.Pointer[corpusView]
}

// corpusView pairs a published scanner with the epoch it was published at,
// in one pointer, so readers never observe a scanner labeled with a
// neighboring epoch while an append is in flight.
type corpusView struct {
	scanner *Scanner
	epoch   uint64
}

// NewCorpus starts an empty appendable corpus under the model.
func NewCorpus(m *Model) (*Corpus, error) {
	if m == nil {
		return nil, errNilModel
	}
	app, err := counts.NewAppender(m.K(), 0)
	if err != nil {
		return nil, err
	}
	return &Corpus{model: m, k: m.K(), app: app}, nil
}

// NewCorpusFromScanner adopts a frozen Scanner's corpus as the starting
// state of an appendable one. Its committed blocks and symbols are copied
// once into appendable storage, after which appends are amortized O(k) per
// symbol. The scanner itself is untouched.
func NewCorpusFromScanner(s *Scanner) (*Corpus, error) {
	if s == nil {
		return nil, fmt.Errorf("sigsub: nil scanner")
	}
	app, err := counts.AppendableFrom(s.sc.Index(), s.sc.Symbols())
	if err != nil {
		return nil, err
	}
	return &Corpus{model: &Model{m: s.sc.Model()}, k: s.k, app: app}, nil
}

// NewCorpusFromSnapshot opens a durable snapshot as a live corpus. Until
// the first Append, Views are the snapshot's own scanner — served in place
// from the snapshot's mmap, zero-copy, exactly as OpenSnapshot serves it.
// The first Append adopts the sealed state into appendable heap storage
// (one O(n) copy, charged to CopiedBytes); the mapping stays pinned for any
// outstanding epoch-0 Views.
func NewCorpusFromSnapshot(sn *Snapshot) (*Corpus, error) {
	if sn == nil {
		return nil, fmt.Errorf("sigsub: nil snapshot")
	}
	sc := sn.Scanner()
	return &Corpus{model: sn.Model(), k: sc.k, seed: sc}, nil
}

// Model returns the corpus's null model.
func (c *Corpus) Model() *Model { return c.model }

// Epoch returns the number of Append calls applied so far. It increases by
// exactly one per successful Append (failed appends change nothing) and is
// what the daemon reports per corpus in Info and healthz.
func (c *Corpus) Epoch() uint64 { return c.epoch.Load() }

// Len returns the corpus length as of the current epoch.
func (c *Corpus) Len() int { return c.View().Len() }

// CopiedBytes reports the bytes of committed data the corpus has copied —
// snapshot adoption plus geometric growth of the committed arrays. The
// steady-state figure per appended symbol is the measured cost of epoch
// sharing (zero between growths).
func (c *Corpus) CopiedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.app == nil {
		return 0
	}
	return c.app.CopiedBytes()
}

// Append extends the corpus with a batch of symbols. The batch is validated
// against the model's alphabet first and applied atomically: a rejected
// batch leaves the corpus (and its epoch) untouched. Appends are serialized
// with each other but never block queries on previously taken Views; an
// empty batch still advances the epoch (it is a successful append of zero
// symbols).
//
// Cost: amortized O(k) per symbol. For a snapshot-seeded corpus the first
// Append additionally adopts the sealed state into appendable storage, an
// O(n) copy performed once.
func (c *Corpus) Append(syms []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.app == nil {
		app, err := counts.AppendableFrom(c.seed.sc.Index(), c.seed.sc.Symbols())
		if err != nil {
			return err
		}
		c.app = app
	}
	if err := c.app.Append(syms); err != nil {
		return err
	}
	c.view.Store(nil) // republish lazily on the next View
	c.epoch.Add(1)
	return nil
}

// View returns the immutable Scanner of the current epoch: every appended
// symbol up to the last completed Append, nothing of any append that
// completes later. Views are cached per epoch, so repeated calls between
// appends return the same *Scanner; after an Append the next View publishes
// a fresh epoch in O(k).
func (c *Corpus) View() *Scanner {
	sc, _ := c.ViewEpoch()
	return sc
}

// ViewEpoch returns the current epoch's scanner together with the epoch
// number it is pinned to — the pair is published atomically, so the label
// is always consistent with the scanner's contents even while appends are
// in flight.
func (c *Corpus) ViewEpoch() (*Scanner, uint64) {
	if v := c.view.Load(); v != nil {
		return v.scanner, v.epoch
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := c.view.Load(); v != nil {
		return v.scanner, v.epoch
	}
	sc, err := c.publishLocked()
	if err != nil {
		// publishLocked can only fail on geometry corruption, which the
		// appender's own validation rules out; surface loudly if it ever
		// happens rather than hand back a stale epoch.
		panic(fmt.Sprintf("sigsub: publishing corpus view: %v", err))
	}
	// Appends bump the counter under mu, so the load here is the epoch the
	// published state belongs to.
	v := &corpusView{scanner: sc, epoch: c.epoch.Load()}
	c.view.Store(v)
	return v.scanner, v.epoch
}

// publishLocked builds the current epoch's scanner. Callers hold mu.
func (c *Corpus) publishLocked() (*Scanner, error) {
	if c.app == nil {
		return c.seed, nil
	}
	cp := c.app.Snapshot()
	// Symbols were validated on ingest (Append) or adoption; the trusted
	// constructor skips the O(n) re-walk so publishing stays O(k).
	cs, err := core.NewScannerFromIndexTrusted(c.app.Symbols(), c.model.m, cp)
	if err != nil {
		return nil, err
	}
	return &Scanner{sc: cs, k: c.k, pin: c.seed}, nil
}

// AppendText encodes text through codec and appends the symbols — sugar for
// the daemon's text-level append path. The codec's alphabet is fixed;
// characters outside it (or invalid UTF-8) reject the whole batch.
func (c *Corpus) AppendText(codec *TextCodec, text string) error {
	if codec == nil {
		return fmt.Errorf("sigsub: nil codec")
	}
	if codec.K() != c.k {
		return fmt.Errorf("sigsub: codec has %d symbols but the corpus uses %d", codec.K(), c.k)
	}
	syms, err := codec.Encode(text)
	if err != nil {
		return err
	}
	return c.Append(syms)
}
