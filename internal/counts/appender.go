package counts

import (
	"fmt"

	"repro/internal/alphabet"
)

// MaxAppendLen is the largest corpus an Appender will grow to: counts are
// served as int32 checkpoint rows, so positions must stay below 2³¹.
const MaxAppendLen = 1<<31 - 1

// Appender builds a Checkpointed index incrementally, one appended symbol
// at a time, in amortized O(k) per symbol — the live-corpus counterpart of
// NewCheckpointed's batch build. It exploits the layout's structure:
//
//   - Blocks are laid out in position order and a block's words are fully
//     determined by the symbols up to its end, so a FULL block never changes
//     once the next block begins. Full blocks are committed to an
//     append-only word array that every published epoch shares — appending
//     never rewrites a committed word, so epochs cost zero copying of old
//     data (the array grows geometrically; the rare growth copy is the only
//     time committed words move, and CopiedBytes accounts for it).
//   - Within the final partial block, the nibble group of position off
//     encodes s[lo:lo+off) — fully determined the moment symbol lo+off−1
//     arrives — so groups are written exactly once, into a private scratch
//     block no published epoch can see.
//
// Snapshot publishes the current prefix as an immutable epoch: a
// Checkpointed whose full blocks alias the committed array (the appender
// only ever writes beyond every published epoch's slice, so readers and the
// writer touch disjoint words — the property the engine's -race tests pin
// down) and whose tail block is a private O(k) copy, finished with the same
// frozen trailing groups NewCheckpointed writes so the epoch's contiguous
// image is bit-identical to a from-scratch build.
//
// An Appender is not safe for concurrent use; callers serialize Append and
// Snapshot (sigsub.Corpus wraps it in exactly that discipline). The
// Checkpointed values Snapshot returns are immutable and safe for any
// number of concurrent readers, including while further symbols are
// appended.
type Appender struct {
	k      int
	b      int
	shift  uint
	stride int

	n  int // symbols appended so far
	lo int // start position of the in-progress tail block: (n/b)*b

	// buf is the committed storage: full blocks 0..n/b−1 at their natural
	// word offsets, followed by the base row (k words) of the in-progress
	// block — pre-committed so an epoch's readers may overhang one group
	// read into it without ever racing a future write.
	buf []uint32

	// scratch is the in-progress tail block image: base row, then nibble
	// groups written once each as symbols arrive, then the padding word.
	// Groups past the current position are zero until the block seals.
	scratch []uint32

	// cum and delta track the running cumulative counts at lo and the
	// in-block increments since lo.
	cum   []uint32
	delta []uint32

	// syms is the full appended symbol string, append-only like buf.
	syms []byte

	// packed mirrors delta as the packed nibble group (nibble c = delta[c])
	// for group-eligible alphabets (lanes): the hot append path then writes
	// a position's whole group with one or two word ORs instead of k. The
	// mirror is updated only while the block has room (off < b, so every
	// nibble is ≤ 15 and the add can never carry into a neighbour lane) and
	// resets with delta at each seal.
	packed uint64
	lanes  bool

	copied int64 // bytes of committed data copied by growth or adoption
}

// NewAppender starts an empty appendable index over an alphabet of size k
// with a checkpoint every interval positions (clamped exactly as
// NewCheckpointed clamps it).
func NewAppender(k, interval int) (*Appender, error) {
	if k < 2 || k > alphabet.MaxK {
		return nil, fmt.Errorf("counts: invalid alphabet size %d", k)
	}
	if interval < 1 || interval > DefaultInterval {
		interval = DefaultInterval
	}
	shift := uint(2)
	for 1<<shift < interval {
		shift++
	}
	interval = 1 << shift
	deltaWords := (interval*k*4 + 31) / 32
	stride := k + deltaWords
	a := &Appender{
		k:       k,
		b:       interval,
		shift:   shift,
		stride:  stride,
		buf:     make([]uint32, k, 16*stride),
		scratch: make([]uint32, stride+1),
		cum:     make([]uint32, k),
		delta:   make([]uint32, k),
		lanes:   GroupFits(k),
	}
	return a, nil
}

// AppendableFrom adopts an existing checkpointed index over s as the
// starting state of an appender — the path a frozen (possibly mmap-served)
// corpus takes when its first live append arrives. The committed prefix and
// the symbol string are copied to appendable heap storage once (O(n),
// charged to CopiedBytes); every subsequent append is amortized O(k).
func AppendableFrom(cp *Checkpointed, s []byte) (*Appender, error) {
	if cp == nil {
		return nil, fmt.Errorf("counts: nil index")
	}
	if cp.Len() != len(s) {
		return nil, fmt.Errorf("counts: index covers %d positions but the string has %d symbols", cp.Len(), len(s))
	}
	if err := alphabet.Validate(s, cp.K()); err != nil {
		return nil, err
	}
	a, err := NewAppender(cp.K(), cp.Interval())
	if err != nil {
		return nil, err
	}
	n := len(s)
	fb := n / a.b
	a.n = n
	a.lo = fb * a.b
	blocks, tail, tailBase := cp.Storage()

	// Committed words: the full blocks plus the tail block's base row.
	a.buf = make([]uint32, fb*a.stride+a.k, (fb+16)*a.stride)
	copy(a.buf, blocks[:tailBase])
	copy(a.buf[tailBase:], tail[:a.k])
	a.copied += int64(len(a.buf)) * 4

	a.syms = make([]byte, n, n+n/2+64)
	copy(a.syms, s)
	a.copied += int64(n)

	// Tail state: base row from the index, groups and deltas replayed from
	// the ≤ B−1 tail symbols.
	for c := 0; c < a.k; c++ {
		a.cum[c] = tail[c]
		a.scratch[c] = tail[c]
	}
	for off, sym := range s[a.lo:] {
		a.delta[sym]++
		if off+1 < a.b {
			orNibbles(a.scratch, a.k, off+1, a.delta)
		}
	}
	if a.lanes {
		for c, d := range a.delta {
			a.packed |= uint64(d) << (4 * c)
		}
	}
	return a, nil
}

// K returns the alphabet size.
func (a *Appender) K() int { return a.k }

// Interval returns the checkpoint spacing B.
func (a *Appender) Interval() int { return a.b }

// Len returns the number of symbols appended so far.
func (a *Appender) Len() int { return a.n }

// CopiedBytes reports how many bytes of already-committed data have been
// copied since construction — geometric growth of the committed arrays plus
// any AppendableFrom adoption. Steady-state appends copy nothing; the ratio
// CopiedBytes/Len is the measured block-sharing cost per appended symbol.
func (a *Appender) CopiedBytes() int64 { return a.copied }

// Symbols returns the appended symbol string as an immutable snapshot
// slice: the appender only ever writes past its length, so the slice stays
// valid and constant while appending continues.
func (a *Appender) Symbols() []byte { return a.syms[:a.n:a.n] }

// Append extends the corpus with batch. Symbols are validated against the
// alphabet first, so a rejected batch leaves the index untouched (no
// partial application). Amortized cost is O(k) per symbol: one nibble-group
// write per symbol plus, once per B symbols, sealing a block into the
// committed array.
func (a *Appender) Append(batch []byte) error {
	for i, sym := range batch {
		if int(sym) >= a.k {
			return fmt.Errorf("counts: append symbol %d at batch offset %d outside alphabet of size %d", sym, i, a.k)
		}
	}
	if int64(a.n)+int64(len(batch)) > MaxAppendLen {
		return fmt.Errorf("counts: appending %d symbols would exceed the %d-position limit", len(batch), MaxAppendLen)
	}
	a.syms = appendSyms(a.syms, batch, &a.copied)
	for _, sym := range batch {
		a.delta[sym]++
		a.n++
		if off := a.n - a.lo; off < a.b {
			if a.lanes {
				// Whole-group write: the packed mirror gains this symbol's
				// increment (no lane carry — at most b−1 increments have
				// happened) and lands with one OR per word it touches.
				a.packed += 1 << (4 * uint(sym))
				orGroup(a.scratch, a.k, off, a.packed)
			} else {
				orNibbles(a.scratch, a.k, off, a.delta)
			}
		} else {
			a.seal()
		}
	}
	return nil
}

// seal commits the completed tail block: its delta words join the committed
// array, the cumulative counts advance, the next block's base row is
// pre-committed, and the scratch resets for the new block.
func (a *Appender) seal() {
	a.buf = appendWords(a.buf, a.scratch[a.k:a.stride], &a.copied)
	for c, d := range a.delta {
		a.cum[c] += d
		a.delta[c] = 0
	}
	a.buf = appendWords(a.buf, a.cum, &a.copied)
	a.lo += a.b
	copy(a.scratch, a.cum)
	clear(a.scratch[a.k:])
	a.packed = 0
}

// Snapshot publishes the current state as an immutable epoch: a
// Checkpointed sharing every committed word with the appender plus a
// private copy of the tail block, finished with the frozen trailing groups
// NewCheckpointed writes so ContiguousWords is bit-identical to a
// from-scratch build over Symbols(). Cost: O(k) — independent of the corpus
// length.
func (a *Appender) Snapshot() *Checkpointed {
	fb := a.n / a.b
	blocks := a.buf[: fb*a.stride+a.k : fb*a.stride+a.k]
	tail := make([]uint32, a.stride+1)
	copy(tail, a.scratch[:a.stride])
	// Trailing groups repeat the frozen delta past the text end, matching
	// the batch builder's image bit for bit. None is ever probed (probes
	// stop at pos = n); bit-identity is what makes epochs and from-scratch
	// indexes interchangeable on disk.
	for off := a.n - a.lo + 1; off < a.b; off++ {
		orNibbles(tail, a.k, off, a.delta)
	}
	p := &Checkpointed{
		k: a.k, n: a.n, b: a.b, shift: a.shift, stride: a.stride,
		blocks:   blocks,
		tail:     tail,
		tailBase: fb * a.stride,
		contig:   false,
	}
	p.setProbeShape()
	return p
}

// appendWords appends src to buf, growing geometrically; growth is the only
// time committed words are copied, and copied accounts for it.
func appendWords(buf, src []uint32, copied *int64) []uint32 {
	if cap(buf)-len(buf) < len(src) {
		newCap := 2 * cap(buf)
		if newCap < len(buf)+len(src) {
			newCap = len(buf) + len(src)
		}
		nb := make([]uint32, len(buf), newCap)
		copy(nb, buf)
		*copied += int64(len(buf)) * 4
		buf = nb
	}
	return append(buf, src...)
}

// appendSyms is appendWords for the symbol string.
func appendSyms(buf, src []byte, copied *int64) []byte {
	if cap(buf)-len(buf) < len(src) {
		newCap := 2 * cap(buf)
		if newCap < len(buf)+len(src) {
			newCap = len(buf) + len(src)
		}
		if newCap < 64 {
			newCap = 64
		}
		nb := make([]byte, len(buf), newCap)
		copy(nb, buf)
		*copied += int64(len(buf))
		buf = nb
	}
	return append(buf, src...)
}
