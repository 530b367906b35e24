package counts

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/alphabet"
)

// DefaultInterval is the default (and maximum) checkpoint spacing B. Within
// a block every per-symbol count can grow by at most B−1 = 15, which is
// exactly what a nibble holds — the invariant the delta encoding below is
// built on.
const DefaultInterval = 16

// Checkpointed stores cumulative counts sparsely: one block per B text
// positions, holding the full k-vector of cumulative int32 counts at the
// block's start followed by, for each of the B positions, the k per-symbol
// increments since the block start packed as nibbles. A cumulative probe is
// therefore one block fetch plus a nibble-group extraction — no text walk,
// no data-dependent loop:
//
//	cum[pos][c] = row[c] + nibble(pos mod B, c)
//
// The nibble deltas are sound because a count can grow by at most B−1 = 15
// inside a block, whatever the alphabet size. Memory per position is
// 4k/B + k/2 bytes against Prefix's 4k — a uniform 5.3× smaller at the
// default B=16 for every k — and the probe's
// entire working set is one contiguous block (4k + 8k bytes), sized and
// laid out to be touched by a single cache fetch at small k.
//
// The scan engine's rolling cursor probes the index only at chain-cover
// skip landings and row starts, so the compact form scans within a few
// percent of dense counts, or faster (BENCH_10.json), while the long-lived
// daemon holds ~5× more corpora in the same RAM.
type Checkpointed struct {
	k      int
	n      int
	b      int  // checkpoint interval, a power of two in [4, 16]
	shift  uint // log2(b): block lookup is a shift, never a division
	stride int  // words per block: k count words + b·k/8 (rounded up) delta words
	// blocks holds the block data plus one trailing padding word so that
	// two-word nibble-group reads never run off the end.
	blocks []uint32

	// The final (possibly partial) block may live OUTSIDE blocks: an index
	// published as an Appender epoch shares every full block with the
	// appender's storage but owns a private copy of the tail block, so the
	// appender can keep extending the corpus without ever writing a word a
	// published epoch can read. tail always has stride+1 words (block image
	// plus the padding word the two-word group reads rely on); tailBase is
	// the word offset the tail block would occupy in a contiguous image —
	// every probe with base ≥ tailBase is served from tail instead. Plain
	// indexes alias tail into blocks, so the dispatch is a no-op for them.
	tail     []uint32
	tailBase int
	// contig reports that blocks alone is the complete contiguous image
	// (tail is an alias into it) — the representation Words and WriteTo can
	// serve with no copying.
	contig bool

	// The probe shape, set at construction by setProbeShape. lanes marks
	// alphabets whose whole nibble group fits one uint64 fetch (GroupFits):
	// their probes fetch the group once instead of walking nibbles.
	// oneWord additionally marks geometries whose groups never straddle a
	// word boundary, saving the second word read.
	lanes   bool
	oneWord bool
}

// setProbeShape derives the probe shape from the alphabet size.
func (p *Checkpointed) setProbeShape() {
	p.lanes = GroupFits(p.k)
	p.oneWord = 4*p.k <= 32 && 32%(4*p.k) == 0
}

// GroupFits reports whether a whole nibble group of alphabet size k can be
// fetched as one uint64 from the packed block words at every in-block
// offset: the group's word offset is a multiple of gcd(4k, 32) bits, so the
// two-word read covers it iff 32 − gcd(4k, 32) + 4k ≤ 64 — true for k ≤ 10,
// k = 12, and k = 16. Other alphabets (11, 13, 14, 15, and k > 16) extract
// nibble by nibble.
func GroupFits(k int) bool {
	return k >= 2 && (k <= 10 || k == 12 || k == 16)
}

// NewCheckpointed builds the block index for s over an alphabet of size k
// with a checkpoint every interval positions. interval < 1 selects
// DefaultInterval; other values are rounded to a power of two and clamped
// to [4, 16] (the nibble encoding caps a block at 16 positions).
func NewCheckpointed(s []byte, k, interval int) (*Checkpointed, error) {
	if err := alphabet.Validate(s, k); err != nil {
		return nil, err
	}
	if interval < 1 || interval > DefaultInterval {
		interval = DefaultInterval
	}
	shift := uint(2)
	for 1<<shift < interval {
		shift++
	}
	interval = 1 << shift
	n := len(s)
	deltaWords := (interval*k*4 + 31) / 32
	stride := k + deltaWords
	nb := n/interval + 1
	blocks := make([]uint32, nb*stride+1)
	lanes := GroupFits(k)
	cum := make([]uint32, k)
	delta := make([]uint32, k)
	for bi := 0; bi < nb; bi++ {
		blk := blocks[bi*stride:]
		copy(blk, cum)
		lo := bi * interval
		hi := min(lo+interval, n)
		// Position off's group encodes s[lo:lo+off), so it is written once
		// symbol off−1 is counted. The final partial block keeps writing
		// groups past the text end: the probe at pos = n lands there.
		// GroupFits alphabets count in the packed group g and tile the
		// block's delta words from it (packGroups); the rest count in delta
		// and write it nibble by nibble.
		if lanes {
			g := packGroups(blk[k:k+deltaWords], s[lo:hi], k, interval)
			for c := range cum {
				cum[c] += uint32(g>>(4*c)) & 15
			}
		} else {
			clear(delta)
			for off := 1; off < interval; off++ {
				if p := lo + off - 1; p < hi {
					delta[s[p]]++
				}
				orNibbles(blk, k, off, delta)
			}
			for c, d := range delta {
				cum[c] += d
			}
		}
		// The block's last symbol is in no group of its own block, so it
		// goes straight into the next block's row; in a packed g, a block
		// of 16 equal symbols would carry it into the next nibble.
		if hi-lo == interval {
			cum[s[hi-1]]++
		}
	}
	return newContiguous(k, n, interval, shift, stride, blocks), nil
}

// newContiguous wraps a complete contiguous block image, aliasing the tail
// block in place.
func newContiguous(k, n, interval int, shift uint, stride int, blocks []uint32) *Checkpointed {
	tailBase := (n >> shift) * stride
	p := &Checkpointed{
		k: k, n: n, b: interval, shift: shift, stride: stride,
		blocks:   blocks,
		tail:     blocks[tailBase:],
		tailBase: tailBase,
		contig:   true,
	}
	p.setProbeShape()
	return p
}

// packGroups writes the delta words dw of one block of a GroupFits
// alphabet whose symbols are blk (at most interval of them; a final partial
// block repeats its last group to the block end). Group off is the packed
// count of blk[:off]; the groups are laid end to end into a 64-bit register
// and each word is stored once, when full — no read-modify-write of the
// image. It returns the last group, the count of blk's first interval−1
// symbols. pending is each group's bit offset in its first word, and a
// GroupFits group spans at most two words from there (as orGroup relies
// on), so no group runs past the register.
func packGroups(dw []uint32, blk []byte, k, interval int) (g uint64) {
	width := uint(4 * k)
	counted := min(len(blk), interval-1)
	var acc uint64 // pending bits, lowest first
	var pending uint
	w := 0
	for off := range interval {
		acc |= g << pending
		pending += width
		for pending >= 32 {
			dw[w] = uint32(acc)
			w++
			acc >>= 32
			pending -= 32
		}
		if off < counted {
			g += 1 << (4 * blk[off])
		}
	}
	if pending > 0 {
		dw[w] = uint32(acc)
	}
	return g
}

// orGroup ORs the packed nibble group g (nibble c holds symbol c's
// in-block count) into the group of block offset off of the block image blk,
// whose delta words start at word k: one OR into each of the two words the
// group can span, the second zero unless it straddles. GroupFits alphabets
// only, whose groups never outgrow two words; blk must reach one word past
// the group (every image carries a padding word), and the group's bits must
// still be zero.
func orGroup(blk []uint32, k, off int, g uint64) {
	bit := off * k * 4
	di := k + bit>>5
	g <<= bit & 31
	blk[di] |= uint32(g)
	blk[di+1] |= uint32(g >> 32)
}

// orNibbles is orGroup for any alphabet: it writes the unpacked in-block
// counts delta one nibble at a time. Nibbles are 4-bit aligned, so none
// straddles a word.
func orNibbles(blk []uint32, k, off int, delta []uint32) {
	bit := off * k * 4
	for _, d := range delta {
		blk[k+bit>>5] |= d << (bit & 31)
		bit += 4
	}
}

// CheckpointedWords returns the exact length of the packed block array of a
// checkpointed index over n positions and k symbols at the given interval —
// the size contract FromWords enforces and snapshots record.
func CheckpointedWords(n, k, interval int) int {
	deltaWords := (interval*k*4 + 31) / 32
	stride := k + deltaWords
	return (n/interval+1)*stride + 1
}

// FromWords reconstructs a Checkpointed index directly over an existing
// packed block array, sharing (not copying) words. It is the zero-copy path
// snapshots use to serve an index straight from an mmap'd file: no text
// walk, no rebuild, no heap copy of the blocks.
//
// The geometry is fully validated — k within the alphabet bounds, interval
// a power of two in [4, 16], and len(words) exactly the size NewCheckpointed
// would have produced — so a corrupt or truncated block array is rejected
// here rather than panicking in a probe. The word CONTENTS are trusted:
// callers feeding untrusted bytes must authenticate them first (the
// snapshot layer checksums the whole file), since a forged-but-well-sized
// array yields wrong counts, though never out-of-bounds access (every probe
// offset is derived from the validated geometry).
func FromWords(n, k, interval int, words []uint32) (*Checkpointed, error) {
	if k < 2 || k > alphabet.MaxK {
		return nil, fmt.Errorf("counts: invalid alphabet size %d", k)
	}
	if n < 0 {
		return nil, fmt.Errorf("counts: negative length %d", n)
	}
	if interval < 4 || interval > DefaultInterval || interval&(interval-1) != 0 {
		return nil, fmt.Errorf("counts: checkpoint interval %d is not a power of two in [4, %d]", interval, DefaultInterval)
	}
	shift := uint(2)
	for 1<<shift < interval {
		shift++
	}
	deltaWords := (interval*k*4 + 31) / 32
	stride := k + deltaWords
	if want := CheckpointedWords(n, k, interval); len(words) != want {
		return nil, fmt.Errorf("counts: block array has %d words, want %d for n=%d k=%d interval=%d", len(words), want, n, k, interval)
	}
	return newContiguous(k, n, interval, shift, stride, words), nil
}

// WriteWords streams a packed word array to w as little-endian uint32s, in
// chunks so no O(len) buffer is allocated — the single serialization loop
// shared by Checkpointed.WriteTo and the snapshot encoder.
func WriteWords(w io.Writer, words []uint32) (int64, error) {
	const chunkWords = 8192
	buf := make([]byte, chunkWords*4)
	var written int64
	for off := 0; off < len(words); off += chunkWords {
		end := off + chunkWords
		if end > len(words) {
			end = len(words)
		}
		b := buf[:(end-off)*4]
		for i, v := range words[off:end] {
			binary.LittleEndian.PutUint32(b[i*4:], v)
		}
		n, err := w.Write(b)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// WriteTo streams the contiguous packed block image to w as little-endian
// uint32 words. Together with FromWords it forms the serialization contract
// of the layout: writing ContiguousWords() and reconstructing from the same
// words yields a bit-identical index — for epoch views with a relocated
// tail, the shared full-block prefix and the private tail are stitched back
// into the single-array image the snapshot format stores.
func (p *Checkpointed) WriteTo(w io.Writer) (int64, error) {
	if p.contig {
		return WriteWords(w, p.blocks)
	}
	n, err := WriteWords(w, p.blocks[:p.tailBase])
	if err != nil {
		return n, err
	}
	m, err := WriteWords(w, p.tail[:p.stride+1])
	return n + m, err
}

// K returns the alphabet size.
func (p *Checkpointed) K() int { return p.k }

// Len returns the length of the underlying string.
func (p *Checkpointed) Len() int { return p.n }

// Interval returns the checkpoint spacing B.
func (p *Checkpointed) Interval() int { return p.b }

// BlockIndex returns the word offset of pos's block and pos's offset within
// it — the inline-friendly probe decomposition for hot loops that hold the
// storage directly. A base ≥ the TailBase of Storage() must be served from
// the tail slice at relative base 0.
func (p *Checkpointed) BlockIndex(pos int) (base, off int) {
	return (pos >> p.shift) * p.stride, pos & (p.b - 1)
}

// Storage exposes the probe storage for hot loops: the shared block array,
// the tail-block words, and the word offset at which probes switch from
// blocks to tail. For plain contiguous indexes tail aliases blocks at
// tailBase, so dispatching is semantically a no-op; for epoch views it is
// what keeps concurrent readers off the appender's write frontier. All
// three are shared storage — do not modify.
func (p *Checkpointed) Storage() (blocks, tail []uint32, tailBase int) {
	return p.blocks, p.tail, p.tailBase
}

// RelocatedTailStart returns the first POSITION served from a relocated
// tail block, and whether any is. Contiguous indexes report false: every
// probe may run against the blocks array directly, so hot loops can guard
// their fast path with a single never-taken comparison. Relocated-tail
// epoch views report (n/B)·B: probes at or past it must go through the
// dispatching accessors (CumAt/Vector/Count), which serve them from the
// private tail copy.
func (p *Checkpointed) RelocatedTailStart() (int, bool) {
	if p.contig {
		return 0, false
	}
	return (p.n >> p.shift) << p.shift, true
}

// Words exposes the packed block storage of a contiguous index (shared; do
// not modify). Epoch views with a relocated tail have no single-array
// image; use ContiguousWords, which stitches one together for them.
func (p *Checkpointed) Words() []uint32 { return p.blocks }

// ContiguousWords returns the complete single-array block image — blocks
// itself for plain indexes (zero cost), or a freshly stitched copy for
// epoch views. The result is bit-identical to what NewCheckpointed over the
// same string would build, which is the contract the snapshot encoder and
// the golden append-equivalence tests rely on.
func (p *Checkpointed) ContiguousWords() []uint32 {
	if p.contig {
		return p.blocks
	}
	out := make([]uint32, CheckpointedWords(p.n, p.k, p.b))
	copy(out, p.blocks[:p.tailBase])
	copy(out[p.tailBase:], p.tail[:p.stride+1])
	return out
}

// probe resolves pos to its block storage: the slice holding the block, the
// block's word base within it, and pos's offset inside the block.
func (p *Checkpointed) probe(pos int) (words []uint32, base, off int) {
	base, off = p.BlockIndex(pos)
	if base >= p.tailBase {
		return p.tail, 0, off
	}
	return p.blocks, base, off
}

// nibble returns the in-block increment of symbol c at block offset off
// within the given block storage. Nibbles are 4-bit aligned, so a single
// word read always suffices.
func (p *Checkpointed) nibble(words []uint32, base, off, c int) int {
	bit := (off*p.k + c) * 4
	return int(words[base+p.k+bit>>5] >> (bit & 31) & 15)
}

// groupAt fetches the whole nibble group of block offset off as one uint64.
// Valid only for group-eligible alphabets (GroupFits); the trailing padding
// word every block array and tail copy carries makes the two-word read safe
// at any offset.
func (p *Checkpointed) groupAt(words []uint32, base, off int) uint64 {
	bit := off * p.k * 4
	di := base + p.k + bit>>5
	if p.oneWord {
		return uint64(words[di] >> (bit & 31))
	}
	return (uint64(words[di]) | uint64(words[di+1])<<32) >> (bit & 31)
}

// CumAt fills dst (which must have length k) with the cumulative counts of
// s[0:pos]: one block probe, no walk. Group-eligible alphabets fetch the
// whole nibble group in one read; the rest walk nibbles.
func (p *Checkpointed) CumAt(pos int, dst []int) {
	words, base, off := p.probe(pos)
	row := words[base : base+p.k]
	dst = dst[:len(row)]
	if p.lanes {
		g := p.groupAt(words, base, off)
		for c, v := range row {
			dst[c] = int(int32(v)) + int(g&15)
			g >>= 4
		}
		return
	}
	deltas := words[base+p.k:]
	bit := off * p.k * 4
	for c, v := range row {
		dst[c] = int(int32(v)) + int(deltas[bit>>5]>>(bit&31)&15)
		bit += 4
	}
}

// Vector fills dst (which must have length k) with the count vector of the
// window s[i:j): two block probes, each a group fetch on group-eligible
// alphabets, folded into one loop over the lanes.
func (p *Checkpointed) Vector(i, j int, dst []int) []int {
	if len(dst) != p.k {
		panic(fmt.Sprintf("counts: Vector dst has length %d, want %d", len(dst), p.k))
	}
	wj, bj, oj := p.probe(j)
	wi, bi, oi := p.probe(i)
	if p.lanes {
		gj, gi := p.groupAt(wj, bj, oj), p.groupAt(wi, bi, oi)
		rj := wj[bj : bj+p.k]
		ri := wi[bi : bi+len(rj)]
		dst = dst[:len(rj)]
		for c, v := range rj {
			dst[c] = int(int32(v)) + int(gj&15) - int(int32(ri[c])) - int(gi&15)
			gj >>= 4
			gi >>= 4
		}
		return dst
	}
	for c := range dst {
		dst[c] = int(int32(wj[bj+c])) + p.nibble(wj, bj, oj, c) -
			int(int32(wi[bi+c])) - p.nibble(wi, bi, oi, c)
	}
	return dst
}

// Bytes returns the resident index size — the blocks are the index's
// entire footprint: n·(4k/B + k/2) bytes against Prefix's 4·n·k.
// Epoch views add their private tail block; their blocks may be a shared
// prefix of the appender's storage, so the figure is the bytes this index
// keeps REACHABLE, the number a byte-budgeted cache should charge.
func (p *Checkpointed) Bytes() int {
	if p.contig {
		return len(p.blocks) * 4
	}
	return (len(p.blocks) + len(p.tail)) * 4
}
