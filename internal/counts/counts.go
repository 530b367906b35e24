// Package counts implements the count index every scan reads window count
// vectors from.
//
// The paper (§2) keeps k prefix arrays: for each symbol c, cum[c][i] stores
// the number of occurrences of c in s[0:i], so the count vector of any
// substring costs O(k). Prefix is exactly those arrays. It is the reference
// the scan engine's tests check against, not a layout scans run on.
//
// Scans run on Checkpointed, which keeps a full cumulative k-vector every B
// positions plus per-position nibble deltas: about 5× smaller than Prefix,
// and read only at the chain-cover scan's row starts and skip landings.
// Appender grows a Checkpointed index in place for live corpora. A probe
// (CumAt, Vector) reads its block's row and, on alphabets whose nibble group
// fits one 64-bit read (GroupFits), fetches the whole group at once, then
// rebuilds the counts in one loop over the k lanes; there is one probe path
// on every build and CPU.
package counts

import (
	"fmt"

	"repro/internal/alphabet"
)

// Prefix holds per-symbol cumulative counts of a symbol string.
type Prefix struct {
	k   int
	n   int
	cum [][]int32
}

// New builds the prefix count arrays for s over an alphabet of size k.
// Counts are stored as int32; strings are limited to 2^31−1 symbols, far
// beyond the n ≤ 10^5..10^6 range of the paper's experiments.
func New(s []byte, k int) (*Prefix, error) {
	if err := alphabet.Validate(s, k); err != nil {
		return nil, err
	}
	n := len(s)
	// One backing allocation sliced into k rows keeps the arrays contiguous.
	backing := make([]int32, k*(n+1))
	cum := make([][]int32, k)
	for c := 0; c < k; c++ {
		cum[c] = backing[c*(n+1) : (c+1)*(n+1)]
	}
	for i, sym := range s {
		for c := 0; c < k; c++ {
			cum[c][i+1] = cum[c][i]
		}
		cum[sym][i+1]++
	}
	return &Prefix{k: k, n: n, cum: cum}, nil
}

// K returns the alphabet size.
func (p *Prefix) K() int { return p.k }

// Len returns the length of the underlying string.
func (p *Prefix) Len() int { return p.n }

// Count returns the number of occurrences of symbol c in the half-open
// window s[i:j). It panics on out-of-range arguments, matching slice
// semantics; scanners always pass validated indices.
func (p *Prefix) Count(c, i, j int) int {
	return int(p.cum[c][j] - p.cum[c][i])
}

// Vector fills dst (which must have length k) with the count vector of the
// window s[i:j) and returns it.
func (p *Prefix) Vector(i, j int, dst []int) []int {
	if len(dst) != p.k {
		panic(fmt.Sprintf("counts: Vector dst has length %d, want %d", len(dst), p.k))
	}
	for c := 0; c < p.k; c++ {
		dst[c] = int(p.cum[c][j] - p.cum[c][i])
	}
	return dst
}

// CumAt fills dst (which must have length k) with the cumulative counts of
// s[0:pos].
func (p *Prefix) CumAt(pos int, dst []int) {
	for c := 0; c < p.k; c++ {
		dst[c] = int(p.cum[c][pos])
	}
}

// Total returns the count vector of the whole string.
func (p *Prefix) Total() []int {
	dst := make([]int, p.k)
	return p.Vector(0, p.n, dst)
}

// Bytes returns the resident index size: k·(n+1) int32 counters.
func (p *Prefix) Bytes() int {
	return p.k * (p.n + 1) * 4
}
