// Package core implements every substring-mining algorithm the paper
// discusses:
//
//   - the trivial O(n²) scans (direct and with O(1) incremental X² updates),
//   - the paper's contribution — the chain-cover skip algorithms for the
//     MSS (Algorithm 1), Top-t (Algorithm 2), Threshold (Algorithm 3), and
//     Min-length (§6.3) problems, which run in O(k·n^{3/2}) with high
//     probability,
//   - the best-first "heap strategy" baseline attributed to [2], and
//   - the ARLM and AGMM walk-extrema heuristics of Dutta & Bhattacharya [9].
//
// All scanners operate on symbol strings ([]byte of indices < k) under a
// fixed multinomial model, report results as half-open intervals, and count
// the number of substrings evaluated so experiments can reproduce the
// paper's iteration plots exactly, independent of machine speed.
package core

import (
	"fmt"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/chisq"
	"repro/internal/counts"
)

// Interval is a half-open substring [Start, End) of the scanned string.
type Interval struct {
	Start int
	End   int
}

// Len returns the substring length.
func (iv Interval) Len() int { return iv.End - iv.Start }

// String renders the interval as [start, end).
func (iv Interval) String() string { return fmt.Sprintf("[%d, %d)", iv.Start, iv.End) }

// Scored is an interval with its chi-square value.
type Scored struct {
	Interval
	X2 float64
}

// Stats counts the work a scan performed. Evaluated is the paper's
// "number of iterations": how many substrings had their X² computed.
type Stats struct {
	Evaluated int64 // substrings whose X² was computed
	Skipped   int64 // substrings proven irrelevant by the chain-cover bound
	Starts    int64 // start positions visited
}

// Total returns Evaluated + Skipped — the number of substrings accounted
// for, equal to n(n+1)/2 for complete scans.
func (st Stats) Total() int64 { return st.Evaluated + st.Skipped }

// Scanner binds a symbol string to a model and owns the count index shared
// by all algorithms. A Scanner is cheap to build (O(nk)) and may be reused
// for any number of scans; after construction it is read-only, so any
// number of scans (sequential or on the parallel engine) may run on one
// Scanner concurrently — each scan allocates its own O(k) scratch, and the
// long-lived service layer relies on this to serve simultaneous queries
// from one cached corpus.
//
// The count index is a counts.Checkpointed. The exact scans run on the
// rolling cursor (chisq.Roll), which touches the index only at row starts
// and chain-cover skip landings; the chi-square kernels run through
// chisq.Kernel, which hoists the reciprocal probabilities out of the hot
// loops.
type Scanner struct {
	s     []byte
	model *alphabet.Model
	probs []float64
	k     int
	pre   *counts.Checkpointed
	kern  *chisq.Kernel

	// rollPool recycles scan cursors: a composite query (the disjoint peel)
	// or a worker pool issues many scans on one Scanner, and each cursor
	// carries O(k) scratch that would otherwise churn per scan. Pooled
	// cursors need no reset — Begin reinitializes every field a scan reads.
	rollPool sync.Pool
}

// NewScanner validates s against the model and builds the checkpointed
// count index at the default interval.
func NewScanner(s []byte, m *alphabet.Model) (*Scanner, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	pre, err := counts.NewCheckpointed(s, m.K(), 0)
	if err != nil {
		return nil, err
	}
	return NewScannerFromIndexTrusted(s, m, pre)
}

// NewScannerFromIndex builds a Scanner over an existing count index — the
// zero-copy path snapshots use: s and pre may alias an mmap'd file, and no
// index is rebuilt. The symbols are validated against the model (the index
// geometry was validated by whoever built pre), and the index must describe
// exactly this string: same length, same alphabet size.
func NewScannerFromIndex(s []byte, m *alphabet.Model, pre *counts.Checkpointed) (*Scanner, error) {
	if m != nil {
		if err := alphabet.Validate(s, m.K()); err != nil {
			return nil, err
		}
	}
	return NewScannerFromIndexTrusted(s, m, pre)
}

// NewScannerFromIndexTrusted is NewScannerFromIndex minus the O(n)
// re-validation of the symbol string — the epoch-publish path of an
// appendable corpus, whose symbols were each validated on ingest; walking
// the whole corpus again per published epoch would make publishing O(n)
// instead of O(k). Callers must guarantee every symbol is < m.K().
func NewScannerFromIndexTrusted(s []byte, m *alphabet.Model, pre *counts.Checkpointed) (*Scanner, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if pre == nil {
		return nil, fmt.Errorf("core: nil count index")
	}
	if pre.Len() != len(s) || pre.K() != m.K() {
		return nil, fmt.Errorf("core: count index covers n=%d k=%d, string has n=%d k=%d", pre.Len(), pre.K(), len(s), m.K())
	}
	probs := m.Probs()
	return &Scanner{
		s:     s,
		model: m,
		probs: probs,
		k:     m.K(),
		pre:   pre,
		kern:  chisq.NewKernel(probs),
	}, nil
}

// Index returns the scanner's count index (shared; read-only).
func (sc *Scanner) Index() *counts.Checkpointed { return sc.pre }

// newRoll takes a rolling cursor from the pool (or builds one) — one per
// scan worker; putRoll returns it when the scan ends.
func (sc *Scanner) newRoll() *chisq.Roll {
	if r, ok := sc.rollPool.Get().(*chisq.Roll); ok {
		return r
	}
	return chisq.NewRoll(sc.kern, sc.pre, sc.s)
}

func (sc *Scanner) putRoll(r *chisq.Roll) { sc.rollPool.Put(r) }

// IndexBytes returns the resident size of the count index in bytes.
func (sc *Scanner) IndexBytes() int { return sc.pre.Bytes() }

// Len returns the string length.
func (sc *Scanner) Len() int { return len(sc.s) }

// Model returns the scanning model.
func (sc *Scanner) Model() *alphabet.Model { return sc.model }

// String returns the scanned symbol string (shared storage; do not modify).
func (sc *Scanner) Symbols() []byte { return sc.s }

// X2 returns the chi-square value of the window s[i:j). It panics if the
// indices are out of range, matching slice semantics.
func (sc *Scanner) X2(i, j int) float64 {
	return sc.kern.Value(sc.pre.Vector(i, j, make([]int, sc.k)))
}

// TotalSubstrings returns n(n+1)/2, the number of non-empty substrings — the
// iteration count of the trivial algorithm.
func (sc *Scanner) TotalSubstrings() int64 {
	n := int64(len(sc.s))
	return n * (n + 1) / 2
}
