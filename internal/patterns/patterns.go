// Package patterns locates recurrences of significant substrings using the
// standard library's suffix array. The paper notes (§2) that suffix trees do
// not help *find* the MSS — the statistic depends only on counts — but once
// a significant window is found, applications like intrusion detection
// (paper §1) want to know whether the same pattern recurs elsewhere in the
// stream. This package provides that second step.
package patterns

import (
	"fmt"
	"index/suffixarray"
	"sort"

	"repro/internal/core"
)

// Index wraps a suffix array over a symbol string.
type Index struct {
	s  []byte
	sa *suffixarray.Index
}

// New builds the index in O(n) expected time.
func New(s []byte) *Index {
	return &Index{s: s, sa: suffixarray.New(s)}
}

// Len returns the indexed string length.
func (ix *Index) Len() int { return len(ix.s) }

// Occurrences returns the sorted start offsets of every occurrence of the
// window s[iv.Start:iv.End] in the whole string (the window itself
// included).
func (ix *Index) Occurrences(iv core.Interval) ([]int, error) {
	if iv.Start < 0 || iv.End > len(ix.s) || iv.Start >= iv.End {
		return nil, fmt.Errorf("patterns: invalid interval %v for string of length %d", iv, len(ix.s))
	}
	pat := ix.s[iv.Start:iv.End]
	offs := ix.sa.Lookup(pat, -1)
	sort.Ints(offs)
	return offs, nil
}

// Recurrence describes how often a significant window's exact content
// repeats.
type Recurrence struct {
	Window      core.Scored
	Occurrences []int // sorted start offsets, including the window itself
}

// Count returns the number of occurrences.
func (r Recurrence) Count() int { return len(r.Occurrences) }

// FindRecurring scans for the top-t disjoint significant windows of sc with
// length ≥ minLen and annotates each with every position where its exact
// symbol content recurs. Windows whose content appears at least minCount
// times are returned, strongest first.
func FindRecurring(sc *core.Scanner, t, minLen, minCount int) ([]Recurrence, error) {
	if minCount < 1 {
		minCount = 1
	}
	tops := sc.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindDisjoint, T: t, MinLen: minLen, Hi: sc.Len()})
	if tops.Err != nil {
		return nil, tops.Err
	}
	ix := New(sc.Symbols())
	var out []Recurrence
	for _, w := range tops.Results {
		occ, err := ix.Occurrences(w.Interval)
		if err != nil {
			return nil, err
		}
		if len(occ) >= minCount {
			out = append(out, Recurrence{Window: w, Occurrences: occ})
		}
	}
	return out, nil
}
