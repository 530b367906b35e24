// Package topheap provides the fixed-capacity min-heap the paper's top-t
// algorithm (Algorithm 2) maintains: the heap holds the t best-scoring
// intervals seen so far, its minimum is the running "t-th best" budget the
// skip bound is checked against, and insert/extract-min are O(log t).
package topheap

import (
	"fmt"
	"slices"
)

// Item is a scored half-open interval [Start, End).
type Item struct {
	Start int
	End   int
	Score float64
}

// Heap is a min-heap on Score holding at most Cap items.
type Heap struct {
	cap   int
	items []Item
}

// maxPrealloc bounds the items New allocates up front. t can arrive from
// outside the program (a daemon request's "t") and exceed the number of
// candidates the heap will ever be offered by orders of magnitude; past
// this size the heap grows by append as items arrive.
const maxPrealloc = 1024

// New returns an empty heap of capacity t ≥ 1.
func New(t int) (*Heap, error) {
	if t < 1 {
		return nil, fmt.Errorf("topheap: capacity must be >= 1, got %d", t)
	}
	return &Heap{cap: t, items: make([]Item, 0, min(t, maxPrealloc))}, nil
}

// Cap returns the heap capacity t.
func (h *Heap) Cap() int { return h.cap }

// Len returns the number of items currently held.
func (h *Heap) Len() int { return len(h.items) }

// Full reports whether the heap holds Cap items.
func (h *Heap) Full() bool { return len(h.items) == h.cap }

// Budget returns the score below (or at) which a new candidate cannot
// improve the heap: the current minimum when full, and 0 when not full
// (scores are X² values, which are ≥ 0, so any candidate is admissible while
// the heap has room — matching the paper's initialization of the heap with t
// zeros).
func (h *Heap) Budget() float64 {
	if h.Full() {
		return h.items[0].Score
	}
	return 0
}

// Min returns the minimum item. It panics when empty.
func (h *Heap) Min() Item {
	if len(h.items) == 0 {
		panic("topheap: Min of empty heap")
	}
	return h.items[0]
}

// Offer inserts the item if the heap has room or the score beats the current
// minimum; it reports whether the item was retained.
func (h *Heap) Offer(it Item) bool {
	if !h.Full() {
		h.items = append(h.items, it)
		h.siftUp(len(h.items) - 1)
		return true
	}
	if it.Score <= h.items[0].Score {
		return false
	}
	h.items[0] = it
	h.siftDown(0)
	return true
}

// Items returns the heap contents in descending score order (ties broken by
// start then end position for determinism). The heap is not modified. The
// sort is O(t log t): t comes from outside the program and can reach
// hundreds of thousands of held items.
func (h *Heap) Items() []Item {
	out := make([]Item, len(h.items))
	copy(out, h.items)
	slices.SortFunc(out, Item.CompareDesc)
	return out
}

// CompareDesc returns −1 if x precedes y in the canonical descending output
// order — the order Items returns and the sharded merge layer sorts pooled
// candidates in — +1 if it follows, and 0 if neither does.
func (x Item) CompareDesc(y Item) int {
	switch {
	case lessDesc(x, y):
		return -1
	case lessDesc(y, x):
		return 1
	}
	return 0
}

// lessDesc orders by higher score first, then by earlier start, then earlier
// end.
func lessDesc(x, y Item) bool {
	if x.Score != y.Score {
		return x.Score > y.Score
	}
	if x.Start != y.Start {
		return x.Start < y.Start
	}
	return x.End < y.End
}

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Score <= h.items[i].Score {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Heap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.items[l].Score < h.items[smallest].Score {
			smallest = l
		}
		if r < n && h.items[r].Score < h.items[smallest].Score {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
