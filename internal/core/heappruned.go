package core

import (
	"container/heap"

	"repro/internal/chisq"
)

// HeapPruned is a best-first exact baseline in the spirit of the "heap
// strategy" the paper attributes to [2] (an unpublished thesis, so this is
// a reconstruction from the paper's description). Each start position i
// receives an optimistic upper bound on the X² of every substring starting
// at i — the chain-cover bound of its length-1 prefix extended by the
// remaining n−i−1 characters. Starts are then processed in decreasing bound order with the
// incremental trivial inner scan, and the search stops as soon as the best
// X² found meets or exceeds the best outstanding bound.
//
// The result is exact. The pruning is only effective when the string
// contains a dominant anomaly; on null strings the bounds are loose and the
// scan degenerates to O(n²), consistent with the paper's remark that the
// techniques of [2] bring "no asymptotic improvement".
func (sc *Scanner) HeapPruned() (Scored, Stats) {
	n := len(sc.s)
	best := Scored{X2: -1}
	var st Stats
	if n == 0 {
		return Scored{}, st
	}

	pq := make(startQueue, 0, n)
	vec := make([]int, sc.k)
	for i := 0; i < n; i++ {
		for c := range vec {
			vec[c] = 0
		}
		vec[sc.s[i]] = 1
		x2 := sc.kern.Value(vec)
		bound := x2
		if rest := n - i - 1; rest > 0 {
			bound = sc.kern.CoverBound(vec, 1, x2, rest)
		}
		pq = append(pq, startBound{start: i, bound: bound})
	}
	heap.Init(&pq)

	w := chisq.NewWindow(sc.probs)
	for pq.Len() > 0 {
		top := heap.Pop(&pq).(startBound)
		if top.bound <= best.X2 {
			// Every remaining start is bounded below the answer: done.
			break
		}
		i := top.start
		st.Starts++
		w.Reset()
		for j := i + 1; j <= n; j++ {
			w.Append(sc.s[j-1])
			x2 := w.Value()
			st.Evaluated++
			if x2 > best.X2 {
				best = Scored{Interval{i, j}, x2}
			}
		}
	}
	if best.X2 < 0 {
		return Scored{}, st
	}
	return best, st
}

type startBound struct {
	start int
	bound float64
}

// startQueue is a max-heap on bound.
type startQueue []startBound

func (q startQueue) Len() int            { return len(q) }
func (q startQueue) Less(i, j int) bool  { return q[i].bound > q[j].bound }
func (q startQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *startQueue) Push(x interface{}) { *q = append(*q, x.(startBound)) }
func (q *startQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
