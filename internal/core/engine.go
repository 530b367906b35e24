package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/topheap"
)

// This file is the scan engine: Engine, the configuration of a scan, and
// the pass — one chain-cover traversal of a (range, floor) that answers
// every MSS, top-t and threshold query riding it, pruned at the lowest of
// their budgets. Every pass runs one row loop (passSeq, mss.go): on one
// worker over all its rows, or on each chunk of rows a parallel worker
// claims (passParallel); nothing else in the package scans with the chain
// cover.

// Engine configures how a scan executes. Engine{Workers: 1} reproduces the
// paper-faithful sequential scan exactly; the zero value resolves Workers to
// GOMAXPROCS and shards the start positions of the same exact algorithm
// across a worker pool.
//
// Start positions are independent given a skip budget, so the chain-cover
// scan parallelizes by partitioning starts into contiguous chunks that
// workers claim dynamically (starts near the end of the string have shorter
// rows, so static partitioning would be badly imbalanced). Each worker runs
// the one row loop, two rows in flight where the cursors pair, on its own
// clone of the pass — its MSS best and hit lists — and all workers share
// the pass's budget cells: a tight bound found by any worker enlarges every
// other worker's chain-cover skips from its next row or offer.
//
// Determinism: a pass with an MSS member skips against its budget through
// a tiny softening margin (soften), so a substring whose X² exactly equals
// the current best is still evaluated rather than skipped. Combined with a
// lexicographic best-candidate merge ((X², start desc, end asc) — the order
// the sequential right-to-left scan discovers candidates in), the parallel
// scans return the identical interval, X², and Stats.Total() as the
// sequential ones, at the cost of a vanishing number of extra evaluations
// on exact X² ties.
type Engine struct {
	// Workers is the worker-pool size: 1 runs the sequential scan inline;
	// 0 (the zero value) resolves to GOMAXPROCS.
	Workers int
	// stop, when non-nil, is the cooperative-cancellation flag installed by
	// RunQueryContext/RunBatchContext. Every scan loop polls it once per
	// chain-cover start row — the natural preemption point: a row is one
	// budgeted skip chain, so the check amortizes to zero against the row's
	// evaluations and adds nothing to the per-position hot path. A true
	// value abandons the scan; whatever partial state exists is discarded by
	// the context wrapper, and an unset (or never-fired) flag leaves every
	// scan bit-identical to the context-free entry points.
	stop *atomic.Bool
}

// stopped reports whether a cancellation flag is installed and fired.
func (e Engine) stopped() bool { return e.stop != nil && e.stop.Load() }

// workerCount resolves the pool size against the number of start positions.
func (e Engine) workerCount(starts int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > starts {
		w = starts
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chunksPerWorker controls the shard granularity. Rows get longer toward the
// start of the string, so many small chunks claimed dynamically keep the
// pool balanced without a work-stealing scheduler.
const chunksPerWorker = 32

// splitStarts partitions the inclusive start range [lo, hiStart] into at
// most `parts` contiguous chunks {chunkHi, chunkLo}, ordered from the
// highest starts down — the direction the sequential scan visits them.
func splitStarts(lo, hiStart, parts int) [][2]int {
	total := hiStart - lo + 1
	if parts > total {
		parts = total
	}
	chunks := make([][2]int, 0, parts)
	per := total / parts
	rem := total % parts
	hi := hiStart
	for c := 0; c < parts; c++ {
		size := per
		if c < rem {
			size++
		}
		chunks = append(chunks, [2]int{hi, hi - size + 1})
		hi -= size
	}
	return chunks
}

// cacheLine is the false-sharing unit: a value every worker reads on each
// scan step gets a line of its own, so another worker's writes to a
// neighbouring field never invalidate it.
const cacheLine = 64

// atomicBudget is a monotonically increasing shared float64 — the running
// best X² every worker prunes against — padded to a cache line of its own.
type atomicBudget struct {
	bits atomic.Uint64
	_    [cacheLine - 8]byte
}

func (a *atomicBudget) store(v float64) { a.bits.Store(math.Float64bits(v)) }

func (a *atomicBudget) load() float64 { return math.Float64frombits(a.bits.Load()) }

// raise lifts the budget to at least v.
func (a *atomicBudget) raise(v float64) {
	for {
		old := a.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// soften shaves a 1e-12 relative margin off a budget. Skipping is justified
// for substrings with X² ≤ budget; pruning against the softened value keeps
// exact ties (and anything within a few ulps of fp noise between the cover
// bound and a direct evaluation) evaluated, which is what makes the parallel
// argmax merge reproduce the sequential scan's interval bit-for-bit.
func soften(budget float64) float64 {
	return budget - 1e-12*math.Max(1, math.Abs(budget))
}

// better reports whether candidate (x2, [i, j)) beats best in the order the
// sequential right-to-left scan discovers candidates: higher X² first, then
// higher start, then lower end.
func better(x2 float64, i, j int, best Scored) bool {
	if x2 != best.X2 {
		return x2 > best.X2
	}
	if i != best.Start {
		return i > best.Start
	}
	return j < best.End
}

// --- One pass, every budget ---

// sink is one threshold member's collection point in a pass.
type sink struct {
	alpha float64 // the query's cutoff: it collects windows with X² > alpha
	limit int     // the query's result cap (≤ 0: unlimited)
}

// pass is one chain-cover traversal of a (range, floor) and the queries
// riding it. The paper's three exact scans are one traversal with three
// skip budgets — the running best X² (Algorithm 1), the t-th best seen so
// far (Algorithm 2), the constant α (Algorithm 3) — so a traversal pruned at
// the lowest of its members' budgets answers every member exactly: a window
// it skips or prefilters out lies at or below that budget, hence at or
// below each member's own, and could change no member's answer.
//
//   - MSS: the better()-max, bit-identical to a solo scan; the skips are
//     softened so windows tied with the best stay evaluated for the
//     tie-break. Every MSS member of a group reads the one tracker.
//   - Top-t: the heap sees exactly the accepted offers of a solo scan, in
//     the same order, so its items are identical at one worker.
//   - Threshold: every window above a sink's α is evaluated, in the solo
//     scan's (start desc, end asc) order.
//
// A pass whose only member is a top-t or threshold query evaluates exactly
// the windows the paper's scan of that kind does; with an MSS member it
// also evaluates the exact ties softening keeps.
type pass struct {
	// top and heap are the budget cells: the MSS tracker's running best X²
	// (−1: none yet) and the top-t heap. Every worker reads them at each
	// row start and after each window it offers, so each starts a cache
	// line of its own; the pass is allocated on a line boundary.
	top  atomicBudget
	heap sharedHeap
	// root is the pass whose cells budget() reads and offer() feeds: p
	// itself, or for a parallel worker's clone, the pass it was cut from.
	root *pass
	// mss marks an MSS tracker riding the pass; best is its better()-max so
	// far (X2 −1: none yet). A pass prunes only against windows it
	// evaluated itself, so a shard's fragment stays exact.
	mss  bool
	best Scored
	// sinks are the threshold members and alpha the lowest of their
	// cutoffs (+Inf without sinks). found[si] collects sink si's hits in
	// scan order, at most limit+1 of them — enough for the merge layer,
	// which owns limits and overflow, to decide — unless visit streams a
	// single sink's hits instead.
	sinks []sink
	alpha float64
	found [][]Scored
	visit func(Scored)
	// restarted counts the windows passSeq's followers evaluated and then
	// discarded because the budget moved under them: the speculation's
	// waste, outside Stats.
	restarted int64
}

// newPass builds a pass with an MSS tracker if mss, a top-t heap of
// capacity t if t > 0, and the given threshold sinks.
func newPass(mss bool, t int, sinks []sink) *pass {
	p := &pass{mss: mss, best: Scored{X2: -1}, sinks: sinks, alpha: math.Inf(1), found: make([][]Scored, len(sinks))}
	p.root = p
	p.top.store(-1) // below every X², so inert until the first window
	if t > 0 {
		p.heap.h, _ = topheap.New(t) // fails only for t < 1
	}
	for _, sk := range sinks {
		// A NaN cutoff qualifies no window, so it never lowers the budget.
		if sk.alpha < p.alpha {
			p.alpha = sk.alpha
		}
	}
	return p
}

// budget returns the lowest of the members' budgets — the lowest α, the
// heap's minimum (0 until full), the MSS best (−1 until the first window) —
// and the budget skips are solved at, softened when an MSS member rides.
func (p *pass) budget() (b, skipAt float64) {
	r := p.root
	b = p.alpha
	if r.heap.h != nil {
		b = min(b, r.heap.budget.load())
	}
	if p.mss {
		b = min(b, r.top.load())
		return b, soften(b)
	}
	return b, b
}

// offer feeds the exactly evaluated window [i, j) to every member.
func (p *pass) offer(i, j int, x2 float64) {
	r := p.root
	if p.mss && better(x2, i, j, p.best) {
		p.best = Scored{Interval{i, j}, x2}
		r.top.raise(x2)
	}
	if r.heap.h != nil {
		r.heap.offer(topheap.Item{Start: i, End: j, Score: x2})
	}
	if x2 > p.alpha {
		for si, sk := range p.sinks {
			if x2 > sk.alpha {
				p.hit(si, Scored{Interval{i, j}, x2})
			}
		}
	}
}

// hit delivers one of sink si's windows, in scan order.
func (p *pass) hit(si int, s Scored) {
	if p.visit != nil {
		p.visit(s)
		return
	}
	if lim := p.sinks[si].limit; lim <= 0 || len(p.found[si]) <= lim {
		p.found[si] = append(p.found[si], s)
	}
}

// runPass runs p over the start rows [rowLo, rowHi] — a solo query's whole
// range [lo, hi−minLen], or a shard's clip of it — with windows of length ≥
// minLen ending at most at hi. Every member reports the returned counters.
func (sc *Scanner) runPass(e Engine, p *pass, hi, minLen, rowLo, rowHi int) Stats {
	if rowHi < rowLo {
		return Stats{}
	}
	if w := e.workerCount(rowHi - rowLo + 1); w > 1 {
		return sc.passParallel(e, p, w, hi, minLen, rowLo, rowHi)
	}
	return sc.passSeq(e, p, hi, minLen, rowLo, rowHi)
}

// sharedHeap is a pass's top-t min-heap (h nil without top-t members)
// behind a mutex, so parallel workers offer to it concurrently. The heap's
// minimum (the running t-th best) is mirrored into an atomic so workers
// read their skip budget without taking the lock; it only grows, so a stale
// read under-prunes but never over-prunes. At one worker the mirror is
// always Heap.Budget(), and the offers it turns away Heap.Offer refuses.
type sharedHeap struct {
	mu   sync.Mutex
	h    *topheap.Heap
	full atomic.Bool
	_    [cacheLine - 24]byte
	// budget mirrors the heap's own minimum when full. Workers read it at
	// every row start and offer, and offers write mu and h, so it sits on
	// its own line.
	budget atomicBudget
}

func (s *sharedHeap) offer(it topheap.Item) {
	// While the heap has room every offer is admissible (the sequential
	// algorithm's heap-of-t-zeros initialization); afterwards only scores
	// beating the mirrored minimum need the lock.
	if s.full.Load() && it.Score <= s.budget.load() {
		return
	}
	s.mu.Lock()
	s.h.Offer(it)
	if s.h.Full() {
		s.budget.store(s.h.Budget())
		s.full.Store(true)
	}
	s.mu.Unlock()
}

// passParallel is runPass on w workers claiming chunks of start rows. Each
// worker runs passSeq on every chunk it claims, on its own clone of p: the
// clone keeps the worker's MSS best, threshold hits and follower waste, and
// reads and raises p's budget cells, so a bound any worker finds prunes
// every other worker's next row. The merge folds the clones' bests through
// better() and replays each chunk's hits, cut from its clone's found lists
// by the chunk's lowest row, in chunk order — the sequential visit order. A
// clone keeps at most limit+1 of a sink's hits: it claims chunks in replay
// order, so a hit it drops could only be replayed after limit+1 of the
// sink's hits, past the merge's overflow decision.
func (sc *Scanner) passParallel(e Engine, p *pass, w, hi, minLen, rowLo, rowHi int) Stats {
	chunks := splitStarts(rowLo, rowHi, w*chunksPerWorker)
	clones := make([]pass, w)
	stats := make([]Stats, w)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wid := range clones {
		c := &clones[wid]
		*c = pass{root: p, mss: p.mss, best: Scored{X2: -1}, sinks: p.sinks, alpha: p.alpha, found: make([][]Scored, len(p.sinks))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ch := int(next.Add(1)) - 1; ch < len(chunks); ch = int(next.Add(1)) - 1 {
				st := sc.passSeq(e, c, hi, minLen, chunks[ch][1], chunks[ch][0])
				stats[wid].Evaluated += st.Evaluated
				stats[wid].Skipped += st.Skipped
				stats[wid].Starts += st.Starts
			}
		}()
	}
	wg.Wait()

	var st Stats
	for wid := range clones {
		c := &clones[wid]
		st.Evaluated += stats[wid].Evaluated
		st.Skipped += stats[wid].Skipped
		st.Starts += stats[wid].Starts
		if better(c.best.X2, c.best.Start, c.best.End, p.best) {
			p.best = c.best
		}
		p.restarted += c.restarted
	}
	for si := range p.sinks {
		for _, ch := range chunks {
			for wid := range clones {
				f := clones[wid].found[si]
				n := 0
				for ; n < len(f) && f[n].Start >= ch[1]; n++ {
					p.hit(si, f[n])
				}
				clones[wid].found[si] = f[n:]
			}
		}
	}
	return st
}

// --- Disjoint top-t ---

// disjointRange is the greedy peel behind KindDisjoint: up to t pairwise
// non-overlapping substrings in decreasing X² order. The range's MSS is
// taken first, its interval removed, and the two remaining segments
// searched recursively, each sub-scan on the engine. This is how the
// experiment harness reports "top patches" as humans expect them (the
// paper's Tables 3 and 5 list disjoint periods, whereas the raw top-t set of
// Problem 2 is dominated by overlapping variants of the strongest window).
// The query is normalized: t ≥ 1 and minLen ≥ 1.
func (sc *Scanner) disjointRange(e Engine, t, rangeLo, rangeHi, minLen int) ([]Scored, Stats) {
	type segment struct {
		lo, hi int
		best   Scored
		ok     bool
	}
	var st Stats
	eval := func(lo, hi int) segment {
		if hi-lo < minLen {
			return segment{lo: lo, hi: hi}
		}
		p := newPass(true, 0, nil)
		s := sc.runPass(e, p, hi, minLen, lo, hi-minLen)
		st.Evaluated += s.Evaluated
		st.Skipped += s.Skipped
		st.Starts += s.Starts
		return segment{lo: lo, hi: hi, best: p.best, ok: p.best.X2 >= 0}
	}
	segs := []segment{eval(rangeLo, rangeHi)}
	var out []Scored
	for len(out) < t {
		if e.stopped() {
			break
		}
		bi := -1
		for i, sg := range segs {
			if !sg.ok {
				continue
			}
			if bi < 0 || sg.best.X2 > segs[bi].best.X2 {
				bi = i
			}
		}
		if bi < 0 {
			break
		}
		chosen := segs[bi]
		out = append(out, chosen.best)
		segs[bi] = eval(chosen.lo, chosen.best.Start)
		segs = append(segs, eval(chosen.best.End, chosen.hi))
	}
	return out, st
}
