package core

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/topheap"
)

// This file is the scan engine: Engine, the configuration of a scan, and
// the pass — one chain-cover traversal of a (range, floor) that answers
// every MSS, top-t and threshold query riding it, pruned at the lowest of
// their budgets. A pass runs as one sequential loop (passSeq, mss.go) or
// its parallel form (passParallel); nothing else in the package scans with
// the chain cover.

// Engine configures how a scan executes. Engine{Workers: 1} reproduces the
// paper-faithful sequential scan exactly; the zero value resolves Workers to
// GOMAXPROCS and shards the start positions of the same exact algorithm
// across a worker pool.
//
// Start positions are independent given a skip budget, so the chain-cover
// scan parallelizes by partitioning starts into contiguous chunks that
// workers claim dynamically (starts near the end of the string have shorter
// rows, so static partitioning would be badly imbalanced). Each worker owns
// private scratch, and all workers share the budgets: a tight bound found
// by any worker immediately enlarges every other worker's chain-cover
// skips.
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
	// WarmStart seeds the shared skip budget, before the exact scan starts,
	// with the best X² found by the O(nk) global-extrema heuristic (AGMM,
	// heuristics.go) restricted to the scanned range and length floor. The
	// heuristic's value is the X² of an actual candidate substring, hence a
	// sound lower bound on the answer: the exact scan can only use it to
	// skip substrings that provably cannot win. It floors only an MSS
	// member's budget: a single heuristic value is not a sound t-th-best or
	// α budget, so a pass without MSS members ignores it, and a shared pass
	// still prunes top-t and threshold members at their own budgets.
	//
	// The seeding pass's own O(k²) evaluations are deliberately excluded
	// from the returned Stats, which account for the exact scan only: that
	// keeps Evaluated+Skipped equal to the number of candidate substrings,
	// the paper's machine-independent iteration metric.
	WarmStart bool
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
// argmax merge and the warm start reproduce the sequential scan's interval
// bit-for-bit.
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

// warmSeed returns the best X² among the AGMM candidate substrings that lie
// inside [lo, hi) with length ≥ minLen, or −1 when no candidate qualifies.
// Candidates are all pairs of the per-symbol walk extrema (clamped to the
// range, plus the range endpoints), evaluated exactly — O(nk) for the walks
// plus O(k²) pair evaluations.
func (sc *Scanner) warmSeed(lo, hi, minLen int) float64 {
	ws, err := sc.sharedWalks()
	if err != nil {
		return -1
	}
	cuts := ws.GlobalExtrema()
	inRange := make([]int, 0, len(cuts)+2)
	inRange = append(inRange, lo, hi)
	for _, c := range cuts {
		if c > lo && c < hi {
			inRange = append(inRange, c)
		}
	}
	sort.Ints(inRange)
	best := -1.0
	vec := make([]int, sc.k)
	for a := 0; a < len(inRange); a++ {
		for b := a + 1; b < len(inRange); b++ {
			u, v := inRange[a], inRange[b]
			if v-u < minLen || u == v {
				continue
			}
			if x2 := sc.kern.Value(sc.pre.Vector(u, v, vec)); x2 > best {
				best = x2
			}
		}
	}
	return best
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
	// mss marks an MSS tracker riding the pass; best is its better()-max so
	// far (X2 −1: none yet), and warm — the WarmStart seed, or −1 — floors
	// its budget.
	mss  bool
	best Scored
	warm float64
	// heap holds the top-t candidates at the members' largest t (nil
	// without top-t members); each member takes its leading t.
	heap *topheap.Heap
	// sinks are the threshold members and alpha the lowest of their
	// cutoffs (+Inf without sinks). found[si] collects sink si's hits in
	// scan order, at most limit+1 of them — enough for the merge layer,
	// which owns limits and overflow, to decide — unless visit streams a
	// single sink's hits instead.
	sinks []sink
	alpha float64
	found [][]Scored
	visit func(Scored)
}

// newPass builds a pass with an MSS tracker if mss, a top-t heap of
// capacity t if t > 0, and the given threshold sinks.
func newPass(mss bool, t int, sinks []sink) *pass {
	p := &pass{mss: mss, best: Scored{X2: -1}, warm: -1, sinks: sinks, alpha: math.Inf(1), found: make([][]Scored, len(sinks))}
	if t > 0 {
		p.heap, _ = topheap.New(t) // fails only for t < 1
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
// heap's minimum (0 until full), the MSS best floored by the warm seed —
// and the budget skips are solved at, softened when an MSS member rides.
func (p *pass) budget() (b, skipAt float64) {
	b = p.alpha
	if p.heap != nil {
		b = min(b, p.heap.Budget())
	}
	if p.mss {
		b = min(b, max(p.best.X2, p.warm))
		return b, soften(b)
	}
	return b, b
}

// offer feeds the exactly evaluated window [i, j) to every member.
func (p *pass) offer(i, j int, x2 float64) {
	if p.mss && better(x2, i, j, p.best) {
		p.best = Scored{Interval{i, j}, x2}
	}
	if p.heap != nil {
		p.heap.Offer(topheap.Item{Start: i, End: j, Score: x2})
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
// minLen ending at most at hi; lo only bounds the warm start's candidates.
// Every member reports the returned counters.
func (sc *Scanner) runPass(e Engine, p *pass, lo, hi, minLen, rowLo, rowHi int) Stats {
	if rowHi < rowLo {
		return Stats{}
	}
	if p.mss && e.WarmStart {
		p.warm = sc.warmSeed(lo, hi, minLen)
	}
	if w := e.workerCount(rowHi - rowLo + 1); w > 1 {
		return sc.passParallel(e, p, w, hi, minLen, rowLo, rowHi)
	}
	return sc.passSeq(e, p, hi, minLen, rowLo, rowHi)
}

// sharedHeap wraps the top-t min-heap for concurrent offers. The heap's
// minimum (the running t-th best) is mirrored into an atomic so workers
// read their skip budget without taking the lock; it only grows, so a stale
// read under-prunes but never over-prunes.
type sharedHeap struct {
	mu   sync.Mutex
	h    *topheap.Heap
	full atomic.Bool
	_    [cacheLine - 24]byte
	// budget mirrors the heap's own minimum when full. Workers read it on
	// every scan call, and offers write mu and h, so it sits on its own line.
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

// passParallel is runPass on w workers claiming chunks of start rows. The
// workers share what the members' budgets need, each read without a lock:
//
//   - MSS: every worker keeps its own better()-max and raises one shared
//     atomic best (seeded with the warm floor) that all of them prune
//     against; the merge folds the workers' maxima through better().
//   - Top-t: one heap behind a mutex, its minimum mirrored in an atomic.
//   - Threshold: α is constant, so nothing. Each worker buffers at most
//     limit+1 of each sink's hits — a worker claims chunks in increasing
//     replay order, so a hit it drops could only be replayed after limit+1
//     of the sink's hits, past the merge's overflow decision — and the
//     chunks replay in order, reproducing the sequential visit order.
//
// A budget read between scan calls may be stale, which only ever
// under-prunes.
func (sc *Scanner) passParallel(e Engine, p *pass, w, hi, minLen, rowLo, rowHi int) Stats {
	chunks := splitStarts(rowLo, rowHi, w*chunksPerWorker)
	var top atomicBudget
	top.store(p.warm) // −1 without a warm start: below every X², so inert
	var heap *sharedHeap
	if p.heap != nil {
		heap = &sharedHeap{h: p.heap}
	}
	bests := make([]Scored, w)
	found := make([][][]Scored, len(chunks)) // [chunk][sink]; nil for hitless chunks
	stats := make([]Stats, w)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wid := 0; wid < w; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			cur := sc.newRoll()
			defer sc.putRoll(cur)
			best := Scored{X2: -1}
			stored := make([]int, len(p.sinks))
			var st Stats
		claim:
			for {
				c := int(next.Add(1)) - 1
				if c >= len(chunks) {
					break
				}
				var hits [][]Scored
				for i := chunks[c][0]; i >= chunks[c][1]; i-- {
					if e.stopped() {
						break claim
					}
					st.Starts++
					cur.Begin(i, i+minLen)
					for {
						// The shared budgets are read once per call: at the
						// row start and after each offered window.
						b := p.alpha
						if heap != nil {
							b = min(b, heap.budget.load())
						}
						skipAt := b
						if p.mss {
							b = min(b, top.load())
							skipAt = soften(b)
						}
						evaluated, skipped, ok := cur.Scan(b, skipAt, hi)
						st.Evaluated += int64(evaluated)
						st.Skipped += int64(skipped)
						if !ok {
							break
						}
						j, x2 := cur.End(), cur.Exact()
						if p.mss && better(x2, i, j, best) {
							best = Scored{Interval{i, j}, x2}
							top.raise(x2)
						}
						if heap != nil {
							heap.offer(topheap.Item{Start: i, End: j, Score: x2})
						}
						for si, sk := range p.sinks {
							if x2 > sk.alpha && (sk.limit <= 0 || stored[si] <= sk.limit) {
								if hits == nil {
									hits = make([][]Scored, len(p.sinks))
								}
								hits[si] = append(hits[si], Scored{Interval{i, j}, x2})
								stored[si]++
							}
						}
					}
				}
				found[c] = hits
			}
			bests[wid] = best
			stats[wid] = st
		}(wid)
	}
	wg.Wait()

	var st Stats
	for wid := 0; wid < w; wid++ {
		st.Evaluated += stats[wid].Evaluated
		st.Skipped += stats[wid].Skipped
		st.Starts += stats[wid].Starts
		if b := bests[wid]; b.X2 >= 0 && better(b.X2, b.Start, b.End, p.best) {
			p.best = b
		}
	}
	for _, hits := range found {
		for si, hs := range hits {
			for _, s := range hs {
				p.hit(si, s)
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
		s := sc.runPass(e, p, lo, hi, minLen, lo, hi-minLen)
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
