package core

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/topheap"
)

// Engine configures how a scan executes. Engine{Workers: 1} reproduces the
// paper-faithful sequential scan exactly; the zero value resolves Workers to
// GOMAXPROCS and shards the start positions of the same exact algorithm
// across a worker pool.
//
// Start positions are independent given a skip budget, so the chain-cover
// scan parallelizes by partitioning starts into contiguous chunks that
// workers claim dynamically (starts near the end of the string have shorter
// rows, so static partitioning would be badly imbalanced). Each worker owns
// private scratch, and all workers share one atomic best-X² budget: a tight
// bound found by any worker immediately enlarges every other worker's
// chain-cover skips.
//
// Determinism: the parallel MSS scans read the shared budget through a tiny
// softening margin (soften), so a substring whose X² exactly equals the
// current budget is still evaluated rather than skipped. Combined with a
// lexicographic
// best-candidate merge ((X², start desc, end asc) — the order the sequential
// right-to-left scan discovers candidates in), the parallel scans return the
// identical interval, X², and Stats.Total() as the sequential ones, at the
// cost of a vanishing number of extra evaluations on exact X² ties.
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
	// skip substrings that provably cannot win. Applies to MSS-style scans;
	// top-t (t-th-best budget) and threshold (fixed α budget) scans ignore
	// it because a single heuristic value is not a sound budget for them.
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

// gangSize is the number of start rows each scan loop (or worker) advances
// simultaneously on independent rolling cursors. Each row's evaluation is a
// serial dependency chain (sum → square root → cache-missing index probe),
// so interleaving a few independent rows keeps the out-of-order core busy
// through the stalls; beyond a handful of rows the gain flattens while
// register pressure and cache footprint grow.
const gangSize = 3

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

// atomicBudget is a monotonically increasing shared float64 — the running
// best X² every worker prunes against.
type atomicBudget struct {
	bits atomic.Uint64
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

// --- MSS family ---

// engineMSSRange is the engine entry point shared by every MSS-style scan:
// the maximum-X² substring of s[lo:hi) with length ≥ minLen among the
// start rows [rowLo, rowHi] — the whole range [lo, hi−minLen] for a solo
// query, a shard's clip of it for a batch group. lo only bounds the warm
// start's candidates.
func (sc *Scanner) engineMSSRange(e Engine, lo, hi, minLen, rowLo, rowHi int) (Scored, Stats) {
	if rowHi < rowLo {
		return Scored{}, Stats{}
	}
	warm := -1.0
	if e.WarmStart {
		warm = sc.warmSeed(lo, hi, minLen)
	}
	w := e.workerCount(rowHi - rowLo + 1)
	if w == 1 {
		return sc.mssRangeWarm(e, hi, minLen, rowLo, rowHi, warm)
	}

	chunks := splitStarts(rowLo, rowHi, w*chunksPerWorker)
	var budget atomicBudget
	budget.store(warm) // −1 when no warm start: below every X², so inert

	bests := make([]Scored, w)
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
			var st Stats
		claim:
			for {
				c := int(next.Add(1)) - 1
				if c >= len(chunks) {
					break
				}
				for i := chunks[c][0]; i >= chunks[c][1]; i-- {
					if e.stopped() {
						break claim
					}
					st.Starts++
					cur.Begin(i, i+minLen)
					for {
						j := cur.End()
						st.Evaluated++
						// The prefilter boundary is the worker-local best:
						// any candidate that could enter the merge is
						// evaluated exactly (the shared budget is only ever
						// larger).
						if cur.Passes(best.X2) {
							if x2 := cur.Exact(); better(x2, i, j, best) {
								best = Scored{Interval{i, j}, x2}
								budget.raise(x2)
							}
						}
						if j == hi {
							break
						}
						skip := cur.MaxSkip(soften(budget.load()))
						if j+skip >= hi {
							st.Skipped += int64(hi - j)
							break
						}
						st.Skipped += int64(skip)
						cur.Advance(j + skip + 1)
					}
				}
			}
			bests[wid] = best
			stats[wid] = st
		}(wid)
	}
	wg.Wait()

	best := Scored{X2: -1}
	var st Stats
	for wid := 0; wid < w; wid++ {
		st.Evaluated += stats[wid].Evaluated
		st.Skipped += stats[wid].Skipped
		st.Starts += stats[wid].Starts
		if b := bests[wid]; b.X2 >= 0 && better(b.X2, b.Start, b.End, best) {
			best = b
		}
	}
	if best.X2 < 0 {
		return Scored{}, st
	}
	return best, st
}

// --- Top-t family ---

// sharedHeap wraps the top-t min-heap for concurrent offers. The heap's
// minimum (the running t-th best) is mirrored into an atomic so workers
// read their skip budget without taking the lock; it only grows, so a stale
// read under-prunes but never over-prunes.
type sharedHeap struct {
	mu     sync.Mutex
	h      *topheap.Heap
	budget atomicBudget // mirror of the heap's own minimum when full
	full   atomic.Bool
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

// engineTopT is the engine entry point for top-t scans: the t largest-X²
// substrings of s[:hi) with length ≥ minLen starting in the rows [rowLo,
// rowHi]. It is the paper's Algorithm 2: the MSS scan with the t-th largest
// X² seen so far as the skip budget (the minimum of a capacity-t heap, or 0
// while the heap still has room).
// Substrings skipped by the chain-cover bound have X² no greater than the
// running t-th best and therefore can never displace a heap entry. The
// result holds min(t, candidates) substrings in descending X² order.
//
// The X² value multiset of the result is identical to the sequential scan's:
// any substring beating the final t-th best is never skipped (every budget
// used is at most that value), and substrings tied with the boundary are
// interchangeable, which the problem statement already permits.
func (sc *Scanner) engineTopT(e Engine, t, hi, minLen, rowLo, rowHi int) ([]Scored, Stats, error) {
	if err := validateT(t); err != nil {
		return nil, Stats{}, err
	}
	w := 1
	if rowHi >= rowLo {
		w = e.workerCount(rowHi - rowLo + 1)
	}
	if w == 1 {
		return sc.toptSeq(e, t, hi, minLen, rowLo, rowHi)
	}

	h, err := topheap.New(t)
	if err != nil {
		return nil, Stats{}, err
	}
	shared := &sharedHeap{h: h}
	chunks := splitStarts(rowLo, rowHi, w*chunksPerWorker)
	stats := make([]Stats, w)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wid := 0; wid < w; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			cur := sc.newRoll()
			defer sc.putRoll(cur)
			var st Stats
		claim:
			for {
				c := int(next.Add(1)) - 1
				if c >= len(chunks) {
					break
				}
				for i := chunks[c][0]; i >= chunks[c][1]; i-- {
					if e.stopped() {
						break claim
					}
					st.Starts++
					cur.Begin(i, i+minLen)
					for {
						j := cur.End()
						st.Evaluated++
						// Boundary: the mirrored t-th best. A window below
						// it could never be retained, so eliding its offer
						// is equivalent to the old always-offer-and-reject.
						if cur.Passes(shared.budget.load()) {
							shared.offer(topheap.Item{Start: i, End: j, Score: cur.Exact()})
						}
						if j == hi {
							break
						}
						skip := cur.MaxSkip(shared.budget.load())
						if j+skip >= hi {
							st.Skipped += int64(hi - j)
							break
						}
						st.Skipped += int64(skip)
						cur.Advance(j + skip + 1)
					}
				}
			}
			stats[wid] = st
		}(wid)
	}
	wg.Wait()

	var st Stats
	for _, s := range stats {
		st.Evaluated += s.Evaluated
		st.Skipped += s.Skipped
		st.Starts += s.Starts
	}
	return itemsToScored(h.Items()), st, nil
}

// toptSeq is the sequential top-t scan.
func (sc *Scanner) toptSeq(e Engine, t, hi, minLen, rowLo, rowHi int) ([]Scored, Stats, error) {
	h, err := topheap.New(t)
	if err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	cur := sc.newRoll()
	defer sc.putRoll(cur)
	for i := rowHi; i >= rowLo; i-- {
		if e.stopped() {
			break
		}
		st.Starts++
		cur.Begin(i, i+minLen)
		for {
			j := cur.End()
			st.Evaluated++
			if cur.Passes(h.Budget()) {
				h.Offer(topheap.Item{Start: i, End: j, Score: cur.Exact()})
			}
			if j == hi {
				break
			}
			skip := cur.MaxSkip(h.Budget())
			if j+skip >= hi {
				st.Skipped += int64(hi - j)
				break
			}
			st.Skipped += int64(skip)
			cur.Advance(j + skip + 1)
		}
	}
	return itemsToScored(h.Items()), st, nil
}

// --- Threshold family ---

// sink is one threshold query's collection point in a threshold scan.
type sink struct {
	alpha float64 // the query's cutoff: it collects windows with X² > alpha
	limit int     // the query's result cap (≤ 0: unlimited)
}

// engineThreshold reports, for each sink, every substring of s[:hi) of
// length ≥ minLen starting in the rows [rowLo, rowHi] with X² above the
// sink's alpha, as visit(sink index, hit). The scan runs at the lowest sink
// alpha — every sink's hits are a filter of that scan — and the budget is
// that constant, so workers share nothing but the string and the scan
// parallelizes embarrassingly; the evaluated/skipped pattern is identical
// to the sequential scan's.
//
// A sink's limit > 0 bounds the buffering of the parallel path: each worker
// stores at most limit+1 of that sink's hits, keeping memory at
// O(workers·limit) instead of the O(n²) a low alpha can produce. This loses
// no hit a limit-capped visitor would accept: a worker's chunks are claimed
// in increasing replay order, so by the time it drops a hit it has already
// stored limit+1 of the sink's hits that all precede the dropped one in
// replay order — the dropped hit could only ever be replayed at position
// limit+2 or later, which the visitor's overflow check has already fired on.
func (sc *Scanner) engineThreshold(e Engine, sinks []sink, hi, minLen, rowLo, rowHi int, visit func(int, Scored)) Stats {
	alpha := sinks[0].alpha
	for _, sk := range sinks[1:] {
		alpha = min(alpha, sk.alpha)
	}
	w := 1
	if rowHi >= rowLo {
		w = e.workerCount(rowHi - rowLo + 1)
	}
	if w == 1 {
		return sc.thresholdSeq(e, alpha, sinks, hi, minLen, rowLo, rowHi, visit)
	}

	chunks := splitStarts(rowLo, rowHi, w*chunksPerWorker)
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
			var st Stats
			stored := make([]int, len(sinks))
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
						j := cur.End()
						st.Evaluated++
						if cur.Passes(alpha) {
							if x2 := cur.Exact(); x2 > alpha {
								for si, sk := range sinks {
									if x2 > sk.alpha && (sk.limit <= 0 || stored[si] <= sk.limit) {
										if hits == nil {
											hits = make([][]Scored, len(sinks))
										}
										hits[si] = append(hits[si], Scored{Interval{i, j}, x2})
										stored[si]++
									}
								}
							}
						}
						if j == hi {
							break
						}
						skip := cur.MaxSkip(alpha)
						if j+skip >= hi {
							st.Skipped += int64(hi - j)
							break
						}
						st.Skipped += int64(skip)
						cur.Advance(j + skip + 1)
					}
				}
				found[c] = hits
			}
			stats[wid] = st
		}(wid)
	}
	wg.Wait()

	var st Stats
	for _, s := range stats {
		st.Evaluated += s.Evaluated
		st.Skipped += s.Skipped
		st.Starts += s.Starts
	}
	// Chunks are ordered by descending start range and scanned start-desc
	// within, so replaying them in chunk order reproduces the sequential
	// visit order exactly, sink by sink.
	for _, hits := range found {
		for si, hs := range hits {
			for _, r := range hs {
				visit(si, r)
			}
		}
	}
	return st
}

// thresholdSeq is the sequential threshold scan at budget alpha, the lowest
// sink alpha.
func (sc *Scanner) thresholdSeq(e Engine, alpha float64, sinks []sink, hi, minLen, rowLo, rowHi int, visit func(int, Scored)) Stats {
	var st Stats
	cur := sc.newRoll()
	defer sc.putRoll(cur)
	for i := rowHi; i >= rowLo; i-- {
		if e.stopped() {
			break
		}
		st.Starts++
		cur.Begin(i, i+minLen)
		for {
			j := cur.End()
			st.Evaluated++
			if cur.Passes(alpha) {
				if x2 := cur.Exact(); x2 > alpha {
					for si, sk := range sinks {
						if x2 > sk.alpha {
							visit(si, Scored{Interval{i, j}, x2})
						}
					}
				}
			}
			if j == hi {
				break
			}
			skip := cur.MaxSkip(alpha)
			if j+skip >= hi {
				st.Skipped += int64(hi - j)
				break
			}
			st.Skipped += int64(skip)
			cur.Advance(j + skip + 1)
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
func (sc *Scanner) disjointRange(e Engine, t, rangeLo, rangeHi, minLen int) ([]Scored, Stats, error) {
	if err := validateT(t); err != nil {
		return nil, Stats{}, err
	}
	if minLen < 1 {
		minLen = 1
	}
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
		best, s := sc.engineMSSRange(e, lo, hi, minLen, lo, hi-minLen)
		st.Evaluated += s.Evaluated
		st.Skipped += s.Skipped
		st.Starts += s.Starts
		return segment{lo: lo, hi: hi, best: best, ok: best.End > best.Start}
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
	return out, st, nil
}
