package chisq

import (
	"math"
	"unsafe"

	"repro/internal/counts"
)

// maxDrift caps the number of O(1) incremental updates the rolling sum may
// accumulate before the cursor forces an exact re-sync from the count
// vector. The guard band grows linearly with the drift, so the cap keeps it
// tight: at 4096 updates the bound is ≈ 4·10⁻¹²·(X² + l), far below the gap
// between distinct X² values at paper-scale lengths.
const maxDrift = 4096

// cacheLine is the false-sharing unit the cursor pads itself to.
const cacheLine = 64

// Roll is the rolling chi-square cursor the scan engine's loops run on: one
// window [i, j) whose ending position only moves right, holding the
// window's count vector and the running sum S = Σ Y_c²/p_c.
//
// Extending the window by one symbol c updates S in O(1) — the identity
// behind Eq. 12 of the paper: (Y_c+1)² = Y_c² + (2Y_c + 1), so
// S += (2Y_c + 1)/p_c — which makes the step independent of the alphabet
// size k for short extensions. Long chain-cover skips land with a single
// block probe of the count index and an exact O(k) rebuild of S, which
// doubles as a re-sync point for the floating-point drift of the
// incremental updates.
//
// Exactness contract: X2 returns the incrementally maintained value, which
// may differ from the canonical evaluation by the tiny bound the guard band
// of Scan encodes; Exact re-syncs and returns a value bit-identical to
// Kernel.Value of the window's count vector — the number the non-rolling
// scan would have computed. Scan stops at every window whose rolled value
// lands within the guard band of the boundary, so a caller that publishes
// only Exact values decides every comparison exactly.
//
// Each cursor owns whole cache lines — the struct is padded to a multiple
// of 64 bytes and its scratch is one padded allocation — because a parallel
// scan runs one cursor per worker, and a landing's writes would otherwise
// invalidate the line a neighbouring worker's cursor reads on every step.
type Roll struct {
	rollState
	_ [(cacheLine - unsafe.Sizeof(rollState{})%cacheLine) % cacheLine]byte
}

type rollState struct {
	kern *Kernel
	cp   *counts.Checkpointed
	s    []byte

	cpWords []uint32 // cp's packed blocks, held directly for the hot loop
	cpLanes bool     // cp nibble group fits one two-word read (counts.GroupFits)
	cpOne   bool     // cp nibble group always fits ONE word (k = 2, 4, 8)
	// Relocated-tail dispatch for the lanes fast path: a probe whose block
	// base reaches cpTailBase is served from cpTail at relative base 0. For
	// contiguous indexes — every frozen corpus — cpTail aliases cpWords at
	// cpTailBase, so the redirect is semantically a no-op (one predictable
	// comparison); for appender-published epochs it is what keeps the fast
	// path off the appender's write frontier.
	cpTail     []uint32
	cpTailBase int
	// tailStart is the first position NOT servable from cpWords directly,
	// consulted only by the NON-lanes path (alphabets outside
	// counts.GroupFits): probes landing there go through the dispatching
	// accessor instead. Contiguous indexes set it to MaxInt. At most B−1
	// positions of a live epoch land in the tail.
	tailStart int

	base []int // cumulative counts at the row start i
	vec  []int // window count vector, always exact (integer updates)

	sum   float64 // rolled S = Σ Y_c²/p_c (non-uniform models)
	drift int     // incremental updates since the last exact re-sync
	i, j  int
	// to is the end a pending landing moves the window to: Begin leaves a
	// first window longer than recost for Scan's landing step. to == j when
	// nothing is pending.
	to int
	// held marks a window Scan stopped at: the next Scan resumes at its
	// skip instead of evaluating it again.
	held bool

	// Uniform-model fast path: with equal symbol probabilities the sum is
	// p⁻¹ times the INTEGER Σ Y_c², which rolls and reconstructs in exact
	// integer arithmetic (no floating-point drift at all), and the binding
	// symbol of the skip quadratic is simply the argmax count — no sweep.
	uniform bool
	uinv    float64 // 1/p of the uniform model
	sumInt  int64   // Σ Y_c²
	maxY    int     // max count in the window (the binding symbol's count)

	// recost is the break-even extension length: extensions of at most this
	// many symbols roll in O(d), longer ones reconstruct from one index
	// block probe in O(k).
	recost int
	// hint is the last binding symbol of the skip quadratic (see
	// Kernel.MaxSkipHint).
	hint int
}

// NewRoll builds a cursor over the kernel's model, the count index, and the
// raw symbol string the index was built from.
func NewRoll(kern *Kernel, cp *counts.Checkpointed, s []byte) *Roll {
	k := kern.K()
	// base and vec share one allocation rounded up to whole cache lines
	// (8 ints); every size class from 64 bytes up that is a multiple of 64
	// is 64-aligned, so no other object shares its lines.
	scratch := make([]int, (2*k+7)&^7)
	r := &Roll{rollState: rollState{
		kern:      kern,
		cp:        cp,
		s:         s,
		base:      scratch[:k:k],
		vec:       scratch[k : 2*k : 2*k],
		recost:    k + 4,
		uniform:   kern.uniform,
		uinv:      kern.inv[0],
		tailStart: math.MaxInt,
	}}
	r.cpWords, r.cpTail, r.cpTailBase = cp.Storage()
	if lo, relocated := cp.RelocatedTailStart(); relocated {
		r.tailStart = lo
	}
	// The single two-word group read needs the group's word offset plus its
	// 4k bits to fit 64 bits for every block position: offsets are multiples
	// of gcd(4k, 32), so the condition is 32−gcd+4k ≤ 64 — counts.GroupFits.
	// The rest take the per-nibble path.
	r.cpLanes = counts.GroupFits(k)
	r.cpOne = 4*k <= 32 && 32%(4*k) == 0
	return r
}

// Begin positions the cursor on the window [i, j), starting a new row. A
// first window of at most recost symbols is counted here, with the
// canonical sum; a longer one is left to the landing step of the first
// Scan, so End reports j only once Scan has run.
func (r *Roll) Begin(i, j int) {
	r.i = i
	r.held = false
	r.cp.CumAt(i, r.base)
	if j-i > r.recost {
		r.j, r.to = i, j
		return
	}
	clear(r.vec)
	for _, sym := range r.s[i:j] {
		r.vec[sym]++
	}
	if r.uniform {
		r.statsUniform()
	} else {
		r.sum = r.kern.SumYsqOverP(r.vec)
		r.drift = 0
	}
	r.j, r.to = j, j
}

// statsUniform rebuilds the integer sum and max count from the vector.
// The integer sum never drifts, but converting it to the float the decision
// prefilter compares still rounds, so the cursor reports one unit of drift
// to keep the guard band (and canonical re-evaluation via Exact) engaged.
func (r *Roll) statsUniform() {
	var sum int64
	maxY := 0
	for _, y := range r.vec {
		sum += int64(y) * int64(y)
		if y > maxY {
			maxY = y
		}
	}
	r.sumInt, r.maxY = sum, maxY
	r.drift = 1
}

// Scan is the chain-cover step of the paper's Algorithm 1, run from the
// cursor's position until a window passes the prefilter at b or the row
// ends at hi. Each step evaluates the window, solves its maximal skip at
// skipAt (Eq. 21), and moves the end past the skipped windows: rolling
// symbol by symbol for moves of at most recost, landing with one block
// probe otherwise. It returns how many windows it evaluated and skipped,
// and found = true when it stopped at a window that passed — End and Exact
// then describe that window, and the next Scan resumes at its skip, so the
// caller can publish it and refresh its budgets in between. found = false
// means the row is done: every window up to hi is accounted for.
//
// The prefilter compares in multiplied-through form — S ≥ l·(b + l) ⇔
// X² ≥ b — padded by a guard band covering the floating-point drift of the
// rolled sum (each of the m incremental updates contributes at most one
// 2⁻⁵³ relative rounding to a sum of positive terms) and the roundings of
// the multiplied-through form itself, with an 8× safety factor (2⁻⁵⁰). A
// window it passes over has canonical X² strictly below b; a window it
// stops at may not reach b, and the caller decides it exactly via Exact.
// The skip is solved on the sum inflated by the same bound — the skip
// quadratic shrinks as the sum grows, so the skip is sound for the exact
// value too.
//
// The cursor state lives in locals for the whole call and the uniform path
// makes no function call: the probe → sum → root → next probe chain is
// latency-bound, and every call on it costs a round trip through memory.
// Non-uniform models call Kernel.MaxSkipSum, whose per-symbol sweep
// dominates their step; a relocated-tail probe on an alphabet outside
// counts.GroupFits calls out to the index's dispatching accessor.
func (r *Roll) Scan(b, skipAt float64, hi int) (evaluated, skipped int, found bool) {
	kern, cp, s := r.kern, r.cp, r.s
	vec, base := r.vec, r.base
	i, j, to := r.i, r.j, r.to
	uni, uinv := r.uniform, r.uinv
	sumInt, maxY := r.sumInt, r.maxY
	sum, drift, hint := r.sum, r.drift, r.hint
	recost := r.recost
	var (
		cur, fl float64
		x       int
	)
	switch {
	case to != j:
		goto move
	case r.held:
		if uni {
			cur = float64(sumInt) * uinv
		} else {
			cur = sum
		}
		goto solve
	}

eval:
	// The decision prefilter at b.
	evaluated++
	if uni {
		cur = float64(sumInt) * uinv
	} else {
		cur = sum
	}
	fl = float64(j - i)
	if cur+float64(drift+4)*0x1p-50*(cur+fl*fl+fl) >= fl*b+fl*fl {
		found = true
		goto done
	}

solve:
	// The maximal sound skip at skipAt.
	if j == hi {
		goto done
	}
	if drift != 0 {
		cur += float64(drift+4) * 0x1p-50 * cur
	}
	if uni {
		// Equal probabilities make the binding symbol the argmax count —
		// the skip quadratic is tightest for the most frequent symbol — so
		// one root and one integer-point check decide the skip with no
		// per-symbol sweep. Both helpers inline.
		fl = float64(j - i)
		c := cur - fl*(skipAt+fl)
		x = 0
		if !(c > 0) { // else X² > skipAt in multiply-through form
			a := 2*fl + skipAt
			y := float64(maxY)
			if z := kern.skipRoot(y, a, c, 0); !(z < 1) {
				x = kern.floorRoot(z, y, a, c, 0)
			}
		}
	} else {
		x, hint = kern.MaxSkipSum(vec, j-i, cur, skipAt, hint)
	}
	if j+x >= hi {
		skipped += hi - j
		goto done
	}
	skipped += x
	to = j + x + 1

move:
	// Extend the window's end to `to`.
	if d := to - j; d <= recost && (uni || drift+d <= maxDrift) {
		if uni {
			for _, sym := range s[j:to] {
				y := vec[sym] + 1
				sumInt += int64(2*y - 1)
				vec[sym] = y
				if y > maxY {
					maxY = y
				}
			}
		} else {
			inv := kern.inv
			for _, sym := range s[j:to] {
				y := float64(vec[sym])
				sum += (2*y + 1) * inv[sym]
				vec[sym]++
			}
			drift += d
		}
		j = to
		goto eval
	}
	// The landing: rebuild the counts [i, to) from one block probe — the
	// checkpoint row plus the position's nibble-delta group, minus the row
	// base — and the sum with them. The counts are exact; the non-uniform
	// sum is rebuilt with two independent accumulators (about twice the
	// throughput of the canonical left-to-right summation on this
	// latency-bound path), whose reassociation can differ from
	// Kernel.SumYsqOverP by a few ulps, so the cursor keeps one unit of
	// drift: decisions near a boundary stop for Exact exactly as they do
	// for rolled updates, and published values stay canonical.
	drift = 1
	if r.cpLanes {
		// The whole group in one read: group eligibility plus the storage's
		// padding word make the two-word read safe at every offset.
		bi, off := cp.BlockIndex(to)
		words := r.cpWords
		if bi >= r.cpTailBase {
			words, bi = r.cpTail, 0
		}
		row := words[bi : bi+len(vec)]
		bit := off * len(vec) * 4
		di := bi + len(vec) + bit>>5
		var group uint64
		if r.cpOne {
			// Power-of-two alphabets: the group never straddles a word.
			group = uint64(words[di]) >> (bit & 31)
		} else {
			group = (uint64(words[di]) | uint64(words[di+1])<<32) >> (bit & 31)
		}
		base = base[:len(vec)]
		if uni {
			// Counts, Σ Y², and max Y in one pass. The nibble is taken and
			// the group shifted before y is formed: in the other order the
			// register allocator spills the group to the stack on every lane
			// (seen in the assembly), which cost ~10% on k=16 landings.
			var sq int64
			my := 0
			for c := range vec {
				nib := int(group & 15)
				group >>= 4
				y := int(int32(row[c])) - base[c] + nib
				vec[c] = y
				sq += int64(y) * int64(y)
				my = max(my, y)
			}
			sumInt, maxY = sq, my
			j = to
			goto eval
		}
		for c := range vec {
			vec[c] = int(int32(row[c])) - base[c] + int(group&15)
			group >>= 4
		}
	} else if to >= r.tailStart {
		// Relocated-tail epoch probe on a non-group-eligible alphabet:
		// serve it through the dispatching accessor, off the fast path.
		r.reconstructTail(to)
		sumInt, maxY, sum = r.sumInt, r.maxY, r.sum
		j = to
		goto eval
	} else {
		bi, off := cp.BlockIndex(to)
		words := r.cpWords
		k := len(vec)
		row := words[bi : bi+k]
		for c, bc := range base {
			bit := (off*k + c) * 4
			vec[c] = int(int32(row[c])) - bc + int(words[bi+k+bit>>5]>>(bit&31)&15)
		}
	}
	if uni {
		r.statsUniform()
		sumInt, maxY = r.sumInt, r.maxY
	} else {
		inv := kern.inv[:len(vec)]
		var s0, s1 float64
		c := 0
		for ; c+1 < len(vec); c += 2 {
			fy0 := float64(vec[c])
			fy1 := float64(vec[c+1])
			s0 += fy0 * fy0 * inv[c]
			s1 += fy1 * fy1 * inv[c+1]
		}
		if c < len(vec) {
			fy := float64(vec[c])
			s0 += fy * fy * inv[c]
		}
		sum = s0 + s1
	}
	j = to
	goto eval

done:
	r.j, r.to, r.held = j, j, found
	r.sumInt, r.maxY = sumInt, maxY
	r.sum, r.drift, r.hint = sum, drift, hint
	return evaluated, skipped, found
}

// reconstructTail is the relocated-tail landing path: the probe goes
// through the index's dispatching accessor, which serves the epoch's
// private tail-block copy. Only positions inside a live epoch's final
// partial block (fewer than B of them) ever land here; the sums it leaves
// behind are canonical, so the usual one-unit drift and guard-band
// machinery apply unchanged.
func (r *Roll) reconstructTail(to int) {
	r.cp.CumAt(to, r.vec)
	for c, b := range r.base {
		r.vec[c] -= b
	}
	if r.uniform {
		r.statsUniform()
		return
	}
	r.sum = r.kern.SumYsqOverP(r.vec)
	r.drift = 1
}

// Start returns the window's start position i.
func (r *Roll) Start() int { return r.i }

// End returns the window's current ending position j.
func (r *Roll) End() int { return r.j }

// Counts returns the window's count vector (shared storage; do not modify).
// The counts are exact regardless of drift.
func (r *Roll) Counts() []int { return r.vec }

// X2 returns the window's chi-square value from the rolled sum: exact when
// drift is zero, within the guard band of exact otherwise.
func (r *Roll) X2() float64 {
	fl := float64(r.j - r.i)
	if r.uniform {
		return float64(r.sumInt)*r.uinv/fl - fl
	}
	return r.sum/fl - fl
}

// Exact re-evaluates from the (always exact) count vector and returns the
// canonical X², bit-identical to Kernel.Value of the counts. In uniform
// mode the integer statistics stay authoritative, so nothing is cached.
func (r *Roll) Exact() float64 {
	if r.uniform {
		fl := float64(r.j - r.i)
		return r.kern.SumYsqOverP(r.vec)/fl - fl
	}
	if r.drift != 0 {
		r.sum = r.kern.SumYsqOverP(r.vec)
		r.drift = 0
	}
	return r.X2()
}
