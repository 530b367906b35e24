package chisq

import (
	"math"

	"repro/internal/counts"
)

// maxDrift caps the number of O(1) incremental updates the rolling sum may
// accumulate before the cursor forces an exact re-sync from the count
// vector. The guard band grows linearly with the drift, so the cap keeps it
// tight: at 4096 updates the bound is ≈ 4·10⁻¹²·(X² + l), far below the gap
// between distinct X² values at paper-scale lengths.
const maxDrift = 4096

// Roll is the rolling chi-square cursor the scan engine's inner loops run
// on: one window [i, j) whose ending position only moves right, holding the
// window's count vector and the running sum S = Σ Y_c²/p_c.
//
// Extending the window by one symbol c updates S in O(1) — the identity
// behind Eq. 12 of the paper: (Y_c+1)² = Y_c² + (2Y_c + 1), so
// S += (2Y_c + 1)/p_c — which makes the inner loop independent of the
// alphabet size k for short extensions. Long chain-cover skips land with a
// single cumulative-row read from the count index (CumAt) and an exact O(k)
// rebuild of S, which doubles as a re-sync point for the floating-point
// drift of the incremental updates.
//
// Exactness contract: X2 returns the incrementally maintained value, which
// may differ from the canonical evaluation by the tiny bound Guard encodes;
// Exact re-syncs and returns a value bit-identical to Kernel.Value of the
// window's count vector — the number the non-rolling scan would have
// computed, whatever the kernel tier. Scans call Exact whenever the rolled
// value lands within the guard band of a decision boundary (a budget, a
// threshold, a heap minimum), so every published result is exact and every
// comparison decided from a rolled value provably has the same outcome as
// the exact comparison.
type Roll struct {
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
	// path off the appender's write frontier, kernels included.
	cpTail     []uint32
	cpTailBase int
	// kf holds the reconstruct kernel entry points (scalar or AVX2 — see
	// counts.Kernel) the index resolved when it was built, so the cursor
	// and the index's own probes always run one tier. Both tiers are exact
	// integer arithmetic, so the cursor's results do not depend on which
	// tier is bound.
	kf counts.KernelFuncs
	// tailStart is the first position NOT servable from cpWords directly,
	// consulted only by the NON-lanes path (alphabets outside
	// counts.GroupFits): probes landing there go through the dispatching
	// accessor instead. Contiguous indexes set it to MaxInt. At most B−1
	// positions of a live epoch land in the tail.
	tailStart int

	base   []int   // cumulative counts at the row start i
	base32 []int32 // base as int32 lanes — the shape the kernels subtract
	vec    []int   // window count vector, always exact (integer updates)

	sum   float64 // rolled S = Σ Y_c²/p_c (non-uniform models)
	drift int     // incremental updates since the last exact re-sync
	i, j  int

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
// raw symbol string the index was built from. The cursor reconstructs on
// the kernel tier the index resolved.
func NewRoll(kern *Kernel, cp *counts.Checkpointed, s []byte) *Roll {
	k := kern.K()
	r := &Roll{
		kern:      kern,
		cp:        cp,
		s:         s,
		base:      make([]int, k),
		base32:    make([]int32, k),
		vec:       make([]int, k),
		recost:    k + 4,
		uniform:   kern.uniform,
		uinv:      kern.inv[0],
		tailStart: math.MaxInt,
	}
	r.cpWords, r.cpTail, r.cpTailBase = cp.Storage()
	if lo, relocated := cp.RelocatedTailStart(); relocated {
		r.tailStart = lo
	}
	// The single two-word group read needs the group's word offset plus its
	// 4k bits to fit 64 bits for every block position: offsets are multiples
	// of gcd(4k, 32), so the condition is 32−gcd+4k ≤ 64 — counts.GroupFits.
	// Eligible alphabets bind the index's kernel entry points; the rest take
	// the per-nibble path.
	r.kf, r.cpLanes = cp.Funcs()
	r.cpOne = 4*k <= 32 && 32%(4*k) == 0
	return r
}

// Begin positions the cursor on the window [i, j), starting a new row.
func (r *Roll) Begin(i, j int) {
	r.i = i
	r.cp.CumAt(i, r.base)
	if r.cpLanes {
		// Mirror the row base as the int32 lanes the reconstruct kernels
		// subtract — cumulative counts are < 2³¹ by the corpus length cap,
		// so the narrowing is exact. O(k), once per row.
		for c, b := range r.base {
			r.base32[c] = int32(b)
		}
	}
	if j-i <= r.recost {
		for c := range r.vec {
			r.vec[c] = 0
		}
		for _, sym := range r.s[i:j] {
			r.vec[sym]++
		}
		if r.uniform {
			r.statsUniform()
		} else {
			r.sum = r.kern.SumYsqOverP(r.vec)
			r.drift = 0
		}
		r.j = j
		return
	}
	r.reconstruct(j)
	r.j = j
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

// Advance extends the window's end from its current position to `to`,
// rolling symbol-by-symbol for short extensions and reconstructing from the
// count index for long ones.
func (r *Roll) Advance(to int) {
	d := to - r.j
	switch {
	case r.uniform && d <= r.recost:
		for _, sym := range r.s[r.j:to] {
			y := r.vec[sym] + 1
			r.sumInt += int64(2*y - 1)
			r.vec[sym] = y
			if y > r.maxY {
				r.maxY = y
			}
		}
	case !r.uniform && d <= r.recost && r.drift+d <= maxDrift:
		inv := r.kern.inv
		for _, sym := range r.s[r.j:to] {
			y := float64(r.vec[sym])
			r.sum += (2*y + 1) * inv[sym]
			r.vec[sym]++
		}
		r.drift += d
	default:
		r.reconstruct(to)
	}
	r.j = to
}

// reconstruct rebuilds the window counts [i, to) from the count index and
// refreshes the sum in the same flat function — the index probe, the base
// subtraction, and the sum rebuild fuse into one pass per chain-cover
// landing. Group-eligible alphabets run the bound reconstruct kernel
// (scalar or AVX2 — exact integer arithmetic in both tiers, so the tier
// choice never shows in results); uniform models additionally get Σ Y² and
// max Y fused into the same kernel call.
//
// The counts are exact; the non-uniform sum is rebuilt with two independent
// accumulators — about twice the throughput of the canonical left-to-right
// summation on this latency-bound path — whose reassociation can differ
// from Kernel.SumYsqOverP by a few ulps, so the cursor keeps one unit of
// drift: decisions near a boundary re-sync via Exact exactly as they do for
// rolled updates, and published values stay canonical.
func (r *Roll) reconstruct(to int) {
	vec := r.vec
	switch {
	case r.cpLanes:
		// One block probe, no walk: the checkpoint row plus the position's
		// nibble-delta group, grabbed as a single two-word read (group
		// eligibility — counts.GroupFits — plus the storage's padding word
		// make the read safe at every offset), handed to the bound
		// reconstruct kernel.
		k := len(vec)
		base, off := r.cp.BlockIndex(to)
		words := r.cpWords
		if base >= r.cpTailBase {
			words, base = r.cpTail, 0
		}
		row := words[base : base+k]
		bit := off * k * 4
		di := base + k + bit>>5
		var group uint64
		if r.cpOne {
			// Power-of-two alphabets: the group never straddles a word.
			group = uint64(words[di]) >> (bit & 31)
		} else {
			group = (uint64(words[di]) | uint64(words[di+1])<<32) >> (bit & 31)
		}
		if r.uniform {
			// Counts, Σ Y², and max Y in one kernel call.
			r.sumInt, r.maxY = r.kf.ReconstructUniform(row, group, r.base32, vec)
			r.drift = 1
			return
		}
		r.kf.Reconstruct(row, group, r.base32, vec)
	case to >= r.tailStart:
		// Relocated-tail epoch probe on a non-group-eligible alphabet:
		// serve it through the dispatching accessor off the fast path.
		r.reconstructTail(to)
		return
	default:
		base, off := r.cp.BlockIndex(to)
		words := r.cpWords
		row := words[base : base+len(vec)]
		k := len(vec)
		for c, b := range r.base {
			bit := (off*k + c) * 4
			vec[c] = int(int32(row[c])) - b + int(words[base+k+bit>>5]>>(bit&31)&15)
		}
	}
	if r.uniform {
		r.statsUniform()
		return
	}
	inv := r.kern.inv
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
	r.sum = s0 + s1
	r.drift = 1
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

// Len returns the window length.
func (r *Roll) Len() int { return r.j - r.i }

// Counts returns the window's count vector (shared storage; do not modify).
// The counts are exact regardless of drift.
func (r *Roll) Counts() []int { return r.vec }

// Synced reports whether the rolled sum is currently exact (no incremental
// updates since the last re-sync), in which case X2 returns the canonical
// value directly.
func (r *Roll) Synced() bool { return r.drift == 0 }

// X2 returns the window's chi-square value from the rolled sum: exact when
// drift is zero, within Guard of exact otherwise.
func (r *Roll) X2() float64 {
	fl := float64(r.j - r.i)
	return r.curSum()/fl - fl
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

// curSum returns the working sum the decision prefilter and skip solver
// compare with: the rolled float sum, or p⁻¹ times the integer sum in
// uniform mode (one conversion and multiply — off the critical chain).
func (r *Roll) curSum() float64 {
	if r.uniform {
		return float64(r.sumInt) * r.uinv
	}
	return r.sum
}

// Passes is the decision prefilter of the scan loops: it reports whether
// the window's X² could possibly exceed boundary, comparing in multiplied-
// through form — S ≥ l·(boundary + l) ⇔ X² ≥ boundary — so the hot path
// never divides. The comparison is padded by a guard band covering both the
// floating-point drift of the rolled sum (each of the m incremental updates
// contributes at most one 2⁻⁵³ relative rounding to a sum of positive
// terms) and the roundings of the multiplied-through form itself, with an
// 8× safety factor (2⁻⁵⁰).
//
// Guarantee: when Passes returns false, the canonical X² (as Exact or
// Kernel.Value would compute it) is strictly below boundary, so a caller
// that treats non-passing windows as "cannot beat the boundary" decides
// identically to the exact engine. When it returns true the caller
// re-evaluates via Exact and decides canonically — false positives cost
// one division, never correctness.
func (r *Roll) Passes(boundary float64) bool {
	sum := r.curSum()
	fl := float64(r.j - r.i)
	flsq := fl * fl
	eps := float64(r.drift+4) * 0x1p-50 * (sum + flsq + fl)
	return sum+eps >= fl*boundary+flsq
}

// MaxSkip returns the maximal sound chain-cover skip for the current
// window. The rolled sum is inflated by its drift bound first — the skip
// quadratic shrinks monotonically as the sum grows, so the inflated skip is
// sound for the exact value too. The binding-symbol hint is threaded
// through automatically.
func (r *Roll) MaxSkip(budget float64) int {
	sum := r.curSum()
	if r.drift != 0 {
		sum += float64(r.drift+4) * 0x1p-50 * sum
	}
	if r.uniform {
		// Equal probabilities make the binding symbol the argmax count —
		// the skip quadratic is tightest for the most frequent symbol — so
		// one root and one integer-point check decide the skip with no
		// per-symbol sweep: the solver is independent of the alphabet size.
		return r.kern.MaxSkipUniform(r.maxY, r.j-r.i, sum, budget)
	}
	skip, binding := r.kern.MaxSkipSum(r.vec, r.j-r.i, sum, budget, r.hint)
	r.hint = binding
	return skip
}
