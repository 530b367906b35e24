// Package chisq implements the Pearson chi-square kernels at the heart of
// the paper: direct evaluation of X² from a count vector (Eq. 5), O(1)
// incremental updates when a window grows by one character (Eq. 12), the
// chain-cover upper bound of Lemma 1/Theorem 1, and the maximal-skip solver
// derived from the quadratic constraint (Eq. 21).
package chisq

import "math"

// Value computes X² = Σ_i Y_i²/(l·p_i) − l for the count vector yv of a
// window of length l = Σ yv under probability model probs (paper Eq. 5).
// A zero-length window has X² = 0 by convention.
func Value(yv []int, probs []float64) float64 {
	l := 0
	sum := 0.0
	for i, y := range yv {
		if y == 0 {
			continue
		}
		fy := float64(y)
		sum += fy * fy / probs[i]
		l += y
	}
	if l == 0 {
		return 0
	}
	fl := float64(l)
	return sum/fl - fl
}

// Window maintains the X² of a growing window incrementally. Appending one
// character is O(1): with sumYsqOverP = Σ Y_m²/p_m, appending symbol c adds
// (2Y_c+1)/p_c to the sum, and X² = sumYsqOverP/L − L (from Eq. 5). This is
// the constant-factor improvement behind the "blocking" baseline and the
// incremental trivial scanner.
type Window struct {
	inv         []float64 // 1/probs, hoisted out of Append's hot path
	counts      []int
	length      int
	sumYsqOverP float64
}

// NewWindow returns an empty window over the given model.
func NewWindow(probs []float64) *Window {
	inv := make([]float64, len(probs))
	for i, p := range probs {
		inv[i] = 1 / p
	}
	return &Window{
		inv:    inv,
		counts: make([]int, len(probs)),
	}
}

// Reset empties the window.
func (w *Window) Reset() {
	for i := range w.counts {
		w.counts[i] = 0
	}
	w.length = 0
	w.sumYsqOverP = 0
}

// Append extends the window by one occurrence of symbol c.
func (w *Window) Append(c byte) {
	y := float64(w.counts[c])
	w.sumYsqOverP += (2*y + 1) * w.inv[c]
	w.counts[c]++
	w.length++
}

// Len returns the window length.
func (w *Window) Len() int { return w.length }

// Counts returns the window's count vector (shared storage; do not modify).
func (w *Window) Counts() []int { return w.counts }

// Value returns the window's X². Empty windows have X² = 0.
func (w *Window) Value() float64 {
	if w.length == 0 {
		return 0
	}
	fl := float64(w.length)
	return w.sumYsqOverP/fl - fl
}

// CoverValue returns the X² of the chain cover λ(S, a_c, x): the window's
// string followed by x ≥ 0 copies of symbol c (paper Definition 1, computed
// from Eq. 7 via the running sum). The receiver is not modified.
func CoverValue(yv []int, length int, sumYsqOverP float64, probs []float64, c int, x int) float64 {
	if length+x == 0 {
		return 0
	}
	fx := float64(x)
	fy := float64(yv[c])
	sum := sumYsqOverP + (2*fy*fx+fx*fx)/probs[c]
	fl := float64(length) + fx
	return sum/fl - fl
}

// CoverBound returns max_c X²(λ(S, a_c, x)) — the chain-cover upper bound of
// Theorem 1: every string that extends the window by at most x characters
// has X² at most this value. For fixed x the maximizing character is
// argmax_c (2Y_c + x)/p_c, so the bound is evaluated in O(k).
func CoverBound(yv []int, length int, x2 float64, probs []float64, x int) float64 {
	if x < 0 {
		panic("chisq: CoverBound requires x >= 0")
	}
	fl := float64(length)
	sumYsqOverP := (x2 + fl) * fl // invert Eq. 5
	best := math.Inf(-1)
	for c := range probs {
		v := CoverValue(yv, length, sumYsqOverP, probs, c, x)
		if v > best {
			best = v
		}
	}
	return best
}

// MaxSkip returns the largest integer x ≥ 0 such that CoverBound(window, x)
// ≤ budget, i.e. such that every extension of the window by 1..x characters
// is guaranteed (Theorem 1) to have X² ≤ budget and can therefore be skipped
// by a scan that only needs substrings beating budget.
//
// Derivation: for each symbol t the condition X²_λ(t, x) ≤ budget is the
// quadratic constraint (paper Eq. 21)
//
//	(1−p_t)·x² + (2Y_t − 2l·p_t − p_t·budget)·x + (X² − budget)·l·p_t ≤ 0 .
//
// Since for fixed x the binding symbol is the one maximizing (2Y_t + x)/p_t,
// the bound holds for all extensions iff the constraint holds for EVERY t,
// so the maximal skip is floor(min_t positiveRoot_t). (The paper's
// pseudocode solves only the quadratic of a single pre-chosen t and rounds
// up; taking the min over symbols and rounding down is the exact fixed point
// of that choice — internal/core.SkipVariant measures the difference.) A
// final O(k) verification guards against floating-point overshoot at
// integer boundaries.
//
// When the window's X² already exceeds budget the bound can never drop below
// X² (the window is itself one of the covered extensions), so MaxSkip
// returns 0.
func MaxSkip(yv []int, length int, x2 float64, budget float64, probs []float64) int {
	if x2 > budget || length == 0 {
		return 0
	}
	fl := float64(length)
	root := math.Inf(1)
	for t, pt := range probs {
		a := 1 - pt
		b := 2*(float64(yv[t])-fl*pt) - pt*budget
		c := (x2 - budget) * fl * pt // ≤ 0
		disc := b*b - 4*a*c
		if disc < 0 {
			// Cannot happen for c ≤ 0, a > 0; guard against rounding.
			return 0
		}
		r := (-b + math.Sqrt(disc)) / (2 * a)
		if r < root {
			root = r
		}
	}
	if root <= 0 || math.IsNaN(root) {
		return 0
	}
	x := int(math.Floor(root))
	if x <= 0 {
		return 0
	}
	// Floating-point safety: step down while the bound is actually violated.
	for x > 0 && CoverBound(yv, length, x2, probs, x) > budget+budgetSlack(budget) {
		x--
	}
	return x
}

// budgetSlack is the absolute tolerance used when verifying the cover bound
// against the budget; it protects against the last-ulp disagreements between
// the closed-form root and the directly evaluated bound.
func budgetSlack(budget float64) float64 {
	return 1e-9 * math.Max(1, math.Abs(budget))
}
