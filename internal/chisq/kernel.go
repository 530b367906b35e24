package chisq

import "math"

// Kernel is the division-free evaluation kernel shared by the scan engine's
// hot loops. Division is the slowest arithmetic instruction in Value,
// Window.Append, and MaxSkip — each divides by a model probability — so the
// Kernel hoists the reciprocals 1/p_c (and the per-symbol constants of the
// skip quadratic) out of the loops once per model and multiplies instead.
//
// Multiplying by a precomputed reciprocal differs from dividing by at most
// one ulp per operation; every consumer of Kernel values uses the Kernel for
// all of them, so comparisons between scans remain exact.
type Kernel struct {
	probs   []float64
	inv     []float64 // inv[c] = 1/probs[c]
	invTwoA []float64 // invTwoA[c] = 1/(2·(1−probs[c])), the skip root divisor
	fourPQ  []float64 // fourPQ[c] = 4·(1−probs[c])·probs[c], the discriminant factor
	uniform bool      // all probabilities equal: the rolling cursor's integer mode
}

// NewKernel precomputes the reciprocal tables for a probability vector. The
// probabilities are copied; the Kernel never aliases caller memory.
func NewKernel(probs []float64) *Kernel {
	k := len(probs)
	kn := &Kernel{
		probs:   make([]float64, k),
		inv:     make([]float64, k),
		invTwoA: make([]float64, k),
		fourPQ:  make([]float64, k),
	}
	copy(kn.probs, probs)
	kn.uniform = true
	for c, p := range probs {
		kn.inv[c] = 1 / p
		kn.invTwoA[c] = 1 / (2 * (1 - p))
		kn.fourPQ[c] = 4 * (1 - p) * p
		kn.uniform = kn.uniform && p == probs[0]
	}
	return kn
}

// K returns the alphabet size.
func (kn *Kernel) K() int { return len(kn.probs) }

// Probs returns the kernel's probability vector (shared storage; do not
// modify).
func (kn *Kernel) Probs() []float64 { return kn.probs }

// Recips returns the precomputed reciprocals 1/p (shared storage; do not
// modify).
func (kn *Kernel) Recips() []float64 { return kn.inv }

// Value computes X² of a count vector (Eq. 5) using the reciprocal table.
func (kn *Kernel) Value(yv []int) float64 {
	l := 0
	sum := 0.0
	for i, y := range yv {
		if y == 0 {
			continue
		}
		fy := float64(y)
		sum += fy * fy * kn.inv[i]
		l += y
	}
	if l == 0 {
		return 0
	}
	fl := float64(l)
	return sum/fl - fl
}

// SumYsqOverP computes S = Σ_i Y_i²/p_i — the running sum the rolling
// kernel maintains — with the exact summation order of Value, so
// ValueFromSum(SumYsqOverP(yv), l) is bit-identical to Value(yv).
func (kn *Kernel) SumYsqOverP(yv []int) float64 {
	sum := 0.0
	for i, y := range yv {
		if y == 0 {
			continue
		}
		fy := float64(y)
		sum += fy * fy * kn.inv[i]
	}
	return sum
}

// ValueFromSum converts a running sum S = Σ Y_i²/p_i and a known window
// length to X² = S/l − l. It is the O(1) tail of Value for callers that
// track the length themselves.
func (kn *Kernel) ValueFromSum(sum float64, l int) float64 {
	if l == 0 {
		return 0
	}
	fl := float64(l)
	return sum/fl - fl
}

// CoverBound returns max_c X²(λ(S, a_c, x)) — Theorem 1's chain-cover upper
// bound — using the reciprocal table; see the free function CoverBound.
func (kn *Kernel) CoverBound(yv []int, length int, x2 float64, x int) float64 {
	if x < 0 {
		panic("chisq: CoverBound requires x >= 0")
	}
	if length+x == 0 {
		return 0
	}
	fl := float64(length)
	sumYsqOverP := (x2 + fl) * fl
	fx := float64(x)
	l := fl + fx
	invL := 1 / l
	best := math.Inf(-1)
	for c := range kn.inv {
		fy := float64(yv[c])
		sum := sumYsqOverP + (2*fy*fx+fx*fx)*kn.inv[c]
		if v := sum*invL - l; v > best {
			best = v
		}
	}
	return best
}

// MaxSkip is the division-hoisted form of the free MaxSkip: the largest
// x ≥ 0 such that every extension of the window by 1..x characters provably
// has X² ≤ budget. See MaxSkipHint for the algorithm; MaxSkip is the
// hint-free entry point kept for callers outside the scan loops.
func (kn *Kernel) MaxSkip(yv []int, length int, x2, budget float64) int {
	skip, _ := kn.MaxSkipHint(yv, length, x2, budget, 0)
	return skip
}

// MaxSkipHint computes the maximal chain-cover skip while dodging almost
// all of the square roots the closed-form solution (Eq. 21) seems to
// demand. For symbol t the constraint X²_λ(t, x) ≤ budget is the upward
// parabola
//
//	q_t(x) = (1−p_t)·x² + b_t·x + c_t ≤ 0 ,
//	b_t = 2·Y_t − p_t·A ,  c_t = C·p_t ≤ 0 ,
//	A = 2l + budget ,      C = (X² − budget)·l ,
//
// whose negative span is [r_t⁻, r_t] with r_t⁻ ≤ 0 ≤ r_t (the product of
// roots has the sign of c_t ≤ 0), so for x > 0: q_t(x) ≤ 0 ⇔ x ≤ r_t, and
// the maximal skip is ⌊min_t r_t⌋. Only the binding symbol's root is ever
// needed as a number — at a candidate skip x, every symbol's constraint
// rearranges to the three-multiplication sign test
//
//	q_t(x) ≤ 0   ⇔   u + Y_t·v ≤ p_t·w ,
//	u = x² ,  v = 2x ,  w = x² + A·x − C   (all symbol-independent),
//
// so the algorithm is verify-first: solve ONE quadratic — the hinted
// symbol's, threaded from the previous window, where the binding symbol
// rarely changes — and sweep the cheap sign test over the alphabet. A
// violated symbol is more binding than everything accepted so far: its root
// becomes the new candidate (one more square root) and the sweep simply
// continues — earlier acceptances stay valid because the candidate only
// decreases. The typical call costs one square root plus k sign tests,
// against the naive loop's k roots plus an O(k) CoverBound verification
// with a division.
//
// Verifying at the integer x directly also subsumes the old step-down
// check: floating-point overshoot of a closed-form root never survives the
// sweep, so a substring whose X² strictly exceeds the budget is never
// skipped (the same zero-tolerance contract as before — the sign test
// accepts no slack).
//
// The returned binding symbol is the caller's hint for the next call.
func (kn *Kernel) MaxSkipHint(yv []int, length int, x2, budget float64, hint int) (skip, binding int) {
	if hint < 0 || hint >= len(kn.probs) {
		hint = 0
	}
	if x2 > budget || length == 0 {
		return 0, hint
	}
	fl := float64(length)
	return kn.maxSkipAC(yv, 2*fl+budget, (x2-budget)*fl, hint)
}

// MaxSkipSum is MaxSkipHint stated in terms of the running sum
// S = Σ Y_c²/p_c instead of X². The coefficient algebra absorbs the
// conversion — c = (X²−budget)·l = S − l·(budget+l) — so the rolling scan
// never divides by the window length on its hot path: the division that
// produced X² from S is gone entirely, not merely hoisted.
func (kn *Kernel) MaxSkipSum(yv []int, length int, sum, budget float64, hint int) (skip, binding int) {
	if hint < 0 || hint >= len(kn.probs) {
		hint = 0
	}
	if length == 0 {
		return 0, hint
	}
	fl := float64(length)
	c := sum - fl*(budget+fl)
	if c > 0 { // X² > budget in multiply-through form
		return 0, hint
	}
	return kn.maxSkipAC(yv, 2*fl+budget, c, hint)
}

// skipCap bounds every skip the solvers return. A budget near the float64
// range (a client's threshold α of 1e300, say) overflows the quadratic to an
// infinite root, and a NaN budget gives a NaN one; the int conversion of
// either is undefined — on amd64 a huge negative skip that sent the scan
// cursor backwards. A root at or past the cap returns the cap: it is at most
// the root, so the skip stays sound (no window exceeds a NaN budget), and
// callers stop at the range end.
const skipCap = math.MaxInt >> 1

// maxSkipAC is the shared core of the skip solvers, taking the
// symbol-independent quadratic coefficients a = 2l + budget and
// c = (X²−budget)·l ≤ 0.
func (kn *Kernel) maxSkipAC(yv []int, a, c float64, hint int) (skip, binding int) {
	probs := kn.probs
	binding = hint
	z := kn.skipRoot(float64(yv[hint]), a, c, hint)
	if z < 1 {
		// The hinted root bounds the minimum from above: no skip possible.
		return 0, binding
	}
	// One sweep suffices: a symbol whose constraint fails at the current z
	// is more binding than everything accepted so far, and replacing z by
	// its (strictly smaller) root keeps all earlier acceptances valid — the
	// negative span of each parabola contains [0, its root].
	u := z * z
	v := 2 * z
	w := u + a*z - c
	for t, pt := range probs {
		if u+float64(yv[t])*v > pt*w {
			r := kn.skipRoot(float64(yv[t]), a, c, t)
			if r >= z {
				continue // fp disagreement between root and sign test: z stands
			}
			z, binding = r, t
			if z < 1 {
				return 0, binding
			}
			u = z * z
			v = 2 * z
			w = u + a*z - c
		}
	}
	// Every symbol's constraint was sign-tested at some z' ≥ z, which covers
	// the final integer skip by inclusion — except the binding symbol, whose
	// own root z was taken on faith from the closed form.
	return kn.floorRoot(z, float64(yv[binding]), a, c, binding), binding
}

// floorRoot turns symbol t's root z ≥ 1 (or NaN) into the integer skip: the
// cap for a root at or past skipCap, otherwise ⌊z⌋, tested against t's
// constraint at the integer and stepped down once if the closed-form root
// overshot it.
func (kn *Kernel) floorRoot(z, y, a, c float64, t int) int {
	if !(z < skipCap) {
		return skipCap
	}
	x := int(z)
	fx := float64(x)
	ux := fx * fx
	if ux+y*(2*fx) > kn.probs[t]*(ux+a*fx-c) {
		x--
	}
	return x
}

// skipRoot solves symbol t's skip quadratic for its positive root, given
// the symbol-independent coefficients a = 2l + budget and c = (x2−budget)·l.
func (kn *Kernel) skipRoot(y, a, c float64, t int) float64 {
	b := 2*y - kn.probs[t]*a
	disc := b*b - kn.fourPQ[t]*c
	if disc < 0 {
		// Cannot happen for c ≤ 0; guard against rounding.
		return 0
	}
	return (-b + math.Sqrt(disc)) * kn.invTwoA[t]
}
