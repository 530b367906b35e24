package core

import (
	"math"
)

// SkipVariant configures deliberate deviations from the exact skip rule, for
// the ablation experiments (internal/experiments.Ablation1). The default
// (zero) value reproduces the exact algorithm.
//
// The paper's pseudocode (Algorithm 1, lines 9–13) chooses a single cover
// character before the skip length x is known and rounds the quadratic root
// up; our exact implementation instead takes the minimum root over all
// characters and rounds down (see chisq.MaxSkip). The two knobs here
// recreate the paper-literal behaviour so its cost/benefit can be measured:
// SingleChar skips the min-over-characters, RoundUp restores the ceiling.
// With either knob on, the scan may (rarely) skip past the true MSS, so the
// variant is only suitable for measurement, not for production use.
type SkipVariant struct {
	SingleChar bool // solve only the argmax(2Y/p) character's quadratic
	RoundUp    bool // take ceil of the root instead of floor
}

// MSSWithVariant runs the MSS scan with the given skip variant and reports
// the result it reaches plus its work counters.
func (sc *Scanner) MSSWithVariant(v SkipVariant) (Scored, Stats) {
	n := len(sc.s)
	best := Scored{X2: -1}
	var st Stats
	vec := make([]int, sc.k)
	for i := n - 1; i >= 0; i-- {
		st.Starts++
		for j := i + 1; j <= n; j++ {
			sc.pre.Vector(i, j, vec)
			x2 := sc.kern.Value(vec)
			st.Evaluated++
			if x2 > best.X2 {
				best = Scored{Interval{i, j}, x2}
			}
			if j == n {
				break
			}
			if skip := sc.variantSkip(vec, j-i, x2, best.X2, v); skip > 0 {
				if j+skip > n {
					skip = n - j
				}
				st.Skipped += int64(skip)
				j += skip
			}
		}
	}
	if best.X2 < 0 {
		return Scored{}, st
	}
	return best, st
}

// variantSkip mirrors chisq.MaxSkip with the ablation knobs applied.
func (sc *Scanner) variantSkip(yv []int, length int, x2, budget float64, v SkipVariant) int {
	if !v.SingleChar && !v.RoundUp {
		return sc.kern.MaxSkip(yv, length, x2, budget)
	}
	if x2 > budget || length == 0 {
		return 0
	}
	fl := float64(length)
	root := math.Inf(1)
	if v.SingleChar {
		// Paper-literal: pick the single character maximizing 2Y/p (the
		// x→0 limit of the paper's (2Y+x)/p criterion) and solve only its
		// quadratic.
		t := 0
		bestRatio := math.Inf(-1)
		for m, pm := range sc.probs {
			if r := 2 * float64(yv[m]) / pm; r > bestRatio {
				bestRatio = r
				t = m
			}
		}
		root = positiveRoot(yv[t], fl, sc.probs[t], x2, budget)
	} else {
		for t, pt := range sc.probs {
			if r := positiveRoot(yv[t], fl, pt, x2, budget); r < root {
				root = r
			}
		}
	}
	if math.IsNaN(root) || root <= 0 {
		if v.RoundUp && root > 0 {
			return 1
		}
		return 0
	}
	if v.RoundUp {
		return int(math.Ceil(root))
	}
	x := int(math.Floor(root))
	if x < 0 {
		x = 0
	}
	return x
}

// positiveRoot solves the quadratic constraint (Eq. 21) for one character.
func positiveRoot(y int, fl, p, x2, budget float64) float64 {
	a := 1 - p
	b := 2*(float64(y)-fl*p) - p*budget
	c := (x2 - budget) * fl * p
	disc := b*b - 4*a*c
	if disc < 0 {
		return 0
	}
	return (-b + math.Sqrt(disc)) / (2 * a)
}
