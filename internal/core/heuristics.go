package core

import "repro/internal/walk"

// The ARLM and AGMM heuristics originate in Dutta & Bhattacharya, "Most
// Significant Substring Mining Based on Chi-square Measure" (PAKDD 2010) —
// reference [9] of the paper. Their implementations are not public, so the
// versions here are reconstructions from the published descriptions:
//
//   - both heuristics view the string through per-symbol cumulative
//     deviation walks W_c[j] = Y_c(s[0:j]) − j·p_c, whose steep segments are
//     exactly the high-deviation substrings;
//   - ARLM ("all local maxima") takes every local extremum of every walk as
//     a candidate substring boundary and evaluates all boundary pairs —
//     worst-case O(n²) pairs, matching the paper's complexity statement, and
//     in practice almost always exact (the paper reports it finding the MSS
//     on synthetic data and all real datasets, with a conjecture but no
//     proof);
//   - AGMM ("around global maxima/minima") restricts the candidates to each
//     walk's single global maximum and minimum plus the string endpoints —
//     O(nk) time total, matching the paper's O(n) bound for constant k, fast
//     but with no approximation guarantee (the paper reports it finding
//     clearly sub-optimal substrings on the sports and stock datasets).
//
// Both evaluate candidate pairs with the prefix count arrays in O(k) each.
// Each call builds its own walks (O(nk) time and 8·k·(n+1) bytes) and drops
// them on return, so a Scanner holds nothing beyond its string and index.

// ARLM runs the all-local-extrema heuristic. The result is exact whenever
// the true MSS boundaries coincide with walk extrema (the typical case); no
// guarantee is implied.
func (sc *Scanner) ARLM() (Scored, Stats) {
	ws, err := walk.New(sc.s, sc.model)
	if err != nil {
		// Scanner construction already validated the string; a failure here
		// is impossible, but fall back to the empty result for safety.
		return Scored{}, Stats{}
	}
	return sc.bestOverCuts(ws.LocalExtrema())
}

// AGMM runs the global-extrema heuristic.
func (sc *Scanner) AGMM() (Scored, Stats) {
	ws, err := walk.New(sc.s, sc.model)
	if err != nil {
		return Scored{}, Stats{}
	}
	return sc.bestOverCuts(ws.GlobalExtrema())
}

// bestOverCuts evaluates every pair (u, v), u < v, of candidate cut points
// as the substring s[u:v) and returns the best.
func (sc *Scanner) bestOverCuts(cuts []int) (Scored, Stats) {
	best := Scored{X2: -1}
	var st Stats
	vec := make([]int, sc.k)
	for a := 0; a < len(cuts); a++ {
		u := cuts[a]
		st.Starts++
		for b := a + 1; b < len(cuts); b++ {
			v := cuts[b]
			sc.pre.Vector(u, v, vec)
			x2 := sc.kern.Value(vec)
			st.Evaluated++
			if x2 > best.X2 {
				best = Scored{Interval{u, v}, x2}
			}
		}
	}
	if best.X2 < 0 {
		return Scored{}, st
	}
	return best, st
}
