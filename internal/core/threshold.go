package core

import "fmt"

// KindThreshold queries solve Problem 3 with the paper's Algorithm 3:
// report every substring whose X² strictly exceeds alpha. The skip budget is
// the constant alpha itself; substrings bounded below alpha by the
// chain-cover are excluded wholesale. When the current substring's X²
// already exceeds alpha no skip is possible (the chain-cover bound dominates
// the current value), so the scan advances one position, matching the
// paper's O(k·n²) worst case for small alpha and O(k·n·√(n/alpha))
// behaviour for large alpha. The scans themselves live in engine.go.

// thresholdCollect is the one-sink threshold scan of the start rows
// [rowLo, rowHi]: it collects up to limit qualifying substrings (limit ≤ 0
// means no limit). The limit rides in the sink, so the parallel path's
// buffering stays O(workers·limit) however low alpha is, and the overflow
// error still fires exactly when more than limit substrings qualify.
func (sc *Scanner) thresholdCollect(e Engine, alpha float64, hi, minLen, rowLo, rowHi, limit int) ([]Scored, Stats, error) {
	var out []Scored
	overflow := false
	st := sc.engineThreshold(e, []sink{{alpha, limit}}, hi, minLen, rowLo, rowHi, func(_ int, s Scored) {
		if limit > 0 && len(out) >= limit {
			overflow = true
			return
		}
		out = append(out, s)
	})
	if overflow {
		return out, st, overflowErr(limit, alpha)
	}
	return out, st, nil
}

// overflowErr is the shared threshold-limit error of the single-query and
// batch collect paths.
func overflowErr(limit int, alpha float64) error {
	return fmt.Errorf("core: more than %d substrings exceed threshold %g", limit, alpha)
}
