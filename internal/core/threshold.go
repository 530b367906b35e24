package core

import "fmt"

// KindThreshold queries solve Problem 3 with the paper's Algorithm 3:
// report every substring whose X² strictly exceeds alpha. The skip budget is
// the constant alpha itself; substrings bounded below alpha by the
// chain-cover are excluded wholesale. When the current substring's X²
// already exceeds alpha no skip is possible (the chain-cover bound dominates
// the current value), so the scan advances one position, matching the
// paper's O(k·n²) worst case for small alpha and O(k·n·√(n/alpha))
// behaviour for large alpha. A threshold query is a sink of a pass
// (engine.go); the merge layer (partial.go) applies its limit.

// overflowErr is the threshold-limit error: more than limit substrings
// exceed alpha.
func overflowErr(limit int, alpha float64) error {
	return fmt.Errorf("core: more than %d substrings exceed threshold %g", limit, alpha)
}
