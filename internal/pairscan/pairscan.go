// Package pairscan finds the time periods during which two aligned symbol
// streams are most correlated — the paper's §8 future-work application
// ("financial time series analysis of two securities that might not be very
// correlated in general, but might point to significant correlations during
// certain specific events such as recession").
//
// The construction reduces the 2-stream problem to the paper's 1-stream
// machinery: the two streams are zipped into one string over the product
// alphabet (a, b) ↦ a·k_b + b, and the null model is the independence
// product of the streams' marginal distributions. A window where the joint
// distribution deviates from that product — i.e. where the streams move
// together (or against each other) more than their marginals explain — is
// exactly a high-X² window of the product string, so the O(n^{3/2}) MSS
// algorithm, top-t, and threshold scans all apply unchanged.
//
// The per-window statistic is the chi-square independence test with
// (k_a·k_b − 1) nominal degrees of freedom under the fixed product model.
package pairscan

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/dist"
)

// Scanner scans a pair of aligned streams for correlation windows.
type Scanner struct {
	ka, kb int
	inner  *core.Scanner
}

// New zips the aligned streams a (over ka symbols) and b (over kb symbols)
// and builds the product-model scanner. The streams must have equal length;
// marginals are estimated from the streams themselves (maximum likelihood,
// smoothed), matching how the paper's applications estimate models from
// data. ka·kb must stay within the alphabet limit.
func New(a []byte, ka int, b []byte, kb int) (*Scanner, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("pairscan: streams have different lengths %d and %d", len(a), len(b))
	}
	if len(a) == 0 {
		return nil, fmt.Errorf("pairscan: empty streams")
	}
	if ka < 2 || kb < 2 {
		return nil, fmt.Errorf("pairscan: both alphabets must have at least 2 symbols (got %d, %d)", ka, kb)
	}
	if ka*kb > alphabet.MaxK {
		return nil, fmt.Errorf("pairscan: product alphabet %d×%d exceeds maximum %d", ka, kb, alphabet.MaxK)
	}
	if err := alphabet.Validate(a, ka); err != nil {
		return nil, fmt.Errorf("pairscan: stream a: %v", err)
	}
	if err := alphabet.Validate(b, kb); err != nil {
		return nil, fmt.Errorf("pairscan: stream b: %v", err)
	}

	ma, err := alphabet.MLE(a, ka)
	if err != nil {
		return nil, err
	}
	mb, err := alphabet.MLE(b, kb)
	if err != nil {
		return nil, err
	}
	probs := make([]float64, ka*kb)
	for i := 0; i < ka; i++ {
		for j := 0; j < kb; j++ {
			probs[i*kb+j] = ma.Prob(i) * mb.Prob(j)
		}
	}
	product, err := alphabet.NewModel(probs)
	if err != nil {
		return nil, err
	}

	zipped := make([]byte, len(a))
	for i := range a {
		zipped[i] = a[i]*byte(kb) + b[i]
	}
	inner, err := core.NewScanner(zipped, product)
	if err != nil {
		return nil, err
	}
	return &Scanner{ka: ka, kb: kb, inner: inner}, nil
}

// Len returns the stream length.
func (sc *Scanner) Len() int { return sc.inner.Len() }

// MostCorrelatedPeriod returns the window where the joint behaviour
// deviates most from independence, via the exact O(n^{3/2}) MSS scan on the
// product string.
func (sc *Scanner) MostCorrelatedPeriod() (core.Scored, core.Stats) {
	r := sc.inner.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindMSS, Hi: sc.inner.Len()})
	return r.Best(), r.Stats
}

// TopPeriods returns up to t pairwise disjoint correlation windows of
// length ≥ minLen, strongest first.
func (sc *Scanner) TopPeriods(t, minLen int) ([]core.Scored, core.Stats, error) {
	r := sc.inner.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindDisjoint, T: t, MinLen: minLen, Hi: sc.inner.Len()})
	return r.Results, r.Stats, r.Err
}

// PeriodsAbove reports every window with independence chi-square above
// alpha.
func (sc *Scanner) PeriodsAbove(alpha float64, visit func(core.Scored)) core.Stats {
	return sc.inner.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindThreshold, Alpha: alpha, Hi: sc.inner.Len(), Visit: visit}).Stats
}

// X2 returns the window's independence chi-square.
func (sc *Scanner) X2(i, j int) float64 { return sc.inner.X2(i, j) }

// PValue converts a window statistic to its tail probability under
// χ²(k_a·k_b − 1). (With data-estimated marginals the effective degrees of
// freedom are lower — (k_a−1)(k_b−1) in the classical contingency test —
// so this is the conservative choice for mining.)
func (sc *Scanner) PValue(x2 float64) float64 {
	if x2 <= 0 {
		return 1
	}
	c := dist.ChiSquare{Nu: float64(sc.ka*sc.kb - 1)}
	return c.Survival(x2)
}

// Agreement returns, for a window [i, j), the fraction of positions where
// the two streams moved "together" (equal symbol index) — a readable
// summary of what a correlation window looks like for same-sized alphabets.
// For unequal alphabets it reports the fraction of the modal joint symbol.
func (sc *Scanner) Agreement(i, j int) (float64, error) {
	if i < 0 || j > sc.inner.Len() || i >= j {
		return 0, fmt.Errorf("pairscan: invalid window [%d, %d)", i, j)
	}
	zipped := sc.inner.Symbols()[i:j]
	if sc.ka == sc.kb {
		same := 0
		for _, z := range zipped {
			if int(z)/sc.kb == int(z)%sc.kb {
				same++
			}
		}
		return float64(same) / float64(j-i), nil
	}
	counts := make(map[byte]int)
	best := 0
	for _, z := range zipped {
		counts[z]++
		if counts[z] > best {
			best = counts[z]
		}
	}
	return float64(best) / float64(j-i), nil
}
