// Package montecarlo calibrates the null distribution of the MSS statistic
// X²max by simulation.
//
// A single substring's X² follows χ²(k−1) under the null model, but the MSS
// maximizes over all ~n²/2 (dependent) substrings, so its null distribution
// lies far to the right — the paper observes E[X²max] ≈ 2·ln n empirically
// (§7.4, Figure 2) and proves X²max > ln n w.h.p. (Lemma 4). Judging an
// observed X²max against χ²(k−1) therefore wildly overstates significance
// (the multiple-testing problem). This package estimates the true null law
// of X²max for given (n, model) by generating null strings, scanning each
// with the O(n^1.5) MSS algorithm, and recording the maxima; it then turns
// observed maxima into honest empirical p-values.
//
// Simulation is embarrassingly parallel: samples are distributed over a
// worker pool, with one deterministic RNG stream per sample so results are
// reproducible regardless of scheduling.
package montecarlo

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/strgen"
)

// Calibration is the empirical null distribution of X²max for a fixed
// string length and model.
type Calibration struct {
	n       int
	model   *alphabet.Model
	samples []float64 // sorted ascending
}

// Calibrate draws `samples` null strings of length n from the model and
// records each string's exact X²max. Workers default to GOMAXPROCS; the
// result is deterministic in seed.
func Calibrate(n int, m *alphabet.Model, samples int, seed int64) (*Calibration, error) {
	if n < 1 {
		return nil, fmt.Errorf("montecarlo: string length must be >= 1, got %d", n)
	}
	if samples < 1 {
		return nil, fmt.Errorf("montecarlo: need at least 1 sample, got %d", samples)
	}
	if m == nil {
		return nil, fmt.Errorf("montecarlo: nil model")
	}
	gen := strgen.NewMultinomial(m)
	out := make([]float64, samples)

	workers := runtime.GOMAXPROCS(0)
	if workers > samples {
		workers = samples
	}
	var wg sync.WaitGroup
	var firstErr error
	var mu sync.Mutex
	next := make(chan int)
	go func() {
		for i := 0; i < samples; i++ {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// One independent, deterministic stream per sample.
				rng := rand.New(rand.NewSource(seed + int64(i)*0x9E3779B9))
				s := gen.Generate(n, rng)
				sc, err := core.NewScanner(s, m)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				out[i] = sc.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindMSS, Hi: sc.Len()}).Best().X2
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	sort.Float64s(out)
	return &Calibration{n: n, model: m, samples: out}, nil
}

// N returns the calibrated string length.
func (c *Calibration) N() int { return c.n }

// Samples returns the number of simulated maxima.
func (c *Calibration) Samples() int { return len(c.samples) }

// PValue returns the empirical p-value of an observed X²max: the add-one
// estimator (1 + #{samples ≥ x}) / (samples + 1), which is never zero and
// is the standard unbiased-conservative Monte-Carlo p-value.
func (c *Calibration) PValue(x2 float64) float64 {
	// samples sorted ascending: count ≥ x2.
	idx := sort.SearchFloat64s(c.samples, x2)
	ge := len(c.samples) - idx
	return float64(1+ge) / float64(len(c.samples)+1)
}

// Quantile returns the empirical q-quantile of the null X²max distribution
// for q ∈ [0, 1] (nearest-rank).
func (c *Calibration) Quantile(q float64) (float64, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("montecarlo: quantile requires q in [0,1], got %g", q)
	}
	if len(c.samples) == 0 {
		return 0, fmt.Errorf("montecarlo: empty calibration")
	}
	idx := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.samples) {
		idx = len(c.samples) - 1
	}
	return c.samples[idx], nil
}

// Mean returns the sample mean of the null X²max.
func (c *Calibration) Mean() float64 {
	sum := 0.0
	for _, v := range c.samples {
		sum += v
	}
	return sum / float64(len(c.samples))
}

// CriticalValue returns the X²max threshold at significance level alpha:
// a null string's maximum exceeds it with probability ≈ alpha.
func (c *Calibration) CriticalValue(alpha float64) (float64, error) {
	if !(alpha > 0 && alpha < 1) {
		return 0, fmt.Errorf("montecarlo: significance level must lie in (0,1), got %g", alpha)
	}
	return c.Quantile(1 - alpha)
}
