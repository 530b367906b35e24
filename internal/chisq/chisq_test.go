package chisq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/counts"
)

// directX2 recomputes Eq. 4 literally: Σ (Y_i − l·p_i)² / (l·p_i).
func directX2(yv []int, probs []float64) float64 {
	l := 0
	for _, y := range yv {
		l += y
	}
	if l == 0 {
		return 0
	}
	fl := float64(l)
	sum := 0.0
	for i, y := range yv {
		e := fl * probs[i]
		d := float64(y) - e
		sum += d * d / e
	}
	return sum
}

func randCounts(rng *rand.Rand, k, maxLen int) []int {
	yv := make([]int, k)
	l := 1 + rng.Intn(maxLen)
	for i := 0; i < l; i++ {
		yv[rng.Intn(k)]++
	}
	return yv
}

func randProbs(rng *rand.Rand, k int) []float64 {
	probs := make([]float64, k)
	sum := 0.0
	for i := range probs {
		probs[i] = 0.05 + rng.Float64()
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs
}

func TestValueMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(6)
		probs := randProbs(rng, k)
		yv := randCounts(rng, k, 100)
		got := Value(yv, probs)
		want := directX2(yv, probs)
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("trial %d: Value=%g, definition=%g (yv=%v probs=%v)", trial, got, want, yv, probs)
		}
	}
}

func TestValueHandCases(t *testing.T) {
	half := []float64{0.5, 0.5}
	cases := []struct {
		yv   []int
		want float64
	}{
		{[]int{0, 0}, 0},   // empty
		{[]int{1, 1}, 0},   // perfectly balanced
		{[]int{2, 0}, 2},   // "00": (2−1)²/1 + (0−1)²/1
		{[]int{0, 2}, 2},   // "11"
		{[]int{4, 0}, 4},   // all one symbol, length 4
		{[]int{3, 1}, 1},   // (3−2)²/2 + (1−2)²/2
		{[]int{10, 10}, 0}, // balanced long
		{[]int{20, 0}, 20}, // the longer the pure run, the larger X²
	}
	for _, c := range cases {
		got := Value(c.yv, half)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Value(%v) = %g, want %g", c.yv, got, c.want)
		}
	}
}

func TestValueNonNegative(t *testing.T) {
	f := func(y0, y1, y2 uint8, pRaw uint16) bool {
		p0 := (float64(pRaw%800) + 100) / 1000 // 0.1..0.9
		rest := 1 - p0
		probs := []float64{p0, rest / 2, rest / 2}
		yv := []int{int(y0 % 50), int(y1 % 50), int(y2 % 50)}
		return Value(yv, probs) >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// X² depends only on counts, not order: permuting a string never changes the
// statistic (observed directly since Value takes counts, but whole-string
// windows read from the prefix arrays must agree across any two strings
// with equal counts).
func TestOrderIndependence(t *testing.T) {
	probs := []float64{0.3, 0.7}
	a := []byte{0, 0, 1, 1, 0, 1, 1, 1}
	b := []byte{1, 1, 1, 1, 1, 0, 0, 0}
	pa, err := counts.New(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := counts.New(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	va := Value(pa.Vector(0, len(a), make([]int, 2)), probs)
	vb := Value(pb.Vector(0, len(b), make([]int, 2)), probs)
	if math.Abs(va-vb) > 1e-12 {
		t.Errorf("permutations disagree: %g vs %g", va, vb)
	}
}

func TestWindowIncrementalMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(5)
		probs := randProbs(rng, k)
		n := 1 + rng.Intn(300)
		s := make([]byte, n)
		for i := range s {
			s[i] = byte(rng.Intn(k))
		}
		w := NewWindow(probs)
		yv := make([]int, k)
		for i := 0; i < n; i++ {
			w.Append(s[i])
			yv[s[i]]++
			got := w.Value()
			want := Value(yv, probs)
			if math.Abs(got-want) > 1e-8*math.Max(1, math.Abs(want)) {
				t.Fatalf("trial %d pos %d: incremental %g, direct %g", trial, i, got, want)
			}
		}
		if w.Len() != n {
			t.Fatalf("window length %d, want %d", w.Len(), n)
		}
		w.Reset()
		if w.Len() != 0 || w.Value() != 0 {
			t.Fatal("Reset did not clear the window")
		}
	}
}

// Lemma 2: there is always a character whose appending increases X². Our
// stronger check: appending the argmax Y_j/p_j character strictly increases
// X² for any nonempty window.
func TestLemma2AppendImprovement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		k := 2 + rng.Intn(6)
		probs := randProbs(rng, k)
		yv := randCounts(rng, k, 200)
		x2 := Value(yv, probs)
		// argmax Y_j / p_j
		best, bestRatio := 0, -1.0
		for j, y := range yv {
			r := float64(y) / probs[j]
			if r > bestRatio {
				bestRatio = r
				best = j
			}
		}
		yv[best]++
		x2After := Value(yv, probs)
		if !(x2After > x2) {
			t.Fatalf("trial %d: appending argmax character did not increase X²: %g -> %g", trial, x2, x2After)
		}
	}
}

// Lemma 1 / Theorem 1: the chain-cover bound dominates the X² of every
// random extension of a window by at most x characters.
func TestChainCoverDominatesExtensions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		k := 2 + rng.Intn(5)
		probs := randProbs(rng, k)
		yv := randCounts(rng, k, 100)
		length := 0
		for _, y := range yv {
			length += y
		}
		x2 := Value(yv, probs)
		x := 1 + rng.Intn(50)
		bound := CoverBound(yv, length, x2, probs, x)
		// Try 20 random extensions of length 0..x.
		ext := make([]int, k)
		for e := 0; e < 20; e++ {
			copy(ext, yv)
			extLen := rng.Intn(x + 1)
			for i := 0; i < extLen; i++ {
				ext[rng.Intn(k)]++
			}
			ev := Value(ext, probs)
			if ev > bound+1e-7*math.Max(1, math.Abs(bound)) {
				t.Fatalf("trial %d: extension X²=%g exceeds cover bound %g (x=%d extLen=%d)", trial, ev, bound, x, extLen)
			}
		}
	}
}

// The cover bound at x=0 equals the window's own X².
func TestCoverBoundAtZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(5)
		probs := randProbs(rng, k)
		yv := randCounts(rng, k, 60)
		length := 0
		for _, y := range yv {
			length += y
		}
		x2 := Value(yv, probs)
		b := CoverBound(yv, length, x2, probs, 0)
		if math.Abs(b-x2) > 1e-9*math.Max(1, math.Abs(x2)) {
			t.Fatalf("CoverBound(x=0)=%g, want X²=%g", b, x2)
		}
	}
}

func TestCoverBoundNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CoverBound with x<0 did not panic")
		}
	}()
	CoverBound([]int{1, 1}, 2, 0, []float64{0.5, 0.5}, -1)
}

// MaxSkip validity: every extension of length 1..skip has X² ≤ budget.
// This is the exactness property the whole paper rests on.
func TestMaxSkipValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		k := 2 + rng.Intn(5)
		probs := randProbs(rng, k)
		yv := randCounts(rng, k, 80)
		length := 0
		for _, y := range yv {
			length += y
		}
		x2 := Value(yv, probs)
		budget := x2 + rng.Float64()*20 // budget ≥ current value
		skip := MaxSkip(yv, length, x2, budget, probs)
		if skip < 0 {
			t.Fatalf("negative skip %d", skip)
		}
		if skip == 0 {
			continue
		}
		bound := CoverBound(yv, length, x2, probs, skip)
		if bound > budget+1e-6*math.Max(1, budget) {
			t.Fatalf("trial %d: skip=%d has cover bound %g > budget %g", trial, skip, bound, budget)
		}
		// Adversarial check: the single-character covers themselves (the
		// worst extensions per Lemma 1) stay within budget for every
		// extension length 1..skip.
		ext := make([]int, k)
		for x := 1; x <= skip && x <= 40; x++ {
			for c := 0; c < k; c++ {
				copy(ext, yv)
				ext[c] += x
				if v := Value(ext, probs); v > budget+1e-6*math.Max(1, budget) {
					t.Fatalf("trial %d: pure-%d extension of length %d has X²=%g > budget %g (skip=%d)",
						trial, c, x, v, budget, skip)
				}
			}
		}
	}
}

// MaxSkip maximality: skip+1 must violate the cover bound (otherwise the
// solver is leaving performance on the table). Tolerate the one-step
// conservatism of the floating-point guard.
func TestMaxSkipNearMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		k := 2 + rng.Intn(4)
		probs := randProbs(rng, k)
		yv := randCounts(rng, k, 60)
		length := 0
		for _, y := range yv {
			length += y
		}
		x2 := Value(yv, probs)
		budget := x2 + 1 + rng.Float64()*10
		skip := MaxSkip(yv, length, x2, budget, probs)
		// The bound two steps past the skip must exceed the budget.
		bound := CoverBound(yv, length, x2, probs, skip+2)
		if bound <= budget-1e-6 {
			t.Fatalf("trial %d: skip=%d not maximal, bound(skip+2)=%g ≤ budget=%g", trial, skip, bound, budget)
		}
	}
}

func TestMaxSkipEdgeCases(t *testing.T) {
	probs := []float64{0.5, 0.5}
	// Empty window: no skip.
	if s := MaxSkip([]int{0, 0}, 0, 0, 100, probs); s != 0 {
		t.Errorf("empty window skip = %d", s)
	}
	// Current value above budget: no skip (threshold-mode semantics).
	if s := MaxSkip([]int{5, 0}, 5, 5, 2, probs); s != 0 {
		t.Errorf("over-budget skip = %d", s)
	}
	// Zero budget with balanced window: roots are at 0.
	if s := MaxSkip([]int{1, 1}, 2, 0, 0, probs); s != 0 {
		t.Errorf("zero-budget skip = %d", s)
	}
	// Large budget must allow a large skip.
	if s := MaxSkip([]int{1, 1}, 2, 0, 1000, probs); s < 100 {
		t.Errorf("large-budget skip = %d, expected ≫ 100", s)
	}
}

// Paper §5.1: the skip grows with the budget (larger X²_max ⇒ larger skip),
// which is why non-null strings scan faster.
func TestMaxSkipMonotoneInBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(4)
		probs := randProbs(rng, k)
		yv := randCounts(rng, k, 60)
		length := 0
		for _, y := range yv {
			length += y
		}
		x2 := Value(yv, probs)
		b1 := x2 + rng.Float64()*5
		b2 := b1 + 1 + rng.Float64()*20
		s1 := MaxSkip(yv, length, x2, b1, probs)
		s2 := MaxSkip(yv, length, x2, b2, probs)
		if s2 < s1 {
			t.Fatalf("trial %d: skip decreased with budget: %d (b=%g) -> %d (b=%g)", trial, s1, b1, s2, b2)
		}
	}
}

func BenchmarkValueK2(b *testing.B) {
	probs := []float64{0.5, 0.5}
	yv := []int{37, 63}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Value(yv, probs)
	}
}

func BenchmarkMaxSkipK2(b *testing.B) {
	probs := []float64{0.5, 0.5}
	yv := []int{37, 63}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MaxSkip(yv, 100, Value(yv, probs), 25, probs)
	}
}

func BenchmarkWindowAppend(b *testing.B) {
	probs := []float64{0.25, 0.25, 0.25, 0.25}
	w := NewWindow(probs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Append(byte(i & 3))
	}
}
