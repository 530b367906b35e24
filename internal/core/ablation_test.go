package core

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
)

// The zero variant must be byte-identical to the exact MSS.
func TestVariantZeroEqualsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(4)
		n := 1 + rng.Intn(300)
		m := alphabet.MustUniform(k)
		sc := mustScanner(t, randomString(rng, n, k), m)
		a, stA := sc.MSSWithVariant(SkipVariant{})
		b, stB := mssOf(sc, sequential, 1)
		if a != b {
			t.Fatalf("trial %d: variant %+v vs exact %+v", trial, a, b)
		}
		// The exact engine runs on the rolling cursor, whose guard-inflated
		// skips may differ from the variant scanner's by a window or two;
		// the accounting invariant (every candidate evaluated or skipped)
		// and the result must still agree exactly.
		if stA.Total() != stB.Total() || stA.Starts != stB.Starts {
			t.Fatalf("trial %d: variant stats %+v vs exact %+v", trial, stA, stB)
		}
	}
}

// The paper-literal variants never *beat* the true optimum, and their
// misses are bounded. The measured behaviour (the ablation's finding, see
// internal/experiments.Ablation1): the ceiling-rounded skip of the paper's
// pseudocode overshoots the bound by up to one position and misses the
// exact MSS on ~40% of random strings — though never by more than ~20% of
// the optimum value — which is precisely why this repository's exact
// implementation rounds down instead.
func TestVariantAccuracyAndSavings(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	variants := []SkipVariant{
		{RoundUp: true},
		{SingleChar: true},
		{SingleChar: true, RoundUp: true},
	}
	const trials = 40
	for _, v := range variants {
		var evalVariant, evalExact int64
		for trial := 0; trial < trials; trial++ {
			k := 2 + rng.Intn(3)
			n := 50 + rng.Intn(300)
			m := alphabet.MustUniform(k)
			sc := mustScanner(t, randomString(rng, n, k), m)
			exact, stE := mssOf(sc, sequential, 1)
			got, stV := sc.MSSWithVariant(v)
			evalExact += stE.Evaluated
			evalVariant += stV.Evaluated
			if got.X2 > exact.X2+valueTol {
				t.Fatalf("variant %+v returned %g above the optimum %g", v, got.X2, exact.X2)
			}
			// Misses stay within a modest fraction of the optimum: the
			// overshoot is at most one skip position.
			if got.X2 < 0.7*exact.X2 {
				t.Errorf("variant %+v collapsed to %g of optimum %g", v, got.X2, exact.X2)
			}
		}
		// The variants skip at least as aggressively as the exact rule.
		if evalVariant > evalExact {
			t.Errorf("variant %+v evaluated more (%d) than exact (%d)", v, evalVariant, evalExact)
		}
	}
}

// Quantified miss rate of the paper-literal rounding, pinned as a
// regression guard for the ablation discussion: misses are frequent but
// value loss is bounded.
func TestVariantRoundUpMissRate(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	misses := 0
	worst := 1.0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		k := 2 + rng.Intn(3)
		n := 50 + rng.Intn(300)
		m := alphabet.MustUniform(k)
		sc := mustScanner(t, randomString(rng, n, k), m)
		exact, _ := mssOf(sc, sequential, 1)
		got, _ := sc.MSSWithVariant(SkipVariant{RoundUp: true})
		if !almostEqual(got.X2, exact.X2) {
			misses++
		}
		if r := got.X2 / exact.X2; r < worst {
			worst = r
		}
	}
	if misses == 0 {
		t.Error("expected the ceil variant to miss sometimes; the ablation premise is broken")
	}
	if misses > 60 {
		t.Errorf("ceil variant missed %d of %d — far above the measured ~40%%", misses, trials)
	}
	if worst < 0.7 {
		t.Errorf("worst-case value ratio %.3f below the measured ~0.81 floor", worst)
	}
}

// SingleChar on binary alphabets: with k=2 the argmax(2Y/p) character is
// almost always the binding one, so results should nearly always agree.
func TestVariantSingleCharBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	misses := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		m := alphabet.MustUniform(2)
		sc := mustScanner(t, randomString(rng, 200+rng.Intn(200), 2), m)
		exact, _ := mssOf(sc, sequential, 1)
		got, _ := sc.MSSWithVariant(SkipVariant{SingleChar: true})
		if !almostEqual(got.X2, exact.X2) {
			misses++
		}
	}
	if misses > 2 {
		t.Errorf("single-char variant missed %d of %d on binary strings", misses, trials)
	}
}
