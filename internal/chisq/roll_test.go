package chisq

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/counts"
)

// rollIndexes builds the checkpointed geometries every cursor must agree
// on: B=16, B=4, and a B=16 appender epoch over s — its final block a
// relocated private tail — whose appender has since moved on.
func rollIndexes(t testing.TB, s []byte, k int) map[string]*counts.Checkpointed {
	t.Helper()
	cp, err := counts.NewCheckpointed(s, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpSmall, err := counts.NewCheckpointed(s, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := counts.NewAppender(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(s); lo += 37 {
		if err := ap.Append(s[lo:min(lo+37, len(s))]); err != nil {
			t.Fatal(err)
		}
	}
	epoch := ap.Snapshot()
	if err := ap.Append(s); err != nil {
		t.Fatal(err)
	}
	return map[string]*counts.Checkpointed{"b16": cp, "b4": cpSmall, "epoch": epoch}
}

// randomModel draws either the uniform model (triggering the integer fast
// path) or a random skewed one.
func randomModel(rng *rand.Rand, k int) []float64 {
	probs := make([]float64, k)
	if rng.Intn(2) == 0 {
		for i := range probs {
			probs[i] = 1 / float64(k)
		}
		return probs
	}
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

// TestRollAgreesWithDirect drives cursors through random skip patterns on
// every index geometry and checks the rolling kernel's contract at each step:
// Exact() is bit-identical to the direct O(k) evaluation of the window's
// count vector, the rolled X2() lies within the guard band, the counts are
// exact, and a false Passes() provably means "below the boundary".
func TestRollAgreesWithDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(15)
		n := 50 + rng.Intn(500)
		probs := randomModel(rng, k)
		s := make([]byte, n)
		for i := range s {
			s[i] = byte(rng.Intn(k))
		}
		kern := NewKernel(probs)
		ref, err := counts.New(s, k)
		if err != nil {
			t.Fatal(err)
		}
		vec := make([]int, k)
		for name, idx := range rollIndexes(t, s, k) {
			cur := NewRoll(kern, idx, s)
			for rep := 0; rep < 40; rep++ {
				i := rng.Intn(n)
				j := i + 1 + rng.Intn(n-i)
				cur.Begin(i, j)
				for {
					ref.Vector(i, cur.End(), vec)
					direct := kern.Value(vec)
					for c := range vec {
						if vec[c] != cur.Counts()[c] {
							t.Fatalf("%s: counts diverge at [%d,%d): %v vs %v", name, i, cur.End(), cur.Counts(), vec)
						}
					}
					if got := cur.Exact(); got != direct {
						t.Fatalf("%s: Exact()=%v direct=%v at [%d,%d)", name, got, direct, i, cur.End())
					}
					if rolled := cur.X2(); math.Abs(rolled-direct) > 1e-6*(math.Abs(direct)+float64(cur.Len())+1) {
						t.Fatalf("%s: rolled %v too far from direct %v", name, rolled, direct)
					}
					// A non-passing window must be strictly below the boundary.
					boundary := direct + rng.Float64()*10 - 5
					if !cur.Passes(boundary) && direct >= boundary {
						t.Fatalf("%s: Passes(%v) false but direct=%v", name, boundary, direct)
					}
					// The skip must never cover a window beating the budget.
					budget := direct + rng.Float64()*5
					skip := cur.MaxSkip(budget)
					for d := 1; d <= skip; d++ {
						if cur.End()+d > n {
							break
						}
						ref.Vector(i, cur.End()+d, vec)
						if v := kern.Value(vec); v > budget+1e-9*(math.Abs(budget)+1) {
							t.Fatalf("%s: skip %d unsound: window [%d,%d) has X²=%v > budget %v", name, skip, i, cur.End()+d, v, budget)
						}
					}
					step := 1 + rng.Intn(40)
					if cur.End()+step > n {
						break
					}
					cur.Advance(cur.End() + step)
				}
			}
		}
	}
}

// TestMaxSkipVariantsAgree cross-checks the three skip solvers (x2 form,
// sum form, uniform form) for soundness against the reference CoverBound on
// random windows, and that hints never change the result by more than the
// ulp-level reorderings the engine tolerates.
func TestMaxSkipVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4000; trial++ {
		k := 2 + rng.Intn(9)
		uniform := rng.Intn(2) == 0
		probs := make([]float64, k)
		if uniform {
			for i := range probs {
				probs[i] = 1 / float64(k)
			}
		} else {
			probs = randomModel(rng, k)
		}
		kern := NewKernel(probs)
		yv := make([]int, k)
		length := 0
		for c := range yv {
			yv[c] = rng.Intn(30)
			length += yv[c]
		}
		if length == 0 {
			continue
		}
		x2 := kern.Value(yv)
		budget := x2 + rng.Float64()*20
		want := kern.MaxSkip(yv, length, x2, budget)
		for hint := 0; hint < k; hint++ {
			got, _ := kern.MaxSkipHint(yv, length, x2, budget, hint)
			if got != want {
				t.Fatalf("hint %d changes skip: %d vs %d (yv=%v probs=%v budget=%v)", hint, got, want, yv, probs, budget)
			}
		}
		// Soundness: the returned skip's cover bound cannot exceed budget
		// beyond fp noise.
		if want > 0 {
			if b := kern.CoverBound(yv, length, x2, want); b > budget+1e-9*(math.Abs(budget)+1) {
				t.Fatalf("skip %d unsound: CoverBound=%v > budget=%v", want, b, budget)
			}
		}
		sum := kern.SumYsqOverP(yv)
		gotSum, _ := kern.MaxSkipSum(yv, length, sum, budget, 0)
		if d := gotSum - want; d < -1 || d > 1 {
			t.Fatalf("sum-form skip %d vs x2-form %d", gotSum, want)
		}
		if uniform {
			maxY := 0
			for _, y := range yv {
				if y > maxY {
					maxY = y
				}
			}
			gotU := kern.MaxSkipUniform(maxY, length, sum, budget)
			if d := gotU - want; d < -1 || d > 1 {
				t.Fatalf("uniform skip %d vs x2-form %d (yv=%v)", gotU, want, yv)
			}
			if gotU > 0 {
				if b := kern.CoverBound(yv, length, x2, gotU); b > budget+1e-9*(math.Abs(budget)+1) {
					t.Fatalf("uniform skip %d unsound: CoverBound=%v > budget=%v", gotU, b, budget)
				}
			}
		}
	}
}

// TestMaxSkipHugeBudget: a budget near or past the float64 range (a
// client's threshold α of 1e300, +Inf, or NaN, which no X² exceeds)
// overflows the skip quadratic. Every solver must still return a
// non-negative skip — the cap — rather than the undefined int conversion of
// an infinite root, which sent the scan cursor backwards.
func TestMaxSkipHugeBudget(t *testing.T) {
	yv := []int{3, 5, 1, 7}
	length := 16
	for _, probs := range [][]float64{{0.25, 0.25, 0.25, 0.25}, {0.1, 0.2, 0.3, 0.4}} {
		kern := NewKernel(probs)
		sum := kern.SumYsqOverP(yv)
		for _, budget := range []float64{1e300, math.MaxFloat64, math.Inf(1), math.NaN()} {
			if got, _ := kern.MaxSkipSum(yv, length, sum, budget, 0); got != skipCap {
				t.Errorf("probs %v budget %v: sum-form skip %d, want the cap %d", probs, budget, got, skipCap)
			}
			if got := kern.MaxSkipUniform(7, length, sum, budget); probs[0] == probs[1] && got != skipCap {
				t.Errorf("budget %v: uniform skip %d, want the cap %d", budget, got, skipCap)
			}
		}
	}
}

// FuzzRollVsDirect fuzzes the rolling cursor against the direct evaluation
// over arbitrary strings, models, and advance patterns.
func FuzzRollVsDirect(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 0}, uint8(2), int64(1))
	f.Add([]byte{3, 1, 2, 0, 3, 3, 3, 1}, uint8(4), int64(9))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw uint8, seed int64) {
		if len(raw) == 0 || len(raw) > 2000 {
			t.Skip()
		}
		k := 2 + int(kRaw%15)
		s := make([]byte, len(raw))
		for i, b := range raw {
			s[i] = b % byte(k)
		}
		rng := rand.New(rand.NewSource(seed))
		probs := randomModel(rng, k)
		kern := NewKernel(probs)
		ref, err := counts.New(s, k)
		if err != nil {
			t.Skip()
		}
		cp, err := counts.NewCheckpointed(s, k, 0)
		if err != nil {
			t.Skip()
		}
		n := len(s)
		vec := make([]int, k)
		cur := NewRoll(kern, cp, s)
		i := rng.Intn(n)
		cur.Begin(i, i+1)
		for {
			ref.Vector(i, cur.End(), vec)
			if got, direct := cur.Exact(), kern.Value(vec); got != direct {
				t.Fatalf("Exact()=%v direct=%v at [%d,%d)", got, direct, i, cur.End())
			}
			step := 1 + rng.Intn(50)
			if cur.End()+step > n {
				break
			}
			cur.Advance(cur.End() + step)
		}
	})
}
