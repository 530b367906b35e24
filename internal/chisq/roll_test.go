package chisq

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/counts"
)

// rollIndexes builds the checkpointed geometries every cursor must agree
// on: intervals 16, 8 and 4, and a B=16 appender epoch over s — its final
// block a relocated private tail — whose appender has since moved on.
func rollIndexes(t testing.TB, s []byte, k int) map[string]*counts.Checkpointed {
	t.Helper()
	out := make(map[string]*counts.Checkpointed)
	for _, b := range []int{16, 8, 4} {
		cp, err := counts.NewCheckpointed(s, k, b)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("b%d", b)] = cp
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
	out["epoch"] = ap.Snapshot()
	if err := ap.Append(s); err != nil {
		t.Fatal(err)
	}
	return out
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

// scanOracle holds the direct (index-free) X² of every window of one row,
// read from the paper's prefix arrays and evaluated by Kernel.Value.
type scanOracle struct {
	kern *Kernel
	ref  *counts.Prefix
	vec  []int
}

func (o *scanOracle) window(i, j int) ([]int, float64) {
	o.ref.Vector(i, j, o.vec)
	return o.vec, o.kern.Value(o.vec)
}

// checkScanRow drives cur over the row of windows [i, j0) … [i, hi) twice
// and checks Scan's contract against direct X².
//
// The first pass is the engine's: it stops where Scan stops, re-syncs with
// Exact, and resumes. At each stop the counts must equal the direct counts
// and Exact must equal Kernel.Value bit for bit; every window of the row
// must be accounted for exactly once as evaluated or skipped.
//
// The second pass replays the same row with b = −∞, so Scan stops at every
// window it evaluates, and calls Exact exactly where the first pass did —
// the cursor state, hence every skip, is then the first pass's, and the
// replay lists the windows it evaluated. At each, the counts must be exact
// and the rolled X² within 10⁻⁶ (relative) of direct; every evaluated
// window the first pass did not stop at must have X² < b, every skipped
// window X² ≤ skipAt, and each skip must be the maximal one: at least the
// reference solver's (Kernel.MaxSkipSum on the direct sum, for uniform
// models too) minus the one step its drift inflation may cost, and never
// more.
func checkScanRow(t testing.TB, label string, cur *Roll, o *scanOracle, i, j0, hi int, b, skipAt float64) {
	t.Helper()
	stops := make(map[int]bool)
	cur.Begin(i, j0)
	total := 0
	for {
		ev, sk, found := cur.Scan(b, skipAt, hi)
		total += ev + sk
		if !found {
			break
		}
		j := cur.End()
		stops[j] = true
		vec, direct := o.window(i, j)
		if !slices.Equal(cur.Counts(), vec) {
			t.Fatalf("%s: counts at [%d,%d) = %v, direct %v", label, i, j, cur.Counts(), vec)
		}
		if got := cur.Exact(); math.Float64bits(got) != math.Float64bits(direct) {
			t.Fatalf("%s: Exact()=%v, direct %v at [%d,%d)", label, got, direct, i, j)
		}
	}
	if total != hi-j0+1 {
		t.Fatalf("%s: row [%d, %d..%d] accounted %d windows, want %d", label, i, j0, hi, total, hi-j0+1)
	}

	evaluated := make(map[int]bool)
	tol := 1e-9 * (math.Abs(skipAt) + 1)
	refSkip := func(j int) int {
		vec, _ := o.window(i, j)
		x, _ := o.kern.MaxSkipSum(vec, j-i, o.kern.SumYsqOverP(vec), skipAt, 0)
		return x
	}
	cur.Begin(i, j0)
	prev := -1
	for {
		ev, sk, found := cur.Scan(math.Inf(-1), skipAt, hi)
		if !found {
			// The row ended: Scan's last skip reached hi.
			if ev != 0 || prev < 0 || sk != hi-prev {
				t.Fatalf("%s: row end after [%d,%d): evaluated %d skipped %d", label, i, prev, ev, sk)
			}
			if prev < hi {
				if want := refSkip(prev); want < hi-prev {
					t.Fatalf("%s: skip from [%d,%d) reached hi=%d, reference skip %d", label, i, prev, hi, want)
				}
			}
			break
		}
		j := cur.End()
		if ev != 1 {
			t.Fatalf("%s: a stop-everywhere Scan evaluated %d windows", label, ev)
		}
		if prev < 0 {
			if j != j0 || sk != 0 {
				t.Fatalf("%s: first window [%d,%d) after %d skips, want [%d,%d)", label, i, j, sk, i, j0)
			}
		} else {
			if sk != j-prev-1 {
				t.Fatalf("%s: skipped %d between [%d,%d) and [%d,%d)", label, sk, i, prev, i, j)
			}
			if want := refSkip(prev); sk > want || sk < want-1 {
				t.Fatalf("%s: skip from [%d,%d) is %d, reference %d (skipAt %v)", label, i, prev, sk, want, skipAt)
			}
		}
		evaluated[j] = true
		vec, direct := o.window(i, j)
		if !slices.Equal(cur.Counts(), vec) {
			t.Fatalf("%s: replay counts at [%d,%d) = %v, direct %v", label, i, j, cur.Counts(), vec)
		}
		if rolled := cur.X2(); math.Abs(rolled-direct) > 1e-6*(math.Abs(direct)+float64(j-i)+1) {
			t.Fatalf("%s: rolled X² %v too far from direct %v at [%d,%d)", label, rolled, direct, i, j)
		}
		if stops[j] {
			cur.Exact()
		}
		prev = j
	}
	for j := j0; j <= hi; j++ {
		_, direct := o.window(i, j)
		switch {
		case !evaluated[j] && direct > skipAt+tol:
			t.Fatalf("%s: skipped [%d,%d) has X²=%v > skipAt %v", label, i, j, direct, skipAt)
		case evaluated[j] && !stops[j] && direct >= b:
			t.Fatalf("%s: passed over [%d,%d) with X²=%v ≥ b %v", label, i, j, direct, b)
		case stops[j] && !evaluated[j]:
			t.Fatalf("%s: replay missed the stop [%d,%d)", label, i, j)
		}
	}
}

// scanBudgets draws the (b, skipAt) pairs the engine's passes use around a
// row's best X²: a threshold (skipAt = b), a softened MSS budget (skipAt
// just below b), and a stop-everywhere prefilter.
func scanBudgets(rng *rand.Rand, best float64) [][2]float64 {
	b := best * (0.3 + 0.9*rng.Float64())
	soft := b - 1e-12*math.Max(1, math.Abs(b))
	return [][2]float64{{b, b}, {b, soft}, {math.Inf(-1), b}}
}

// TestRollAgreesWithDirect drives Scan over random rows of random strings
// of at most 400 symbols — k ∈ 2..20, lanes and non-lanes alphabets,
// uniform and skewed models, intervals 4/8/16 and a relocated-tail epoch
// view — and checks every stop, pass-over and skip against direct X²
// (checkScanRow).
func TestRollAgreesWithDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		k := 2 + trial%19
		n := 20 + rng.Intn(381)
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
		o := &scanOracle{kern: kern, ref: ref, vec: make([]int, k)}
		for name, idx := range rollIndexes(t, s, k) {
			cur := NewRoll(kern, idx, s)
			for rep := 0; rep < 6; rep++ {
				i := rng.Intn(n)
				j0 := i + 1 + rng.Intn(min(n-i, 3*k+12))
				best := 0.0
				for j := j0; j <= n; j++ {
					_, x2 := o.window(i, j)
					best = max(best, x2)
				}
				for _, bs := range scanBudgets(rng, best) {
					label := fmt.Sprintf("k=%d n=%d %s uniform=%v b=%v skipAt=%v", k, n, name, kern.uniform, bs[0], bs[1])
					checkScanRow(t, label, cur, o, i, j0, n, bs[0], bs[1])
				}
			}
		}
	}
}

// TestRollOwnsCacheLines: a cursor and its scratch each start on a cache
// line and fill whole lines, so the cursors of a parallel scan's workers
// share none.
func TestRollOwnsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(Roll{}); size%cacheLine != 0 {
		t.Fatalf("Roll is %d bytes, want whole %d-byte lines", size, cacheLine)
	}
	for _, k := range []int{2, 3, 4, 8, 11, 16, 20, 33, 256} {
		s := make([]byte, 64)
		cp, err := counts.NewCheckpointed(s, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		probs := make([]float64, k)
		for c := range probs {
			probs[c] = 1 / float64(k)
		}
		for range 4 {
			r := NewRoll(NewKernel(probs), cp, s)
			if a := uintptr(unsafe.Pointer(r)) % cacheLine; a != 0 {
				t.Errorf("k=%d: cursor at line offset %d", k, a)
			}
			base := uintptr(unsafe.Pointer(&r.base[0]))
			if a := base % cacheLine; a != 0 {
				t.Errorf("k=%d: scratch at line offset %d", k, a)
			}
			if uintptr(unsafe.Pointer(&r.vec[0]))-base != uintptr(k)*unsafe.Sizeof(0) {
				t.Errorf("k=%d: base and vec are not one allocation", k)
			}
		}
	}
}

// TestMaxSkipVariantsAgree cross-checks the skip solvers (x2 form, sum
// form) for soundness against the reference CoverBound on random windows,
// uniform and skewed, and that hints never change the result by more than
// the ulp-level reorderings the engine tolerates. MaxSkipSum is the
// reference the uniform step's inline root is checked against
// (TestRollAgreesWithDirect).
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
	}
}

// TestMaxSkipHugeBudget: a budget near or past the float64 range (a
// client's threshold α of 1e300, +Inf, or NaN, which no X² exceeds)
// overflows the skip quadratic. Every solver must still return a
// non-negative skip — the cap — rather than the undefined int conversion of
// an infinite root, which sent the scan cursor backwards: the sum-form
// solver directly, and Scan's inline uniform root by skipping the rest of
// the row after one evaluation.
func TestMaxSkipHugeBudget(t *testing.T) {
	yv := []int{3, 5, 1, 7}
	length := 16
	s := []byte{3, 1, 3, 0, 3, 1, 2, 3, 1, 3, 1, 0, 3, 1, 3, 1, 0, 2, 3, 1, 3, 1, 2, 0, 1}
	for _, probs := range [][]float64{{0.25, 0.25, 0.25, 0.25}, {0.1, 0.2, 0.3, 0.4}} {
		kern := NewKernel(probs)
		sum := kern.SumYsqOverP(yv)
		cp, err := counts.NewCheckpointed(s, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		cur := NewRoll(kern, cp, s)
		for _, budget := range []float64{1e300, math.MaxFloat64, math.Inf(1), math.NaN()} {
			if got, _ := kern.MaxSkipSum(yv, length, sum, budget, 0); got != skipCap {
				t.Errorf("probs %v budget %v: sum-form skip %d, want the cap %d", probs, budget, got, skipCap)
			}
			cur.Begin(0, length)
			ev, sk, found := cur.Scan(math.Inf(1), budget, len(s))
			if ev != 1 || sk != len(s)-length || found {
				t.Errorf("probs %v budget %v: Scan evaluated %d skipped %d found %v, want 1, %d, false", probs, budget, ev, sk, found, len(s)-length)
			}
		}
	}
}

// FuzzRollVsDirect fuzzes Scan against direct evaluation over arbitrary
// strings of at most 400 symbols, alphabets 2..20, models, intervals, row
// starts and budgets, on a contiguous index and a relocated-tail epoch view
// (checkScanRow).
func FuzzRollVsDirect(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 0}, uint8(2), int64(1))
	f.Add([]byte{3, 1, 2, 0, 3, 3, 3, 1}, uint8(4), int64(9))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"), uint8(11), int64(3))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw uint8, seed int64) {
		if len(raw) == 0 || len(raw) > 400 {
			t.Skip()
		}
		k := 2 + int(kRaw%19)
		s := make([]byte, len(raw))
		for i, b := range raw {
			s[i] = b % byte(k)
		}
		rng := rand.New(rand.NewSource(seed))
		kern := NewKernel(randomModel(rng, k))
		ref, err := counts.New(s, k)
		if err != nil {
			t.Skip()
		}
		o := &scanOracle{kern: kern, ref: ref, vec: make([]int, k)}
		n := len(s)
		i := rng.Intn(n)
		j0 := i + 1 + rng.Intn(n-i)
		best := 0.0
		for j := j0; j <= n; j++ {
			_, x2 := o.window(i, j)
			best = max(best, x2)
		}
		budgets := scanBudgets(rng, best)
		for name, idx := range rollIndexes(t, s, k) {
			cur := NewRoll(kern, idx, s)
			for _, bs := range budgets {
				checkScanRow(t, fmt.Sprintf("%s b=%v skipAt=%v", name, bs[0], bs[1]), cur, o, i, j0, n, bs[0], bs[1])
			}
		}
	})
}
