package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/chisq"
	"repro/internal/counts"
)

// referenceX2 is the index-free oracle of the golden table: the X² of every
// window [i, j) of s, read from the paper's prefix arrays (counts.Prefix)
// and evaluated by the same chisq.Kernel.Value the engine's exact results
// must be bit-identical to. ref[i][j-i-1] holds X²(s[i:j)).
func referenceX2(t *testing.T, s []byte, m *alphabet.Model) [][]float64 {
	t.Helper()
	pre, err := counts.New(s, m.K())
	if err != nil {
		t.Fatal(err)
	}
	kern := chisq.NewKernel(m.Probs())
	vec := make([]int, m.K())
	ref := make([][]float64, len(s))
	for i := range ref {
		ref[i] = make([]float64, len(s)-i)
		for j := i + 1; j <= len(s); j++ {
			ref[i][j-i-1] = kern.Value(pre.Vector(i, j, vec))
		}
	}
	return ref
}

// referenceIndexes builds the index geometries the table runs on: B=16,
// B=4, and a B=16 appender epoch over s whose final block is a relocated
// private tail and whose appender has since moved on.
func referenceIndexes(t *testing.T, s []byte, k int) map[string]*counts.Checkpointed {
	t.Helper()
	b16, err := counts.NewCheckpointed(s, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := counts.NewCheckpointed(s, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := counts.NewAppender(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(s); lo += 29 {
		if err := ap.Append(s[lo:min(lo+29, len(s))]); err != nil {
			t.Fatal(err)
		}
	}
	epoch := ap.Snapshot()
	if _, relocated := epoch.RelocatedTailStart(); !relocated {
		t.Fatal("appender epoch has no relocated tail")
	}
	if err := ap.Append(s); err != nil {
		t.Fatal(err)
	}
	return map[string]*counts.Checkpointed{"b16": b16, "b4": b4, "epoch": epoch}
}

// referenceModel draws the uniform model half the time (the integer fast
// path) and a skewed one otherwise.
func referenceModel(t *testing.T, rng *rand.Rand, k int) *alphabet.Model {
	t.Helper()
	if rng.Intn(2) == 0 {
		return alphabet.MustUniform(k)
	}
	return skewedModel(t, rng, k)
}

// skewedModel draws a k-symbol model of independent random weights.
func skewedModel(t *testing.T, rng *rand.Rand, k int) *alphabet.Model {
	t.Helper()
	probs := make([]float64, k)
	sum := 0.0
	for i := range probs {
		probs[i] = 0.05 + rng.Float64()
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	m, err := alphabet.NewModel(probs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// candidateX2 lists the reference X² of every candidate window of q — the
// windows inside [q.Lo, q.Hi) of length at least q.MinLen — as intervals.
func candidateX2(ref [][]float64, q Query) []Scored {
	var out []Scored
	minLen := max(q.MinLen, 1)
	for i := q.Lo; i < q.Hi; i++ {
		for j := i + minLen; j <= q.Hi; j++ {
			out = append(out, Scored{Interval{i, j}, ref[i][j-i-1]})
		}
	}
	return out
}

// referenceAnswer is the oracle's answer to one query: the number of
// candidate windows, their X² in descending order, the interval the paper's
// right-to-left MSS scan reports (highest X², then highest start, then
// lowest end), and — for a threshold query — the qualifying windows in
// (start, end) order.
type referenceAnswer struct {
	q          Query
	candidates int64
	desc       []float64
	mss        Scored
	above      []Scored
}

func answerReference(ref [][]float64, q Query) referenceAnswer {
	cands := candidateX2(ref, q)
	desc := scoresOf(cands)
	slices.Sort(desc)
	slices.Reverse(desc)
	a := referenceAnswer{q: q, candidates: int64(len(cands)), desc: desc}
	for _, c := range cands {
		if a.mss.Len() == 0 || cmp.Or(cmp.Compare(c.X2, a.mss.X2), cmp.Compare(c.Start, a.mss.Start), cmp.Compare(a.mss.End, c.End)) > 0 {
			a.mss = c
		}
	}
	if q.Kind == KindThreshold {
		for _, c := range cands {
			if c.X2 > q.Alpha {
				a.above = append(a.above, c)
			}
		}
	}
	return a
}

// checkAgainstReference asserts one query result against the oracle:
// every reported X² is bit-identical to the reference X² of its interval,
// MSS and top-t report the reference maximum and top-t X² multiset,
// threshold reports exactly the reference set, the disjoint peel is a
// descending non-overlapping chain headed by the maximum, and the work
// counters account for every candidate window.
func checkAgainstReference(t *testing.T, name string, ref [][]float64, want referenceAnswer, got QueryResult) {
	t.Helper()
	q := want.q
	if got.Err != nil {
		t.Fatalf("%s: %v", name, got.Err)
	}
	for _, r := range got.Results {
		if r.Len() < max(q.MinLen, 1) || r.Start < q.Lo || r.End > q.Hi {
			t.Fatalf("%s: %v outside the candidate set", name, r.Interval)
		}
		if x := ref[r.Start][r.Len()-1]; math.Float64bits(r.X2) != math.Float64bits(x) {
			t.Fatalf("%s: %v reports X²=%v, reference %v", name, r.Interval, r.X2, x)
		}
	}
	if q.Kind != KindDisjoint && got.Stats.Total() != want.candidates {
		t.Fatalf("%s: Evaluated+Skipped=%d, want %d candidate windows", name, got.Stats.Total(), want.candidates)
	}
	switch q.Kind {
	case KindMSS:
		if len(got.Results) != 1 || got.Results[0].Interval != want.mss.Interval || math.Float64bits(got.Results[0].X2) != math.Float64bits(want.mss.X2) {
			t.Fatalf("%s: MSS %+v, reference %+v", name, got.Results, want.mss)
		}
	case KindTopT:
		gotX2 := scoresOf(got.Results)
		slices.Sort(gotX2)
		slices.Reverse(gotX2)
		if top := want.desc[:min(q.T, len(want.desc))]; !sameBits(gotX2, top) {
			t.Fatalf("%s: top-%d X² %v, reference %v", name, q.T, gotX2, top)
		}
		seen := make(map[Interval]bool)
		for _, r := range got.Results {
			if seen[r.Interval] {
				t.Fatalf("%s: top-t reports %v twice", name, r.Interval)
			}
			seen[r.Interval] = true
		}
	case KindThreshold:
		gotSet := slices.Clone(got.Results)
		slices.SortFunc(gotSet, func(a, b Scored) int {
			return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
		})
		if !slices.Equal(gotSet, want.above) {
			t.Fatalf("%s: threshold α=%v reports %d windows, reference %d", name, q.Alpha, len(gotSet), len(want.above))
		}
	case KindDisjoint:
		if len(got.Results) == 0 || math.Float64bits(got.Results[0].X2) != math.Float64bits(want.desc[0]) {
			t.Fatalf("%s: disjoint peel %+v does not start at the reference maximum %v", name, got.Results, want.desc[0])
		}
		for i := 1; i < len(got.Results); i++ {
			if got.Results[i].X2 > got.Results[i-1].X2 {
				t.Fatalf("%s: disjoint peel not descending: %+v", name, got.Results)
			}
			for _, prev := range got.Results[:i] {
				if got.Results[i].Start < prev.End && prev.Start < got.Results[i].End {
					t.Fatalf("%s: disjoint peel overlaps: %v and %v", name, prev.Interval, got.Results[i].Interval)
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// goldenCase draws one golden-table case: a random string and model, the
// reference X² of every window, and the queries — Problems 1–4 (MSS, top-t,
// threshold, and the min-length MSS) plus a range scan and the disjoint
// peel — with the oracle's answer to each. The full range at floor 1 holds
// two MSS, a top-7 and two thresholds of different α, which a batch answers
// in one pass at the lowest of their budgets.
func goldenCase(t *testing.T, rng *rand.Rand) (s []byte, m *alphabet.Model, ref [][]float64, qs []Query, answers []referenceAnswer) {
	t.Helper()
	k := 2 + rng.Intn(15)
	n := 60 + rng.Intn(300)
	m = referenceModel(t, rng, k)
	s = randomString(rng, n, k)
	ref = referenceX2(t, s, m)
	mss := slices.Max(scoresOf(candidateX2(ref, Query{Hi: n})))
	qs = []Query{
		{Kind: KindMSS, Hi: n},
		{Kind: KindMSS, MinLen: 6, Hi: n},
		{Kind: KindMSS, Lo: n / 4, Hi: 3 * n / 4},
		{Kind: KindTopT, T: 7, Hi: n},
		{Kind: KindTopT, T: 5, MinLen: 10, Hi: n},
		{Kind: KindThreshold, Alpha: mss * 0.8, Hi: n},
		{Kind: KindThreshold, Alpha: mss * 0.6, MinLen: 4, Hi: n},
		{Kind: KindDisjoint, T: 3, MinLen: 2, Hi: n},
		{Kind: KindMSS, Hi: n},
		{Kind: KindThreshold, Alpha: mss * 0.7, Hi: n},
	}
	answers = make([]referenceAnswer, len(qs))
	for qi, q := range qs {
		answers[qi] = answerReference(ref, q)
	}
	return s, m, ref, qs, answers
}

// TestLayoutsGoldenProblems is the index-free golden table run solo
// (RunQuery): every goldenCase query on each checkpointed index layout
// (B=16, B=4, and an appender epoch), at workers 1 and 8, under uniform
// and skewed models — checked against X² computed from counts.Prefix rather
// than against another run of the engine.
func TestLayoutsGoldenProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	engines := []Engine{{Workers: 1}, {Workers: 8}}
	for trial := 0; trial < 12; trial++ {
		s, m, ref, qs, answers := goldenCase(t, rng)
		for name, idx := range referenceIndexes(t, s, m.K()) {
			sc, err := NewScannerFromIndex(s, m, idx)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range engines {
				label := fmt.Sprintf("trial=%d/k=%d/n=%d/%s/workers=%d", trial, m.K(), len(s), name, e.Workers)
				for qi, q := range qs {
					checkAgainstReference(t, fmt.Sprintf("%s/q%d", label, qi), ref, answers[qi], sc.RunQuery(e, q))
				}
			}
		}
	}
}

// TestLayoutsGoldenBatch is the same golden table answered together on
// each checkpointed index layout at workers 1 and 8 — by RunBatch, and
// planned over three even shards and scattered through RunPlan — so every
// query must get the answer the oracle gives it alone.
func TestLayoutsGoldenBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 8; trial++ {
		s, m, ref, qs, answers := goldenCase(t, rng)
		plan, err := PlanBatch(len(s), qs, EvenCuts(len(s), 3))
		if err != nil {
			t.Fatal(err)
		}
		for name, idx := range referenceIndexes(t, s, m.K()) {
			sc, err := NewScannerFromIndex(s, m, idx)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				e := Engine{Workers: workers}
				sharded, err := RunPlan(context.Background(), e, plan, LocalExec{Sc: sc})
				if err != nil {
					t.Fatal(err)
				}
				for run, out := range map[string][]QueryResult{"batch": sc.RunBatch(e, qs), "S=3": sharded} {
					for qi := range qs {
						label := fmt.Sprintf("trial=%d/k=%d/n=%d/%s/workers=%d/%s/q%d", trial, m.K(), len(s), name, workers, run, qi)
						checkAgainstReference(t, label, ref, answers[qi], out[qi])
					}
				}
			}
		}
	}
}

func scoresOf(rs []Scored) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.X2
	}
	return out
}
