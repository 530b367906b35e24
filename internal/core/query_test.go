package core

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
)

// queryFixture builds a random string with a planted run so MSS answers are
// non-trivial.
func queryFixture(t *testing.T, n, k int, seed int64) *Scanner {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(k))
	}
	for i := n / 4; i < n/4+n/12 && i < n; i++ {
		s[i] = 0
	}
	m, err := alphabet.Uniform(k)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(s, m)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// bruteMSSRange is an independent oracle: exhaustive max over the window
// grid, no chain cover, no engine. Starts descend so exact-tie resolution
// matches the sequential scan's discovery order.
func bruteMSSRange(sc *Scanner, lo, hi, minLen int) Scored {
	best := Scored{X2: -1}
	for i := hi - minLen; i >= lo; i-- {
		for j := i + minLen; j <= hi; j++ {
			if x2 := sc.X2(i, j); x2 > best.X2 {
				best = Scored{Interval{i, j}, x2}
			}
		}
	}
	if best.X2 < 0 {
		return Scored{}
	}
	return best
}

// TestRunQueryGolden checks the unified Query dispatch on the parallel
// engines against the sequential one, for each of the paper's Problems 1–4
// plus the range/min-length combinations (CI runs this under -race);
// TestRunQueryOracles checks it against brute force.
func TestRunQueryGolden(t *testing.T) {
	sc := queryFixture(t, 900, 3, 7)
	n := sc.Len()
	engines := []Engine{{Workers: 1}, {Workers: 8}}

	queries := []struct {
		name string
		q    Query
	}{
		{"mss", Query{Kind: KindMSS, Hi: n}},
		{"mss-minlen", Query{Kind: KindMSS, MinLen: 41, Hi: n}}, // Problem 4, γ=40
		{"mss-range", Query{Kind: KindMSS, Lo: 100, Hi: 600, MinLen: 5}},
		{"topt", Query{Kind: KindTopT, T: 20, Hi: n}},
		{"topt-minlen", Query{Kind: KindTopT, T: 10, MinLen: 31, Hi: n}},
		{"topt-range", Query{Kind: KindTopT, T: 10, Lo: 50, Hi: 500}},
		{"threshold", Query{Kind: KindThreshold, Alpha: 8, Hi: n}},
		{"threshold-minlen", Query{Kind: KindThreshold, Alpha: 8, MinLen: 21, Hi: n}},
		{"threshold-range", Query{Kind: KindThreshold, Alpha: 6, Lo: 200, Hi: 700}},
		{"disjoint", Query{Kind: KindDisjoint, T: 4, MinLen: 10, Hi: n}},
	}
	for _, tc := range queries {
		seq := sc.RunQuery(Engine{Workers: 1}, tc.q)
		if seq.Err != nil {
			t.Fatalf("%s: %v", tc.name, seq.Err)
		}
		if got, want := seq.Stats.Total(), tc.q.mustNormalize(t, sc).candidates(); tc.q.Kind != KindDisjoint && got != want {
			t.Errorf("%s: accounts for %d substrings, candidate set has %d", tc.name, got, want)
		}
		for _, e := range engines {
			got := sc.RunQuery(e, tc.q)
			if got.Err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, e.Workers, got.Err)
			}
			compareQueryResults(t, tc.name, tc.q.Kind, got, seq)
		}
	}
}

func (q Query) mustNormalize(t *testing.T, sc *Scanner) Query {
	t.Helper()
	nq, err := sc.normalize(q)
	if err != nil {
		t.Fatal(err)
	}
	return nq
}

// compareQueryResults asserts got matches want under each kind's contract:
// bit-identical for MSS/threshold/disjoint, value-multiset for top-t.
func compareQueryResults(t *testing.T, name string, kind Kind, got, want QueryResult) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Errorf("%s: %d results, want %d", name, len(got.Results), len(want.Results))
		return
	}
	for i := range got.Results {
		if kind == KindTopT {
			if got.Results[i].X2 != want.Results[i].X2 {
				t.Errorf("%s: result %d X²=%v, want %v", name, i, got.Results[i].X2, want.Results[i].X2)
			}
			continue
		}
		if got.Results[i] != want.Results[i] {
			t.Errorf("%s: result %d is %+v, want %+v", name, i, got.Results[i], want.Results[i])
		}
	}
	if got.Stats.Total() != want.Stats.Total() {
		t.Errorf("%s: accounts for %d substrings, want %d", name, got.Stats.Total(), want.Stats.Total())
	}
}

// TestRunQueryOracles pits the Query path against brute force on small
// inputs where exhaustive evaluation is cheap.
func TestRunQueryOracles(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		sc := queryFixture(t, 160, 2+int(seed%2)*2, seed)
		n := sc.Len()
		cases := []struct {
			lo, hi, minLen int
		}{
			{0, n, 1},
			{0, n, 13},
			{20, 120, 1},
			{20, 120, 7},
			{150, 160, 4},
		}
		for _, c := range cases {
			want := bruteMSSRange(sc, c.lo, c.hi, c.minLen)
			for _, e := range []Engine{{Workers: 1}, {Workers: 8}} {
				got := sc.RunQuery(e, Query{Kind: KindMSS, Lo: c.lo, Hi: c.hi, MinLen: c.minLen}).Best()
				if got != want {
					t.Errorf("seed=%d range [%d,%d) minLen=%d workers=%d: got %+v, want %+v",
						seed, c.lo, c.hi, c.minLen, e.Workers, got, want)
				}
			}
		}
	}
}

// TestRunQueryValidation covers the error paths of the unified dispatch.
func TestRunQueryValidation(t *testing.T) {
	sc := queryFixture(t, 50, 2, 3)
	if r := sc.RunQuery(Engine{}, Query{Kind: Kind(99)}); r.Err == nil {
		t.Error("unknown kind accepted")
	}
	if r := sc.RunQuery(Engine{}, Query{Kind: KindTopT, T: 0, Hi: 50}); r.Err == nil {
		t.Error("top-t with t=0 accepted")
	}
	if r := sc.RunQuery(Engine{}, Query{Kind: KindDisjoint, T: -1, Hi: 50}); r.Err == nil {
		t.Error("disjoint with t=-1 accepted")
	}
	// Degenerate ranges are answered, not rejected.
	for _, q := range []Query{
		{Kind: KindMSS, Lo: -5, Hi: 10},
		{Kind: KindMSS, Lo: 0, Hi: 500},
		{Kind: KindMSS, Lo: 20, Hi: 25, MinLen: 10},
		{Kind: KindMSS, Lo: 30, Hi: 30},
		{Kind: KindThreshold, Alpha: 1, Lo: 49, Hi: 3},
	} {
		r := sc.RunQuery(Engine{}, q)
		if r.Err != nil {
			t.Errorf("query %+v rejected: %v", q, r.Err)
		}
	}
	// A streaming threshold query delivers via Visit, not Results.
	var seen int
	r := sc.RunQuery(Engine{Workers: 1}, Query{Kind: KindThreshold, Alpha: 0, Hi: 50, Visit: func(Scored) { seen++ }})
	if r.Err != nil || len(r.Results) != 0 || seen == 0 {
		t.Errorf("streaming threshold: err=%v results=%d visits=%d", r.Err, len(r.Results), seen)
	}
}

// TestSoloQueryAllocs pins the allocations of a one-worker solo RunQuery
// on a 500-symbol range: its batch of one plans, runs one pass and merges
// with no group map, and its top-t member takes the heap's items without a
// copy.
func TestSoloQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	rng := rand.New(rand.NewSource(1))
	sc, err := NewScanner(randomString(rng, 2000, 4), alphabet.MustUniform(4))
	if err != nil {
		t.Fatal(err)
	}
	e := Engine{Workers: 1}
	for _, tc := range []struct {
		q      Query
		allocs float64
	}{
		{Query{Kind: KindMSS, Lo: 700, Hi: 1200}, 13},
		{Query{Kind: KindTopT, T: 10, Lo: 700, Hi: 1200}, 16},
		{Query{Kind: KindThreshold, Alpha: 200, Lo: 700, Hi: 1200}, 13}, // no hit
	} {
		if r := sc.RunQuery(e, tc.q); r.Err != nil {
			t.Fatal(r.Err)
		}
		if got := testing.AllocsPerRun(50, func() { sc.RunQuery(e, tc.q) }); got > tc.allocs {
			t.Errorf("%v: %v allocations per query, want at most %v", tc.q.Kind, got, tc.allocs)
		}
	}
}
