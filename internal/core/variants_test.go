package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/alphabet"
)

func TestTopTMinLengthMatchesTrivial(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 25; trial++ {
		k := 2 + rng.Intn(3)
		n := 10 + rng.Intn(150)
		gamma := rng.Intn(n / 2)
		tt := 1 + rng.Intn(10)
		m := alphabet.MustUniform(k)
		sc := mustScanner(t, randomString(rng, n, k), m)
		got, _, err := topTOf(sc, sequential, tt, gamma+1)
		if err != nil {
			t.Fatal(err)
		}
		// Trivial reference: all substrings longer than gamma, sorted.
		var all []float64
		w := make([]int, k)
		for i := 0; i < n; i++ {
			for j := i + gamma + 1; j <= n; j++ {
				sc.pre.Vector(i, j, w)
				all = append(all, x2For(w, sc.probs))
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(all)))
		want := all
		if len(want) > tt {
			want = want[:tt]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for r := range want {
			if !almostEqual(got[r].X2, want[r]) {
				t.Fatalf("trial %d rank %d: %.9g vs %.9g (n=%d Γ=%d t=%d)", trial, r, got[r].X2, want[r], n, gamma, tt)
			}
			if got[r].Len() <= gamma {
				t.Fatalf("trial %d: result %v shorter than Γ=%d", trial, got[r].Interval, gamma)
			}
		}
	}
}

// x2For recomputes X² from a count vector for the reference scans.
func x2For(yv []int, probs []float64) float64 {
	l := 0
	sum := 0.0
	for i, y := range yv {
		if y == 0 {
			continue
		}
		fy := float64(y)
		sum += fy * fy / probs[i]
		l += y
	}
	if l == 0 {
		return 0
	}
	fl := float64(l)
	return sum/fl - fl
}

func TestTopTMinLengthErrors(t *testing.T) {
	m := alphabet.MustUniform(2)
	sc := mustScanner(t, []byte{0, 1, 0}, m)
	if _, _, err := topTOf(sc, sequential, 0, 1); err == nil {
		t.Error("t=0 accepted")
	}
	// Gamma beyond the string: no results, no error.
	res, _, err := topTOf(sc, sequential, 3, 11)
	if err != nil || len(res) != 0 {
		t.Errorf("oversized gamma: res=%v err=%v", res, err)
	}
	// Negative gamma behaves like plain top-t.
	a, _, _ := topTOf(sc, sequential, 3, -3)
	b, _, _ := topTOf(sc, sequential, 3, 1)
	if len(a) != len(b) {
		t.Errorf("negative gamma differs from plain top-t")
	}
}

func TestThresholdMinLengthMatchesTrivial(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	for trial := 0; trial < 25; trial++ {
		k := 2 + rng.Intn(3)
		n := 10 + rng.Intn(150)
		gamma := rng.Intn(n / 2)
		m := alphabet.MustUniform(k)
		sc := mustScanner(t, randomString(rng, n, k), m)
		mss, _ := mssOf(sc, sequential, 1)
		alpha := mss.X2 * (0.2 + 0.6*rng.Float64())
		got := map[Interval]float64{}
		thresholdOf(sc, sequential, alpha, gamma+1, func(r Scored) { got[r.Interval] = r.X2 })
		// Reference.
		w := make([]int, k)
		want := map[Interval]float64{}
		for i := 0; i < n; i++ {
			for j := i + gamma + 1; j <= n; j++ {
				sc.pre.Vector(i, j, w)
				if v := x2For(w, sc.probs); v > alpha {
					want[Interval{i, j}] = v
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d Γ=%d α=%.3g): %d results, want %d", trial, n, gamma, alpha, len(got), len(want))
		}
		for iv, v := range want {
			if !almostEqual(got[iv], v) {
				t.Fatalf("trial %d: interval %v: %.9g vs %.9g", trial, iv, got[iv], v)
			}
		}
	}
}

func TestMSSRange(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	m := alphabet.MustUniform(2)
	s := randomString(rng, 200, 2)
	sc := mustScanner(t, s, m)
	// Full range equals MSS.
	full, _ := rangeMSS(sc, sequential, 0, 200, 1)
	mss, _ := mssOf(sc, sequential, 1)
	if full != mss {
		t.Errorf("full-range scan %+v differs from MSS %+v", full, mss)
	}
	// Restricted range stays inside.
	r, _ := rangeMSS(sc, sequential, 50, 120, 5)
	if r.Start < 50 || r.End > 120 || r.Len() < 5 {
		t.Errorf("restricted result %+v escapes [50,120) or minLen", r)
	}
	// And equals a trivial scan over the segment.
	best := Scored{X2: -1}
	w := make([]int, 2)
	for i := 50; i+5 <= 120; i++ {
		for j := i + 5; j <= 120; j++ {
			sc.pre.Vector(i, j, w)
			if v := x2For(w, sc.probs); v > best.X2 {
				best = Scored{Interval{i, j}, v}
			}
		}
	}
	if !almostEqual(r.X2, best.X2) {
		t.Errorf("restricted %.9g vs trivial %.9g", r.X2, best.X2)
	}
	// Degenerate ranges.
	if z, _ := rangeMSS(sc, sequential, 100, 100, 1); z.X2 != 0 {
		t.Errorf("empty range returned %+v", z)
	}
	if z, _ := rangeMSS(sc, sequential, -5, 3, 10); z.X2 != 0 {
		t.Errorf("too-small range returned %+v", z)
	}
}

func TestDisjointTopTProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	for trial := 0; trial < 15; trial++ {
		k := 2 + rng.Intn(3)
		n := 30 + rng.Intn(200)
		m := alphabet.MustUniform(k)
		sc := mustScanner(t, randomString(rng, n, k), m)
		tt := 1 + rng.Intn(6)
		minLen := 1 + rng.Intn(8)
		res, _, err := disjointOf(sc, sequential, tt, minLen)
		if err != nil {
			t.Fatal(err)
		}
		// Descending scores, pairwise disjoint, honouring minLen; the first
		// equals the minLen-restricted MSS.
		for i, r := range res {
			if r.Len() < minLen {
				t.Fatalf("result %v shorter than %d", r.Interval, minLen)
			}
			if i > 0 && r.X2 > res[i-1].X2+1e-9 {
				t.Fatalf("scores not descending: %g after %g", r.X2, res[i-1].X2)
			}
			for j := 0; j < i; j++ {
				if r.Start < res[j].End && res[j].Start < r.End {
					t.Fatalf("results overlap: %v and %v", res[j].Interval, r.Interval)
				}
			}
		}
		if len(res) > 0 {
			ref, _ := mssOf(sc, sequential, minLen)
			if !almostEqual(res[0].X2, ref.X2) {
				t.Fatalf("first disjoint result %.9g differs from MSS %.9g", res[0].X2, ref.X2)
			}
		}
	}
}

func TestDisjointTopTErrors(t *testing.T) {
	m := alphabet.MustUniform(2)
	sc := mustScanner(t, []byte{0, 1}, m)
	if _, _, err := disjointOf(sc, sequential, 0, 1); err == nil {
		t.Error("t=0 accepted")
	}
	// Requesting more disjoint intervals than fit just returns fewer.
	res, _, err := disjointOf(sc, sequential, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || len(res) > 2 {
		t.Errorf("%d disjoint results from a 2-symbol string", len(res))
	}
}
