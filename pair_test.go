package sigsub

import (
	"math/rand"
	"testing"
)

func TestPairScannerEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 2000
	a := make([]byte, n)
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		a[i] = byte(rng.Intn(2))
		if i >= 700 && i < 1100 && rng.Float64() < 0.95 {
			b[i] = a[i]
		} else {
			b[i] = byte(rng.Intn(2))
		}
	}
	ps, err := NewPairScanner(a, 2, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != n {
		t.Errorf("Len = %d", ps.Len())
	}
	best, err := ps.MostCorrelatedPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if best.End <= 700 || best.Start >= 1100 {
		t.Errorf("correlation window %v misses planted [700, 1100)", best)
	}
	if best.PValue > 1e-6 {
		t.Errorf("p-value %g not significant", best.PValue)
	}
	agr, err := ps.Agreement(best.Start, best.End)
	if err != nil {
		t.Fatal(err)
	}
	if agr < 0.7 {
		t.Errorf("agreement %.2f", agr)
	}
	tops, err := ps.TopPeriods(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tops) == 0 || tops[0].X2 != best.X2 {
		t.Errorf("TopPeriods[0] %v disagrees with MostCorrelatedPeriod %v", tops, best)
	}
}

func TestPairScannerErrors(t *testing.T) {
	if _, err := NewPairScanner([]byte{0, 1}, 2, []byte{0}, 2); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestScannerMinLengthVariantsAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := mustUniform(t, 2)
	s := randString(rng, 300, 2)
	sc, err := NewScanner(s, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runResults(sc, TopTQuery(5).WithMinLength(21))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Length <= 20 {
			t.Errorf("top-t-min-length result %v too short", r)
		}
	}
	mss, err := runBest(sc, MSSQuery().WithMinLength(21))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].X2 != mss.X2 {
		t.Errorf("min-length top-t[0] %v disagrees with min-length MSS %v", res[0], mss)
	}

	th, err := runResults(sc, ThresholdQuery(mss.X2*0.8).WithMinLength(21))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range th {
		if r.Length <= 20 || r.X2 <= mss.X2*0.8 {
			t.Errorf("threshold-min-length result %v violates constraints", r)
		}
	}
	if _, err := runResults(sc, ThresholdQuery(0).WithResultLimit(2)); err == nil {
		t.Error("limit overflow not reported")
	}

	rr, err := runBest(sc, MSSQuery().WithRange(100, 200).WithMinLength(10))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Start < 100 || rr.End > 200 || rr.Length < 10 {
		t.Errorf("range MSS result %v out of bounds", rr)
	}
	if _, err := runResults(sc, TopTQuery(0).WithMinLength(6)); err == nil {
		t.Error("t=0 accepted")
	}
}
