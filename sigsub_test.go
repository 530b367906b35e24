package sigsub

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func mustUniform(t *testing.T, k int) *Model {
	t.Helper()
	m, err := UniformModel(k)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randString(rng *rand.Rand, n, k int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(k))
	}
	return s
}

// runResults runs q and folds the slot's own error (a threshold overflow)
// into the call's.
func runResults(sc *Scanner, q Query, opts ...Option) ([]Result, error) {
	qr, err := sc.Run(q, opts...)
	if err == nil {
		err = qr.Err
	}
	return qr.Results, err
}

// runBest runs an MSS-kind q and returns its single result, or the zero
// Result (p-value 1) when no candidate fits the query.
func runBest(sc *Scanner, q Query, opts ...Option) (Result, error) {
	rs, err := runResults(sc, q, opts...)
	if len(rs) == 0 {
		return Result{PValue: 1}, err
	}
	return rs[0], err
}

func TestModelConstruction(t *testing.T) {
	m, err := NewModel([]float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 2 {
		t.Errorf("K = %d", m.K())
	}
	p := m.Probs()
	if p[0] != 0.3 || p[1] != 0.7 {
		t.Errorf("Probs = %v", p)
	}
	p[0] = 99 // must not corrupt the model
	if m.Probs()[0] == 99 {
		t.Error("Probs exposes internal storage")
	}
	if !strings.Contains(m.String(), "0.3") {
		t.Errorf("String = %q", m.String())
	}
	if _, err := NewModel([]float64{0.3, 0.3}); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := UniformModel(1); err == nil {
		t.Error("UniformModel(1) accepted")
	}
}

func TestModelFromSample(t *testing.T) {
	s := []byte{0, 0, 0, 1}
	m, err := ModelFromSample(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Probs()[0]-0.75) > 1e-12 {
		t.Errorf("estimated p0 = %g", m.Probs()[0])
	}
	if _, err := ModelFromSample(nil, 2); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestFindMSSBasic(t *testing.T) {
	m := mustUniform(t, 2)
	s := []byte{0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0}
	res, err := FindMSS(s, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.X2 <= 0 || res.Length != res.End-res.Start {
		t.Errorf("res = %+v", res)
	}
	if res.PValue <= 0 || res.PValue >= 1 {
		t.Errorf("p-value %g out of (0,1)", res.PValue)
	}
	if !strings.Contains(res.String(), "X²=") {
		t.Errorf("String() = %q", res.String())
	}
	// The run of six 1s (positions 3..9) should be the core of the MSS.
	if res.Start > 3 || res.End < 9 {
		t.Errorf("MSS %v does not cover the planted run [3, 9)", res)
	}
}

func TestFindMSSErrors(t *testing.T) {
	m := mustUniform(t, 2)
	if _, err := FindMSS(nil, m); err == nil {
		t.Error("empty string accepted")
	}
	if _, err := FindMSS([]byte{0, 1}, nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := FindMSS([]byte{0, 7}, m); err == nil {
		t.Error("out-of-range symbol accepted")
	}
}

func TestAllAlgorithmsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := mustUniform(t, 3)
	s := randString(rng, 300, 3)
	sc, err := NewScanner(s, m)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := sc.MSS()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Algorithm{AlgoTrivial, AlgoTrivialIncremental, AlgoHeapPruned} {
		res, err := sc.MSS(WithAlgorithm(a))
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if math.Abs(res.X2-exact.X2) > 1e-7 {
			t.Errorf("%v: X² %.10g differs from exact %.10g", a, res.X2, exact.X2)
		}
	}
	for _, a := range []Algorithm{AlgoARLM, AlgoAGMM} {
		res, err := sc.MSS(WithAlgorithm(a))
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if res.X2 > exact.X2+1e-7 {
			t.Errorf("%v: heuristic %.10g beat the exact optimum %.10g", a, res.X2, exact.X2)
		}
	}
}

func TestAlgorithmNames(t *testing.T) {
	for _, a := range []Algorithm{AlgoExact, AlgoTrivial, AlgoTrivialIncremental, AlgoHeapPruned, AlgoARLM, AlgoAGMM} {
		name := a.String()
		back, err := ParseAlgorithm(name)
		if err != nil || back != a {
			t.Errorf("round trip %v -> %q -> %v (%v)", a, name, back, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("bogus algorithm parsed")
	}
	if !strings.Contains(Algorithm(99).String(), "99") {
		t.Error("unknown algorithm String")
	}
}

func TestWithStats(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := mustUniform(t, 2)
	s := randString(rng, 500, 2)
	sc, _ := NewScanner(s, m)
	var st Stats
	if _, err := sc.MSS(WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	total := int64(500) * 501 / 2
	if st.Evaluated+st.Skipped != total {
		t.Errorf("Evaluated %d + Skipped %d ≠ %d", st.Evaluated, st.Skipped, total)
	}
	if st.Skipped == 0 {
		t.Error("exact algorithm skipped nothing on n=500")
	}
}

func TestTopTAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := mustUniform(t, 2)
	s := randString(rng, 200, 2)
	sc, _ := NewScanner(s, m)
	res, err := runResults(sc, TopTQuery(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("%d results", len(res))
	}
	if !sort.SliceIsSorted(res, func(i, j int) bool { return res[i].X2 > res[j].X2 }) {
		t.Error("top-t not descending")
	}
	ref, _, err := sc.sc.TrivialTopT(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if math.Abs(res[i].X2-ref[i].X2) > 1e-7 {
			t.Errorf("rank %d: %.8g vs trivial %.8g", i, res[i].X2, ref[i].X2)
		}
	}
	if _, err := runResults(sc, TopTQuery(0)); err == nil {
		t.Error("t=0 accepted")
	}
}

func TestDisjointTopTAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := mustUniform(t, 2)
	s := randString(rng, 300, 2)
	sc, _ := NewScanner(s, m)
	res, err := runResults(sc, DisjointQuery(4).WithMinLength(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no disjoint results")
	}
	sorted := append([]Result(nil), res...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Start < sorted[i-1].End {
			t.Errorf("intervals overlap: %v and %v", sorted[i-1], sorted[i])
		}
	}
	for _, r := range res {
		if r.Length < 5 {
			t.Errorf("result %v shorter than minLen", r)
		}
	}
}

func TestThresholdAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := mustUniform(t, 2)
	s := randString(rng, 200, 2)
	sc, _ := NewScanner(s, m)
	mss, _ := sc.MSS()
	alpha := mss.X2 * 0.7
	res, err := runResults(sc, ThresholdQuery(alpha))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results above 0.7·X²max")
	}
	for _, r := range res {
		if r.X2 <= alpha {
			t.Errorf("result %v below threshold %g", r, alpha)
		}
	}
	// Overflowing the result limit keeps the first Limit results and
	// reports the overflow in the slot's error.
	qr, err := sc.Run(ThresholdQuery(0).WithResultLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	if qr.Err == nil || len(qr.Results) != 3 {
		t.Errorf("limit overflow: %d results, err %v", len(qr.Results), qr.Err)
	}
}

func TestMSSMinLengthAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := mustUniform(t, 2)
	s := randString(rng, 150, 2)
	sc, _ := NewScanner(s, m)
	res, err := runBest(sc, MSSQuery().WithMinLength(21))
	if err != nil {
		t.Fatal(err)
	}
	if res.Length <= 20 {
		t.Errorf("length %d not > 20", res.Length)
	}
	want := -1.0
	for i := 0; i < len(s); i++ {
		for j := i + 21; j <= len(s); j++ {
			if x2, _ := sc.X2(i, j); x2 > want {
				want = x2
			}
		}
	}
	if math.Abs(res.X2-want) > 1e-7 {
		t.Errorf("min-length MSS X² %.8g, brute force %.8g", res.X2, want)
	}
	// A floor longer than the string leaves no candidate: no result, no
	// error.
	qr, err := sc.Run(MSSQuery().WithMinLength(151))
	if err != nil || len(qr.Results) != 0 {
		t.Errorf("floor past the string: %v, err %v", qr.Results, err)
	}
}

func TestScannerX2(t *testing.T) {
	m := mustUniform(t, 2)
	sc, _ := NewScanner([]byte{0, 0, 1}, m)
	v, err := sc.X2(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-2) > 1e-12 { // "00" under uniform binary
		t.Errorf("X2(0,2) = %g, want 2", v)
	}
	for _, bad := range [][2]int{{-1, 2}, {0, 4}, {2, 2}} {
		if _, err := sc.X2(bad[0], bad[1]); err == nil {
			t.Errorf("X2(%d,%d): expected error", bad[0], bad[1])
		}
	}
	if sc.Len() != 3 {
		t.Errorf("Len = %d", sc.Len())
	}
}

func TestChiSquareWholeString(t *testing.T) {
	m := mustUniform(t, 2)
	v, err := ChiSquare([]byte{0, 0, 0, 0}, m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-4) > 1e-12 {
		t.Errorf("ChiSquare = %g, want 4", v)
	}
	if _, err := ChiSquare(nil, m); err == nil {
		t.Error("empty string accepted")
	}
	if _, err := ChiSquare([]byte{0}, nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := ChiSquare([]byte{9}, m); err == nil {
		t.Error("invalid symbol accepted")
	}
}

func TestPValueAndCriticalValue(t *testing.T) {
	// χ²(1): the 95% critical value is 3.8415.
	cv, err := CriticalValue(0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cv-3.841458820694124) > 1e-6 {
		t.Errorf("CriticalValue(0.05, 2) = %g", cv)
	}
	pv := PValue(cv, 2)
	if math.Abs(pv-0.05) > 1e-9 {
		t.Errorf("PValue(cv) = %g, want 0.05", pv)
	}
	if PValue(-1, 2) != 1 || PValue(5, 1) != 1 {
		t.Error("degenerate p-values should be 1")
	}
	if _, err := CriticalValue(0, 2); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := CriticalValue(0.05, 1); err == nil {
		t.Error("k=1 accepted")
	}
}

func TestTextCodecRoundTrip(t *testing.T) {
	c, err := NewTextCodec("WL")
	if err != nil {
		t.Fatal(err)
	}
	syms, err := c.Encode("WWLW")
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.UniformModel()
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 2 {
		t.Errorf("model K = %d", m.K())
	}
	back, err := c.Decode(syms)
	if err != nil || back != "WWLW" {
		t.Errorf("round trip %q (%v)", back, err)
	}
	if c.Symbol(0) != 'W' {
		t.Errorf("Symbol(0) = %c", c.Symbol(0))
	}
	sorted, err := NewTextCodecSorted("ba")
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Symbol(0) != 'a' {
		t.Errorf("sorted Symbol(0) = %c", sorted.Symbol(0))
	}
	if _, err := NewTextCodec("xxx"); err == nil {
		t.Error("single-letter codec accepted")
	}
}

// Property: for random binary strings, the public MSS equals the trivial
// scan through the public API.
func TestPublicMSSProperty(t *testing.T) {
	m := mustUniform(t, 2)
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		s := make([]byte, len(raw))
		for i, b := range raw {
			s[i] = b & 1
		}
		sc, err := NewScanner(s, m)
		if err != nil {
			return false
		}
		a, err1 := sc.MSS()
		b, err2 := sc.MSS(WithAlgorithm(AlgoTrivial))
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.X2-b.X2) < 1e-7*math.Max(1, a.X2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// The paper's coin intuition: a heavily biased window is significant at
// α = 0.001 while a balanced one is not.
func TestSignificanceContrast(t *testing.T) {
	m := mustUniform(t, 2)
	biased := make([]byte, 40) // forty 0s
	balanced := make([]byte, 40)
	for i := range balanced {
		balanced[i] = byte(i % 2)
	}
	cv, err := CriticalValue(0.001, 2)
	if err != nil {
		t.Fatal(err)
	}
	vb, _ := ChiSquare(biased, m)
	vn, _ := ChiSquare(balanced, m)
	if vb <= cv {
		t.Errorf("all-zeros window X²=%g not significant at 0.001 (cv %g)", vb, cv)
	}
	if vn > cv {
		t.Errorf("balanced window X²=%g spuriously significant", vn)
	}
}
