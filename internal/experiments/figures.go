package experiments

import (
	"math"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/strgen"
)

// Fig1a reproduces Figure 1a: ln(iterations) against ln(n) for the MSS
// algorithm versus the trivial algorithm on null strings with k=2. The
// paper's claim: our slope ≈ 1.5 (O(n^1.5)), trivial slope = 2.
func Fig1a(cfg Config) *Table {
	t := &Table{
		ID:      "fig1a",
		Title:   "MSS iterations vs string length (null model, k=2)",
		Columns: []string{"n", "ln n", "iter(ours)", "ln iter(ours)", "iter(trivial)", "ln iter(trivial)"},
	}
	rng := cfg.rng(11)
	var lnN, lnOurs, lnTriv []float64
	for _, baseN := range []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 65536} {
		n := cfg.scaledN(baseN, 64)
		s, m := nullString(n, 2, rng)
		sc := mustScanner(s, m)
		st := sc.RunQuery(cfg.engine(), core.Query{Kind: core.KindMSS, Hi: sc.Len()}).Stats
		triv := sc.TotalSubstrings()
		lnN = append(lnN, math.Log(float64(n)))
		lnOurs = append(lnOurs, math.Log(float64(st.Evaluated)))
		lnTriv = append(lnTriv, math.Log(float64(triv)))
		t.AddRow(fmtI(int64(n)), fmtF(math.Log(float64(n))),
			fmtI(st.Evaluated), fmtF(math.Log(float64(st.Evaluated))),
			fmtI(triv), fmtF(math.Log(float64(triv))))
	}
	t.AddNote("fitted slope ours = %.3f (paper: ≈1.5)", fitSlope(lnN, lnOurs))
	t.AddNote("fitted slope trivial = %.3f (exactly 2 asymptotically)", fitSlope(lnN, lnTriv))
	return t
}

// Fig1b reproduces Figure 1b: iterations against n for alphabet sizes
// k ∈ {2, 3, 5, 10}. The paper's claim: alphabet size has no significant
// effect on the iteration count.
func Fig1b(cfg Config) *Table {
	ks := []int{2, 3, 5, 10}
	t := &Table{
		ID:      "fig1b",
		Title:   "MSS iterations vs alphabet size (null model)",
		Columns: []string{"n", "k=2", "k=3", "k=5", "k=10"},
	}
	rng := cfg.rng(13)
	slopes := make(map[int][]float64)
	var lnN []float64
	for _, baseN := range []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 65536} {
		n := cfg.scaledN(baseN, 64)
		lnN = append(lnN, math.Log(float64(n)))
		row := []string{fmtI(int64(n))}
		for _, k := range ks {
			s, m := nullString(n, k, rng)
			sc := mustScanner(s, m)
			st := sc.RunQuery(cfg.engine(), core.Query{Kind: core.KindMSS, Hi: sc.Len()}).Stats
			row = append(row, fmtI(st.Evaluated))
			slopes[k] = append(slopes[k], math.Log(float64(st.Evaluated)))
		}
		t.AddRow(row...)
	}
	for _, k := range ks {
		t.AddNote("fitted slope k=%d: %.3f", k, fitSlope(lnN, slopes[k]))
	}
	return t
}

// Fig2 reproduces Figure 2: X²max against ln n on null binary strings. The
// paper observes X²max growing linearly in ln n with slope ≈ 2 (supporting
// Lemma 4: X²max > ln n w.h.p.).
func Fig2(cfg Config) *Table {
	t := &Table{
		ID:      "fig2",
		Title:   "X²max vs string length (null model, k=2)",
		Columns: []string{"n", "ln n", "X²max", "ln X²max"},
	}
	rng := cfg.rng(17)
	var lnN, xmax []float64
	for _, baseN := range []int{256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536} {
		n := cfg.scaledN(baseN, 64)
		// Average a few strings per size to tame the variance of the max.
		const reps = 3
		sum := 0.0
		for r := 0; r < reps; r++ {
			s, m := nullString(n, 2, rng)
			sc := mustScanner(s, m)
			best := sc.RunQuery(cfg.engine(), core.Query{Kind: core.KindMSS, Hi: sc.Len()}).Best()
			sum += best.X2
		}
		avg := sum / reps
		lnN = append(lnN, math.Log(float64(n)))
		xmax = append(xmax, avg)
		t.AddRow(fmtI(int64(n)), fmtF(math.Log(float64(n))), fmtF(avg), fmtF(math.Log(avg)))
	}
	t.AddNote("fitted d(X²max)/d(ln n) = %.3f (paper: ≈2)", fitSlope(lnN, xmax))
	// Lemma 4 check: X²max > ln n at each size.
	ok := true
	for i := range lnN {
		if xmax[i] <= lnN[i] {
			ok = false
		}
	}
	if ok {
		t.AddNote("X²max > ln n at every size (Lemma 4)")
	} else {
		t.AddNote("WARNING: X²max ≤ ln n at some size — Lemma 4 violated on this sample")
	}
	return t
}

// Fig3 reproduces Figure 3: X²max and iterations for heterogeneous
// multinomial models as p₀ varies, for the paper's two families
// S1 (n=10⁴, k=3, P={p₀, 0.5−p₀, 0.5}) and
// S2 (n=10⁴, k=5, P={p₀, 0.5−p₀, 0.1, 0.2, 0.2}).
// The paper's claim: p₀ changes X²max but not the iteration count.
func Fig3(cfg Config) *Table {
	t := &Table{
		ID:      "fig3",
		Title:   "X²max and iterations for multinomial strings vs p0 (n=10^4)",
		Columns: []string{"p0", "S1 X²max", "S1 iter", "S2 X²max", "S2 iter"},
	}
	rng := cfg.rng(19)
	n := cfg.scaledN(10000, 200)
	var itersS1 []float64
	for _, p0 := range []float64{0.05, 0.10, 0.15, 0.20, 0.25} {
		m1 := alphabet.MustModel([]float64{p0, 0.5 - p0, 0.5})
		m2 := alphabet.MustModel([]float64{p0, 0.5 - p0, 0.1, 0.2, 0.2})
		g1 := strgen.NewMultinomial(m1)
		g2 := strgen.NewMultinomial(m2)
		sc1 := mustScanner(g1.Generate(n, rng), m1)
		sc2 := mustScanner(g2.Generate(n, rng), m2)
		r1 := sc1.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindMSS, Hi: sc1.Len()})
		r2 := sc2.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindMSS, Hi: sc2.Len()})
		itersS1 = append(itersS1, float64(r1.Stats.Evaluated))
		t.AddRow(fmtF(p0), fmtF(r1.Best().X2), fmtI(r1.Stats.Evaluated), fmtF(r2.Best().X2), fmtI(r2.Stats.Evaluated))
	}
	lo, hi := itersS1[0], itersS1[0]
	for _, v := range itersS1 {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	t.AddNote("S1 iteration spread max/min = %.2f (paper: no significant effect of p0)", hi/lo)
	return t
}

// fig4Generators builds the four sources of §7.1.2 for alphabet size k. The
// scanning model is always the uniform null model of the same size, matching
// the paper's setup (the null source is the uniform one, and deviant strings
// are scanned under the same null).
func fig4Generators(k int) []strgen.Generator {
	return []strgen.Generator{
		strgen.MustNull(k),
		mustG(strgen.NewGeometric(k)),
		mustG(strgen.NewHarmonic(k)),
		strgen.MustMarkov(k),
	}
}

func mustG(g *strgen.Multinomial, err error) strgen.Generator {
	if err != nil {
		panic(err)
	}
	return g
}

// Fig4a reproduces Figure 4a: iterations for Null/Geometric/Zipfian/Markov
// strings at n ∈ {10000, 20000, 50000}, k=5. The paper's claim: the null
// string needs the most iterations; all other sources are cheaper.
func Fig4a(cfg Config) *Table {
	t := &Table{
		ID:      "fig4a",
		Title:   "Iterations on strings not from the null model, varying n (k=5)",
		Columns: []string{"n", "Null", "Geometric", "Zipfian", "Markov"},
	}
	rng := cfg.rng(23)
	k := 5
	scan := alphabet.MustUniform(k)
	for _, baseN := range []int{10000, 20000, 50000} {
		n := cfg.scaledN(baseN, 200)
		row := []string{fmtI(int64(n))}
		for _, g := range fig4Generators(k) {
			sc := mustScanner(g.Generate(n, rng), scan)
			st := sc.RunQuery(cfg.engine(), core.Query{Kind: core.KindMSS, Hi: sc.Len()}).Stats
			row = append(row, fmtI(st.Evaluated))
		}
		t.AddRow(row...)
	}
	t.AddNote("scanning model: uniform null over k=5 for every source")
	return t
}

// Fig4b reproduces Figure 4b: the same comparison varying k ∈ {2, 3, 5} at
// n = 20000.
func Fig4b(cfg Config) *Table {
	t := &Table{
		ID:      "fig4b",
		Title:   "Iterations on strings not from the null model, varying k (n=20000)",
		Columns: []string{"k", "Null", "Geometric", "Zipfian", "Markov"},
	}
	rng := cfg.rng(29)
	n := cfg.scaledN(20000, 200)
	for _, k := range []int{2, 3, 5} {
		scan := alphabet.MustUniform(k)
		row := []string{fmtI(int64(k))}
		for _, g := range fig4Generators(k) {
			sc := mustScanner(g.Generate(n, rng), scan)
			st := sc.RunQuery(cfg.engine(), core.Query{Kind: core.KindMSS, Hi: sc.Len()}).Stats
			row = append(row, fmtI(st.Evaluated))
		}
		t.AddRow(row...)
	}
	t.AddNote("scanning model: uniform null over each k for every source")
	return t
}

// Fig5a reproduces Figure 5a: top-t cost against n for t ∈ {10, 100, 2000}
// plus the plain MSS, on null binary strings. The paper's claim: slope ≈ 1.5
// in log-log space for every constant t.
func Fig5a(cfg Config) *Table {
	ts := []int{1, 10, 100, 2000}
	t := &Table{
		ID:      "fig5a",
		Title:   "Top-t iterations vs string length (null model, k=2)",
		Columns: []string{"n", "MSS(t=1)", "t=10", "t=100", "t=2000"},
	}
	rng := cfg.rng(31)
	slopes := make(map[int][]float64)
	var lnN []float64
	for _, baseN := range []int{1024, 2048, 4096, 8192, 16384, 32768, 65536} {
		n := cfg.scaledN(baseN, 128)
		s, m := nullString(n, 2, rng)
		sc := mustScanner(s, m)
		row := []string{fmtI(int64(n))}
		lnN = append(lnN, math.Log(float64(n)))
		for _, tt := range ts {
			r := sc.RunQuery(cfg.engine(), core.Query{Kind: core.KindTopT, T: tt, Hi: sc.Len()})
			if r.Err != nil {
				panic(r.Err)
			}
			row = append(row, fmtI(r.Stats.Evaluated))
			slopes[tt] = append(slopes[tt], math.Log(float64(r.Stats.Evaluated)))
		}
		t.AddRow(row...)
	}
	for _, tt := range ts {
		t.AddNote("fitted slope t=%d: %.3f (paper: ≈1.5)", tt, fitSlope(lnN, slopes[tt]))
	}
	return t
}

// Fig5b reproduces Figure 5b: top-t cost against t for n ∈ {500, 2000,
// 10000}. The paper's claim: cost is flat-ish until t approaches ω(n), after
// which it bends toward the trivial O(n²).
func Fig5b(cfg Config) *Table {
	t := &Table{
		ID:      "fig5b",
		Title:   "Top-t iterations vs t (null model, k=2)",
		Columns: []string{"t", "n=500", "n=2000", "n=10000"},
	}
	rng := cfg.rng(37)
	ns := []int{cfg.scaledN(500, 100), cfg.scaledN(2000, 200), cfg.scaledN(10000, 400)}
	scanners := make([]*core.Scanner, len(ns))
	for i, n := range ns {
		s, m := nullString(n, 2, rng)
		scanners[i] = mustScanner(s, m)
	}
	for _, tt := range []int{1, 4, 16, 64, 256, 1024, 4096, 16384} {
		row := []string{fmtI(int64(tt))}
		for _, sc := range scanners {
			r := sc.RunQuery(cfg.engine(), core.Query{Kind: core.KindTopT, T: tt, Hi: sc.Len()})
			if r.Err != nil {
				panic(r.Err)
			}
			row = append(row, fmtI(r.Stats.Evaluated))
		}
		t.AddRow(row...)
	}
	t.AddNote("iterations bend toward n(n+1)/2 once t is no longer ≪ n (paper §6.1)")
	return t
}

// Fig6 reproduces Figure 6: iterations of the threshold algorithm against α₀
// on a null binary string (paper n = 10⁵), versus the trivial scan. The
// paper's claim: a sharp drop from O(n²) until α₀ ≈ X²max, then a slow
// ~1/√α₀ decline.
func Fig6(cfg Config) *Table {
	t := &Table{
		ID:      "fig6",
		Title:   "Threshold-scan iterations vs alpha0 (null model, k=2)",
		Columns: []string{"alpha0", "iter(ours)", "ln iter(ours)", "matches", "iter(trivial)"},
	}
	rng := cfg.rng(41)
	n := cfg.scaledN(100000, 500)
	s, m := nullString(n, 2, rng)
	sc := mustScanner(s, m)
	triv := sc.TotalSubstrings()
	for _, alpha := range []float64{0, 2, 5, 10, 15, 20, 25, 30, 40, 50} {
		var count int64
		st := sc.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindThreshold, Alpha: alpha, Hi: sc.Len(),
			Visit: func(core.Scored) { count++ }}).Stats
		t.AddRow(fmtF(alpha), fmtI(st.Evaluated), fmtF(math.Log(float64(st.Evaluated))), fmtI(count), fmtI(triv))
	}
	t.AddNote("n = %d; trivial always scans n(n+1)/2 substrings", n)
	return t
}

// Fig7 reproduces Figure 7: iterations of the min-length MSS against Γ₀ on a
// null binary string (paper n = 10⁵). The paper's claim: iterations decrease
// slowly as Γ₀ grows, then fall rapidly as Γ₀ → n.
func Fig7(cfg Config) *Table {
	t := &Table{
		ID:      "fig7",
		Title:   "Min-length MSS iterations vs Gamma0 (null model, k=2)",
		Columns: []string{"Gamma0", "ln Gamma0", "iter(ours)", "iter(trivial)"},
	}
	rng := cfg.rng(43)
	n := cfg.scaledN(100000, 500)
	s, m := nullString(n, 2, rng)
	sc := mustScanner(s, m)
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.75, 0.85, 0.92, 0.96, 0.98, 0.995} {
		gamma := int(frac * float64(n))
		st := sc.RunQuery(cfg.engine(), core.Query{Kind: core.KindMSS, MinLen: gamma + 1, Hi: sc.Len()}).Stats
		// Trivial must still evaluate every substring longer than Γ₀:
		// (n−Γ)(n−Γ+1)/2 of them.
		rem := int64(n - gamma)
		triv := rem * (rem + 1) / 2
		t.AddRow(fmtI(int64(gamma)), fmtF(math.Log(float64(gamma))), fmtI(st.Evaluated), fmtI(triv))
	}
	t.AddNote("n = %d; Γ₀ expressed as the paper's x-axis (ln Γ₀ near ln n)", n)
	return t
}
