package sigsub

// This file is the benchmark harness of deliverable (d): one benchmark per
// table and figure of the paper's evaluation (regenerating the same rows or
// series via internal/experiments) plus micro-benchmarks of the core
// operations and the ablation benches listed in DESIGN.md.
//
// Sizes are scaled down (benchScale) so `go test -bench=.` completes in
// minutes; run `go run ./cmd/ssexp -exp all -scale 1` for the full
// paper-scale regeneration recorded in EXPERIMENTS.md.

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/strgen"
)

// benchScale shrinks the paper's string sizes for the benchmark suite.
const benchScale = 0.05

func benchCfg() experiments.Config {
	return experiments.Config{Seed: 1, Scale: benchScale, Runs: 1}
}

// runExperiment executes one experiment per benchmark iteration and renders
// it to io.Discard so rendering cost is included and the result is not
// optimized away.
func runExperiment(b *testing.B, fn func(experiments.Config) *experiments.Table) {
	b.Helper()
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := fn(cfg)
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper figure ---

func BenchmarkFig1aMSSIterations(b *testing.B) { runExperiment(b, experiments.Fig1a) }
func BenchmarkFig1bAlphabetSize(b *testing.B)  { runExperiment(b, experiments.Fig1b) }
func BenchmarkFig2XmaxGrowth(b *testing.B)     { runExperiment(b, experiments.Fig2) }
func BenchmarkFig3Heterogeneous(b *testing.B)  { runExperiment(b, experiments.Fig3) }
func BenchmarkFig4aStringTypes(b *testing.B)   { runExperiment(b, experiments.Fig4a) }
func BenchmarkFig4bStringTypes(b *testing.B)   { runExperiment(b, experiments.Fig4b) }
func BenchmarkFig5aTopTvsN(b *testing.B)       { runExperiment(b, experiments.Fig5a) }
func BenchmarkFig5bTopTvsT(b *testing.B)       { runExperiment(b, experiments.Fig5b) }
func BenchmarkFig6Threshold(b *testing.B)      { runExperiment(b, experiments.Fig6) }
func BenchmarkFig7MinLength(b *testing.B)      { runExperiment(b, experiments.Fig7) }

// --- One benchmark per paper table ---

func BenchmarkTable1Comparison(b *testing.B) { runExperiment(b, experiments.Table1) }
func BenchmarkTable2Cryptology(b *testing.B) { runExperiment(b, experiments.Table2) }
func BenchmarkTable3Sports(b *testing.B)     { runExperiment(b, experiments.Table3) }
func BenchmarkTable4SportsComparison(b *testing.B) {
	runExperiment(b, experiments.Table4)
}
func BenchmarkTable5Stocks(b *testing.B) { runExperiment(b, experiments.Table5) }
func BenchmarkTable6StocksComparison(b *testing.B) {
	runExperiment(b, experiments.Table6)
}

// --- Micro-benchmarks of the core operations ---

// benchScanner builds a null binary string of the given size.
func benchScanner(b *testing.B, n, k int) *core.Scanner {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := strgen.MustNull(k)
	sc, err := core.NewScanner(g.Generate(n, rng), g.Model())
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

func BenchmarkMSSExactN10k(b *testing.B) {
	sc := benchScanner(b, 10000, 2)
	b.ResetTimer()
	var st core.Stats
	for i := 0; i < b.N; i++ {
		st = sc.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindMSS, Hi: sc.Len()}).Stats
	}
	b.ReportMetric(float64(st.Evaluated), "substrings-evaluated")
}

func BenchmarkMSSTrivialN10k(b *testing.B) {
	sc := benchScanner(b, 10000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.TrivialIncremental()
	}
}

func BenchmarkMSSARLMN10k(b *testing.B) {
	sc := benchScanner(b, 10000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.ARLM()
	}
}

func BenchmarkMSSAGMMN10k(b *testing.B) {
	sc := benchScanner(b, 10000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.AGMM()
	}
}

func BenchmarkTopT100N10k(b *testing.B) {
	sc := benchScanner(b, 10000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := sc.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindTopT, T: 100, Hi: sc.Len()}); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

func BenchmarkThresholdN10k(b *testing.B) {
	sc := benchScanner(b, 10000, 2)
	mss := sc.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindMSS, Hi: sc.Len()}).Best()
	alpha := mss.X2 + 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindThreshold, Alpha: alpha, Hi: sc.Len(), Visit: func(core.Scored) {}})
	}
}

func BenchmarkScannerConstructionN100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := strgen.MustNull(4)
	s := g.Generate(100000, rng)
	m := g.Model()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewScanner(s, m); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// Exact skip (min over characters, floor) versus the paper-literal variant
// (single character, ceil): iterations saved versus exactness risk.
func BenchmarkAblationSkipRounding(b *testing.B) {
	sc := benchScanner(b, 10000, 2)
	b.Run("exact-floor", func(b *testing.B) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			_, st = sc.MSSWithVariant(core.SkipVariant{})
		}
		b.ReportMetric(float64(st.Evaluated), "substrings-evaluated")
	})
	b.Run("paper-ceil", func(b *testing.B) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			_, st = sc.MSSWithVariant(core.SkipVariant{RoundUp: true})
		}
		b.ReportMetric(float64(st.Evaluated), "substrings-evaluated")
	})
}

// Min-over-characters root versus the single pre-chosen character's root.
func BenchmarkAblationSkipRoot(b *testing.B) {
	sc := benchScanner(b, 10000, 4)
	b.Run("min-over-chars", func(b *testing.B) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			_, st = sc.MSSWithVariant(core.SkipVariant{})
		}
		b.ReportMetric(float64(st.Evaluated), "substrings-evaluated")
	})
	b.Run("single-char", func(b *testing.B) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			_, st = sc.MSSWithVariant(core.SkipVariant{SingleChar: true})
		}
		b.ReportMetric(float64(st.Evaluated), "substrings-evaluated")
	})
}

// O(1) incremental X² updates versus O(k) recomputation in the trivial scan.
func BenchmarkAblationIncremental(b *testing.B) {
	sc := benchScanner(b, 4000, 4)
	b.Run("recomputed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc.Trivial()
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc.TrivialIncremental()
		}
	})
}

// Best-first pruning versus full trivial scan on a string with a planted
// anomaly (where pruning pays) and on a null string (where it cannot).
func BenchmarkAblationHeapPruned(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	base := alphabet.MustUniform(2)
	planted, err := strgen.NewPlanted(base, []strgen.Window{
		{Start: 1500, Len: 600, Probs: []float64{0.95, 0.05}},
	})
	if err != nil {
		b.Fatal(err)
	}
	scPlanted, err := core.NewScanner(planted.Generate(4000, rng), base)
	if err != nil {
		b.Fatal(err)
	}
	scNull := benchScanner(b, 4000, 2)
	b.Run("planted/heap-pruned", func(b *testing.B) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			_, st = scPlanted.HeapPruned()
		}
		b.ReportMetric(float64(st.Starts), "starts-expanded")
	})
	b.Run("planted/trivial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scPlanted.TrivialIncremental()
		}
	})
	b.Run("null/heap-pruned", func(b *testing.B) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			_, st = scNull.HeapPruned()
		}
		b.ReportMetric(float64(st.Starts), "starts-expanded")
	})
}
