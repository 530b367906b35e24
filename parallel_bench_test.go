package sigsub

// Benchmarks of the parallel chain-cover scan engine (core.Engine): wall
// clock of the exact scans at paper-scale n as the worker count grows, plus
// the warm-start ablation. BENCH_1.json at the repo root records a measured
// run of these benches together with the count-index benches in
// internal/counts (go test -bench 'ParallelMSS|PrefixLayout').

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/strgen"
)

var parallelWorkerGrid = []int{1, 2, 4, 8}

// BenchmarkSeqMSS is the headline single-thread number of the
// rolling-kernel engine: the sequential exact MSS scan at n=100k across
// alphabet sizes on the checkpointed count index. BENCH_3.json records a
// measured run together with the kernel and index microbenchmarks
// (internal/chisq, internal/counts) and the earlier engine baseline it was
// compared against.
func BenchmarkSeqMSS(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		rng := rand.New(rand.NewSource(1))
		g := strgen.MustNull(k)
		sc, err := core.NewScanner(g.Generate(100_000, rng), g.Model())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("checkpointed/n=100k/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc.MSSWith(core.Engine{Workers: 1})
			}
		})
	}
}

// BenchmarkParallelMSS is the headline number: the Problem 1 scan at
// n=100k, k=4 sharded over 1..8 workers.
func BenchmarkParallelMSS(b *testing.B) {
	sc := benchScanner(b, 100_000, 4)
	for _, w := range parallelWorkerGrid {
		b.Run(fmt.Sprintf("n=100k/k=4/w=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.MSSWith(core.Engine{Workers: w})
			}
		})
	}
}

// BenchmarkParallelMSSBinary covers the paper's favourite k=2 regime.
func BenchmarkParallelMSSBinary(b *testing.B) {
	sc := benchScanner(b, 100_000, 2)
	for _, w := range parallelWorkerGrid {
		b.Run(fmt.Sprintf("n=100k/k=2/w=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.MSSWith(core.Engine{Workers: w})
			}
		})
	}
}

// BenchmarkParallelMSSWarmStart isolates the warm start's contribution on a
// string with a planted anomaly — the regime it is designed for: the AGMM
// seed lands near the true maximum immediately, so the exact scan starts
// with near-final skips (on null strings the scan finds tight budgets in its
// first rows anyway and the warm start is a wash). The substrings-evaluated
// metric is the machine-independent effect.
func BenchmarkParallelMSSWarmStart(b *testing.B) {
	base := alphabet.MustUniform(4)
	planted, err := strgen.NewPlanted(base, []strgen.Window{
		{Start: 60_000, Len: 2_000, Probs: []float64{0.7, 0.1, 0.1, 0.1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := core.NewScanner(planted.Generate(100_000, rand.New(rand.NewSource(2))), base)
	if err != nil {
		b.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		b.Run(fmt.Sprintf("planted/n=100k/k=4/w=1/warm=%v", warm), func(b *testing.B) {
			var st core.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st = sc.MSSWith(core.Engine{Workers: 1, WarmStart: warm})
			}
			b.ReportMetric(float64(st.Evaluated), "substrings-evaluated")
		})
	}
}

// BenchmarkParallelTopT shards the Problem 2 scan (shared heap + atomic
// budget mirror).
func BenchmarkParallelTopT(b *testing.B) {
	sc := benchScanner(b, 50_000, 4)
	for _, w := range parallelWorkerGrid {
		b.Run(fmt.Sprintf("n=50k/k=4/t=100/w=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sc.TopTWith(core.Engine{Workers: w}, 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelThreshold shards the Problem 3 scan (constant budget, no
// shared state at all).
func BenchmarkParallelThreshold(b *testing.B) {
	sc := benchScanner(b, 50_000, 4)
	mss, _ := sc.MSS()
	alpha := mss.X2 * 0.9
	for _, w := range parallelWorkerGrid {
		b.Run(fmt.Sprintf("n=50k/k=4/w=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.ThresholdWith(core.Engine{Workers: w}, alpha, func(core.Scored) {})
			}
		})
	}
}
