package sigsub

import (
	"math/rand"
	"testing"
)

// benchBatchFixture builds the benchmark corpus once: n symbols over k=4
// under the uniform model, with a subtle planted anomaly (symbol 0 at ~65%
// across n/100 positions) so every query has real work without drowning the
// measurement in result materialization.
func benchBatchFixture(b *testing.B, n int) ([]byte, *Model, *Scanner) {
	b.Helper()
	rng := rand.New(rand.NewSource(1234))
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	for i := n / 3; i < n/3+n/100; i++ {
		if rng.Float64() < 0.53 {
			s[i] = 0
		}
	}
	m, err := UniformModel(4)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := NewScanner(s, m)
	if err != nil {
		b.Fatal(err)
	}
	return s, m, sc
}

// benchBatchQueries is the mixed workload of the BENCH_2 experiment: the
// query shapes a monitoring deployment issues against one corpus — the
// headline anomaly, a length-floored variant, two top-t depths, and three
// significance levels. The planner merges the two top-t queries into one
// scan at t=50 and the three thresholds into one scan at α=60.
func benchBatchQueries() []Query {
	return []Query{
		MSSQuery(),
		MSSQuery().WithMinLength(101),
		TopTQuery(10),
		TopTQuery(50),
		ThresholdQuery(60),
		ThresholdQuery(90),
		ThresholdQuery(120),
	}
}

// BenchmarkBatchVsSequential quantifies the multi-query executor: the same
// seven mixed queries answered by one RunBatch (batch: four scans once the
// planner merges the top-t pair and the threshold triple), by seven
// independent Run calls over one prebuilt Scanner (sequential), and by seven
// one-shot calls that each rebuild the O(nk) prefix counts (cold — the
// pre-daemon workflow). README's "Batch execution" records the measured
// ratios.
func BenchmarkBatchVsSequential(b *testing.B) {
	const n = 20000
	s, m, sc := benchBatchFixture(b, n)
	qs := benchBatchQueries()

	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := sc.RunBatch(qs)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != len(qs) {
				b.Fatal("short batch")
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := sc.Run(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				cold, err := NewScanner(s, m)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cold.Run(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch-workers8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sc.RunBatch(qs, WithWorkers(8)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
