package service

import (
	"math/rand"
	"testing"
)

// BenchmarkBuildCorpus measures the upload path every PUT and every
// inline-text query takes: alphabet discovery, encoding, the checkpointed
// index build and the scanner around it, over 10⁶ uniform ACGT characters.
func BenchmarkBuildCorpus(b *testing.B) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = "ACGT"[rng.Intn(4)]
	}
	text := string(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCorpus("bench", text, ModelSpec{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/sym")
}
