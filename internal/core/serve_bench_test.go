package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
)

// BenchmarkServeMix runs the daemon's serve request mix through both query
// entry points on one worker, over 10⁶ uniform k=4 symbols (a count index
// past L2). For each window length w ∈ {1000, 1414, 2000, 2828, 4000} the
// mix holds a batch of MSS + top-10 + a threshold (α = 19 + 9·log₁₀(w/1000),
// limit 500) on one w-symbol window, then a single MSS and a single top-5
// query on 2.5·w-symbol windows. One op is the whole mix; its bytes are the
// window symbols the queries scan, so MB/s reads as million symbols/s.
func BenchmarkServeMix(b *testing.B) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(1))
	m, err := alphabet.Uniform(4)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := NewScanner(randomString(rng, n, 4), m)
	if err != nil {
		b.Fatal(err)
	}
	var batches [][]Query
	var singles []Query
	symbols := 0
	for _, w := range []int{1000, 1414, 2000, 2828, 4000} {
		lo := rng.Intn(n - w + 1)
		batches = append(batches, []Query{
			{Kind: KindMSS, Lo: lo, Hi: lo + w},
			{Kind: KindTopT, T: 10, Lo: lo, Hi: lo + w},
			{Kind: KindThreshold, Alpha: 19 + 9*math.Log10(float64(w)/1000), Limit: 500, Lo: lo, Hi: lo + w},
		})
		symbols += w
		sw := w * 5 / 2
		for _, q := range []Query{{Kind: KindMSS}, {Kind: KindTopT, T: 5}} {
			q.Lo = rng.Intn(n - sw + 1)
			q.Hi = q.Lo + sw
			singles = append(singles, q)
			symbols += sw
		}
	}
	e := Engine{Workers: 1}
	b.ReportAllocs()
	b.SetBytes(int64(symbols))
	for b.Loop() {
		for _, qs := range batches {
			for _, r := range sc.RunBatch(e, qs) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		for _, q := range singles {
			if r := sc.RunQuery(e, q); r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}
