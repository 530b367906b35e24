package counts

import (
	"math/rand"
	"strconv"
	"testing"
)

// BenchmarkReconstructKernel measures the raw nibble-reconstruct kernels —
// the inner step of the index's own probes (CumAt, Vector) — per tier and
// alphabet size. The CI bench gate watches these.
func BenchmarkReconstructKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range []int{4, 8, 16} {
		row := make([]uint32, k)
		base := make([]int32, k)
		vec := make([]int, k)
		for c := range row {
			row[c] = uint32(rng.Intn(1 << 20))
			base[c] = int32(rng.Intn(1 << 10))
		}
		group := rng.Uint64()
		if k < 16 {
			group &= 1<<(4*uint(k)) - 1
		}
		for _, tier := range []Tier{TierScalar, TierAVX2} {
			if !TierSupported(tier) {
				continue
			}
			kr, err := KernelFor(tier)
			if err != nil {
				b.Fatal(err)
			}
			kf, ok := kr.Funcs(k)
			if !ok {
				b.Fatalf("k=%d not lane-eligible", k)
			}
			b.Run(tier.String()+"/k="+strconv.Itoa(k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kf.Reconstruct(row, group, base, vec)
				}
			})
		}
	}
}
