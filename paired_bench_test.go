package sigsub

// Paired kernel measurement on a noisy host: benchmarking the reconstruct
// kernel tiers in separate runs lets noisy-neighbor drift land on one side
// only, so this harness alternates single full scans of one checkpointed
// scanner per tier within one process and compares minima — every tier sees
// the same machine. BENCH_10.json records a run.
//
// Run with:
//
//	MSS_PAIRED_BENCH=1 go test -run TestPairedKernelPenalty -v .

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/counts"
	"repro/internal/strgen"
)

// TestPairedKernelPenalty sweeps the supported reconstruct kernel tiers
// (scalar, and AVX2 where the build and CPU have it) over k ∈ {2, 4, 8, 16}
// × {uniform, geometric} models: per round it scans one checkpointed
// scanner per tier, all inside one process, and reports each tier's minimum
// plus its delta against scalar.
func TestPairedKernelPenalty(t *testing.T) {
	if os.Getenv("MSS_PAIRED_BENCH") == "" {
		t.Skip("set MSS_PAIRED_BENCH=1 to run the paired kernel measurement")
	}
	const n = 100_000
	const rounds = 8
	tiers := []counts.Tier{counts.TierScalar}
	if counts.TierSupported(counts.TierAVX2) {
		tiers = append(tiers, counts.TierAVX2)
	}
	for _, k := range []int{2, 4, 8, 16} {
		gens := []*strgen.Multinomial{strgen.MustNull(k)}
		if g, err := strgen.NewGeometric(k); err == nil {
			gens = append(gens, g)
		}
		for _, g := range gens {
			rng := rand.New(rand.NewSource(1))
			s := g.Generate(n, rng)
			scs := make([]*core.Scanner, len(tiers))
			for ti, tier := range tiers {
				scs[ti] = pinnedCoreScanner(t, s, g.Model(), tier)
			}
			scan := func(sc *core.Scanner) time.Duration {
				start := time.Now()
				sc.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindMSS, Hi: sc.Len()})
				return time.Since(start)
			}
			// Warm every path (page-in, branch predictors) before timing.
			for _, sc := range scs {
				scan(sc)
			}
			mins := make([]time.Duration, len(tiers))
			for ti := range mins {
				mins[ti] = 1 << 62
			}
			for r := 0; r < rounds; r++ {
				for ti, sc := range scs {
					if d := scan(sc); d < mins[ti] {
						mins[ti] = d
					}
				}
			}
			for ti, tier := range tiers {
				fmt.Printf("paired/n=100k/k=%d/%s/%v checkpointed=%.1fms vs-scalar=%+.1f%%\n",
					k, g.Name(), tier, float64(mins[ti].Microseconds())/1000,
					100*(float64(mins[ti])/float64(mins[0])-1))
			}
		}
	}
}
