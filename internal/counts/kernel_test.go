package counts

import (
	"math/rand"
	"testing"
)

// TestKernelTiersAgree drives the AVX2 reconstruct kernels with random rows,
// groups, and bases over all group-eligible alphabets and asserts
// bit-identical vectors against the scalar reference.
func TestKernelTiersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tiers := []Tier{TierAVX2}
	for _, k := range []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16} {
		if !GroupFits(k) {
			t.Fatalf("k=%d should be group-eligible", k)
		}
		ref, ok := scalarKernel.Funcs(k)
		if !ok {
			t.Fatalf("k=%d: scalar kernel missing", k)
		}
		for trial := 0; trial < 2000; trial++ {
			row := make([]uint32, k)
			base := make([]int32, k)
			var group uint64
			for c := 0; c < k; c++ {
				nib := uint64(rng.Intn(16))
				group |= nib << (4 * c)
				// Window counts must be nonnegative and cumulative counts
				// bounded by 2^31-1: pick base <= row+nib, with occasional
				// extreme magnitudes to probe lane-overflow hazards.
				max := uint32(1 << 20)
				if trial%7 == 0 {
					max = 1<<31 - 20
				}
				row[c] = uint32(rng.Intn(int(max)))
				base[c] = int32(rng.Intn(int(row[c]) + int(nib) + 1))
			}
			if k <= 15 {
				// Garbage above the 4k live bits must be ignored.
				group |= uint64(rng.Uint32()) << (4 * k)
			}
			want := make([]int, k)
			ref.Reconstruct(row, group, base, want)
			for _, tier := range tiers {
				if !TierSupported(tier) {
					continue
				}
				kr, err := KernelFor(tier)
				if err != nil {
					t.Fatal(err)
				}
				fns, ok := kr.Funcs(k)
				if !ok {
					t.Fatalf("k=%d: %s kernel missing", k, tier)
				}
				got := make([]int, k)
				fns.Reconstruct(row, group, base, got)
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("k=%d %s trial=%d lane %d: got %d want %d (row=%v group=%#x base=%v)",
							k, tier, trial, c, got[c], want[c], row, group, base)
					}
				}
			}
		}
	}
}

func TestTierSupport(t *testing.T) {
	if TierScalar.String() != "scalar" || TierAVX2.String() != "avx2" {
		t.Fatalf("tier names: %v, %v", TierScalar, TierAVX2)
	}
	if !TierSupported(TierScalar) {
		t.Fatal("the scalar tier must always be supported")
	}
	if TierSupported(Tier(7)) {
		t.Fatal("an unknown tier must not be supported")
	}
	if _, err := KernelFor(Tier(7)); err == nil {
		t.Fatal("KernelFor of an unknown tier: expected error")
	}
	best := BestTier()
	if !TierSupported(best) || best != TierScalar && best != TierAVX2 {
		t.Fatalf("best tier %v not supported", best)
	}
	if TierSupported(TierAVX2) != (best == TierAVX2) {
		t.Fatalf("best tier %v, avx2 supported %v", best, TierSupported(TierAVX2))
	}
	if Active() == nil || Active().Tier() != ActiveTier() {
		t.Fatal("active kernel inconsistent")
	}
	t.Logf("best tier: %v, active: %v", best, ActiveTier())
}
