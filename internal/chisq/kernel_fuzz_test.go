package chisq

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/counts"
)

// supportedTiers returns every kernel tier executable on this host, scalar
// first (the reference).
func supportedTiers() []counts.Tier {
	tiers := []counts.Tier{counts.TierScalar}
	if counts.TierSupported(counts.TierAVX2) {
		tiers = append(tiers, counts.TierAVX2)
	}
	return tiers
}

// pinTier returns a copy of idx, sharing its storage, whose probes — and
// the cursors built over it — run on tier.
func pinTier(t *testing.T, idx *counts.Checkpointed, tier counts.Tier) *counts.Checkpointed {
	t.Helper()
	c := *idx
	if err := c.SetKernel(tier); err != nil {
		t.Fatal(err)
	}
	return &c
}

// FuzzReconstructKernels differentially fuzzes the reconstruct kernel tiers
// end to end: random text, alphabet size, checkpoint interval, and epoch
// boundary (including a relocated-tail epoch view snapshotted mid-append),
// driving one Scan cursor per tier — its row starts probe through the
// tier — through an identical schedule and asserting identical work, stops,
// counts and X², plus identical CumAt/Vector probes through the index's own
// dispatch.
func FuzzReconstructKernels(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(16), uint16(100), uint16(37))
	f.Add(int64(2), uint8(8), uint8(16), uint16(200), uint16(63))
	f.Add(int64(3), uint8(16), uint8(8), uint16(150), uint16(149))
	f.Add(int64(4), uint8(2), uint8(4), uint16(50), uint16(1))
	f.Add(int64(5), uint8(11), uint8(16), uint16(90), uint16(80))
	f.Fuzz(func(t *testing.T, seed int64, kRaw, intervalRaw uint8, nRaw, cutRaw uint16) {
		k := 2 + int(kRaw)%15              // 2..16
		interval := 4 << (intervalRaw % 3) // 4, 8, 16
		n := 1 + int(nRaw)%400
		rng := rand.New(rand.NewSource(seed))
		s := make([]byte, n)
		for i := range s {
			s[i] = byte(rng.Intn(k))
		}

		// Contiguous index over the whole string.
		cp, err := counts.NewCheckpointed(s, k, interval)
		if err != nil {
			t.Fatal(err)
		}
		checkIndexKernels(t, cp, s, k, rng)
		checkRollTiers(t, cp, s, k, rng)

		// Epoch view snapshotted mid-append: cut at an arbitrary boundary so
		// the view's final block is usually partial and relocated, then keep
		// appending so the probes below run against a frozen epoch whose
		// appender has already moved on.
		cut := 1 + int(cutRaw)%n
		ap, err := counts.NewAppender(k, interval)
		if err != nil {
			t.Fatal(err)
		}
		if err := ap.Append(s[:cut]); err != nil {
			t.Fatal(err)
		}
		epoch := ap.Snapshot()
		if err := ap.Append(s[cut:]); err != nil {
			t.Fatal(err)
		}
		view := s[:cut]
		checkIndexKernels(t, epoch, view, k, rng)
		checkRollTiers(t, epoch, view, k, rng)
	})
}

// checkIndexKernels probes CumAt and Vector through the index's own kernel
// dispatch under every supported tier and asserts identical results.
func checkIndexKernels(t *testing.T, cp *counts.Checkpointed, s []byte, k int, rng *rand.Rand) {
	t.Helper()
	n := len(s)
	positions := []int{0, n / 2, n} // always include the (possibly relocated) tail probe at n
	for range 6 {
		positions = append(positions, rng.Intn(n+1))
	}
	want := make([]int, k)
	got := make([]int, k)
	wantV := make([]int, k)
	gotV := make([]int, k)
	for _, pos := range positions {
		i := rng.Intn(pos + 1)
		if err := cp.SetKernel(counts.TierScalar); err != nil {
			t.Fatal(err)
		}
		cp.CumAt(pos, want)
		if i < pos {
			cp.Vector(i, pos, wantV)
		}
		for _, tier := range supportedTiers()[1:] {
			if err := cp.SetKernel(tier); err != nil {
				t.Fatal(err)
			}
			cp.CumAt(pos, got)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("CumAt(%d) tier %v lane %d: got %d want %d (k=%d n=%d)", pos, tier, c, got[c], want[c], k, n)
				}
			}
			if i < pos {
				cp.Vector(i, pos, gotV)
				for c := range wantV {
					if gotV[c] != wantV[c] {
						t.Fatalf("Vector(%d,%d) tier %v lane %d: got %d want %d", i, pos, tier, c, gotV[c], wantV[c])
					}
				}
			}
		}
	}
	if err := cp.SetKernel(counts.TierScalar); err != nil {
		t.Fatal(err)
	}
}

// checkRollTiers drives one Scan cursor per supported tier — uniform and
// skewed models — through identical rows and budgets (short first windows
// that roll, long ones that land, rows ending at n so relocated tails get
// probed), asserting identical evaluated/skipped counts, identical stops,
// and at each stop identical counts and bit-identical X² and Exact.
func checkRollTiers(t *testing.T, idx *counts.Checkpointed, s []byte, k int, rng *rand.Rand) {
	t.Helper()
	n := len(s)
	probs := make([]float64, k)
	for c := range probs {
		probs[c] = 1 / float64(k)
	}
	uniform := NewKernel(probs)
	for c := range probs {
		probs[c] = 0.1 + rng.Float64()
	}
	var tot float64
	for _, p := range probs {
		tot += p
	}
	for c := range probs {
		probs[c] /= tot
	}
	skewed := NewKernel(probs)

	for _, kern := range []*Kernel{uniform, skewed} {
		tiers := supportedTiers()
		rolls := make([]*Roll, len(tiers))
		for ti, tier := range tiers {
			rolls[ti] = NewRoll(kern, pinTier(t, idx, tier), s)
		}
		for range 4 {
			i := rng.Intn(n)
			j0 := i + 1 + rng.Intn(n-i)
			b := float64(rng.Intn(3 * k))
			skipAt := b * rng.Float64()
			for _, r := range rolls {
				r.Begin(i, j0)
			}
			for {
				ev, sk, found := rolls[0].Scan(b, skipAt, n)
				for ti, r := range rolls[1:] {
					gev, gsk, gfound := r.Scan(b, skipAt, n)
					if gev != ev || gsk != sk || gfound != found {
						t.Fatalf("tier %v row %d: Scan = (%d, %d, %v), scalar (%d, %d, %v)",
							tiers[ti+1], i, gev, gsk, gfound, ev, sk, found)
					}
				}
				if !found {
					break
				}
				compareRolls(t, tiers, rolls)
			}
		}
	}
}

func compareRolls(t *testing.T, tiers []counts.Tier, rolls []*Roll) {
	t.Helper()
	ref := rolls[0]
	refX2 := ref.X2()
	refExact := ref.Exact()
	for ti, r := range rolls[1:] {
		if r.End() != ref.End() {
			t.Fatalf("tier %v: stopped at [%d,%d), scalar at [%d,%d)", tiers[ti+1], r.Start(), r.End(), ref.Start(), ref.End())
		}
		for c, v := range ref.Counts() {
			if r.Counts()[c] != v {
				t.Fatalf("tier %v window [%d,%d) lane %d: count %d want %d",
					tiers[ti+1], r.Start(), r.End(), c, r.Counts()[c], v)
			}
		}
		if x := r.X2(); math.Float64bits(x) != math.Float64bits(refX2) {
			t.Fatalf("tier %v window [%d,%d): X2 %v want %v", tiers[ti+1], r.Start(), r.End(), x, refX2)
		}
		if ex := r.Exact(); math.Float64bits(ex) != math.Float64bits(refExact) {
			t.Fatalf("tier %v window [%d,%d): Exact %v want %v", tiers[ti+1], r.Start(), r.End(), ex, refExact)
		}
	}
}
