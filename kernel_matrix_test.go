package sigsub

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/counts"
)

// matrixTiers returns every kernel tier executable on this host, scalar
// first (the golden reference).
func matrixTiers() []counts.Tier {
	tiers := []counts.Tier{counts.TierScalar}
	if counts.TierSupported(counts.TierAVX2) {
		tiers = append(tiers, counts.TierAVX2)
	}
	return tiers
}

// pinnedCoreScanner builds a scanner whose count index — and so every scan
// over it — runs the given reconstruct-kernel tier: the index is built,
// pinned with SetKernel, and only then handed to the scanner.
func pinnedCoreScanner(t testing.TB, s []byte, m *alphabet.Model, tier counts.Tier) *core.Scanner {
	t.Helper()
	cp, err := counts.NewCheckpointed(s, m.K(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.SetKernel(tier); err != nil {
		t.Fatal(err)
	}
	sc, err := core.NewScannerFromIndex(s, m, cp)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// pinnedScanner is pinnedCoreScanner behind the public Scanner.
func pinnedScanner(t testing.TB, s []byte, m *Model, tier counts.Tier) *Scanner {
	t.Helper()
	return &Scanner{sc: pinnedCoreScanner(t, s, m.m, tier), k: m.K()}
}

// matrixAnswers runs the Problems 1–4 query suite plus composed range and
// min-length queries, with thresholds anchored to the scan's own maximum X²
// so random inputs of any skew produce bounded (but non-empty) result sets.
func matrixAnswers(t *testing.T, sc *Scanner, maxX2 float64) [][]Result {
	t.Helper()
	n := sc.Len()
	qs := []Query{
		MSSQuery(),                                    // Problem 1
		TopTQuery(10),                                 // Problem 2
		ThresholdQuery(maxX2 * 0.8),                   // Problem 3
		MSSQuery().WithMinLength(20),                  // Problem 4
		TopTQuery(5).WithRange(n/20, n-n/20),          // composed range query
		ThresholdQuery(maxX2 * 0.6).WithMinLength(15), // composed threshold
	}
	out := make([][]Result, len(qs))
	for i, q := range qs {
		qr, err := sc.Run(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if qr.Err != nil {
			t.Fatalf("query %d: %v", i, qr.Err)
		}
		out[i] = qr.Results
	}
	return out
}

func matrixModel(t *testing.T, k int, skewed bool) *Model {
	t.Helper()
	if !skewed {
		m, err := UniformModel(k)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	probs := make([]float64, k)
	rest := 1.0
	for c := 0; c < k-1; c++ {
		probs[c] = rest / 3
		rest -= probs[c]
	}
	probs[k-1] = rest
	m, err := NewModel(probs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestKernelMatrixGolden pins the bit-identity contract across kernel
// tiers: the Problems 1–4 query suite (plus composed range and min-length
// queries) returns byte-for-byte identical results whichever reconstruct
// kernel a scanner is pinned to, sequential and with 8 workers, on uniform
// and skewed models over the alphabets the AVX2 kernels specialize (8, 16),
// one they leave to the scalar kernel (4), and one that only the per-nibble
// scalar path serves (k = 11).
func TestKernelMatrixGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, k := range []int{4, 8, 11, 16} {
		for _, skewed := range []bool{false, true} {
			if skewed && k != 4 && k != 8 {
				continue
			}
			m := matrixModel(t, k, skewed)
			s := make([]byte, 2000)
			for i := range s {
				s[i] = byte(rng.Intn(k))
			}
			ref := pinnedScanner(t, s, m, counts.TierScalar)
			if got := ref.Kernel(); got != KernelScalar {
				t.Fatalf("pinned scalar scanner reports kernel %v", got)
			}
			refMSS, err := ref.MSS()
			if err != nil {
				t.Fatal(err)
			}
			want := matrixAnswers(t, ref, refMSS.X2)
			for _, tier := range matrixTiers()[1:] {
				sc := pinnedScanner(t, s, m, tier)
				if got := matrixAnswers(t, sc, refMSS.X2); !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d skewed=%v: %v results differ from scalar", k, skewed, tier)
				}
				for _, workers := range []int{1, 8} {
					wantMSS, err := ref.MSS(WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					gotMSS, err := sc.MSS(WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					if gotMSS != wantMSS {
						t.Fatalf("k=%d skewed=%v %v w=%d: MSS %+v want %+v", k, skewed, tier, workers, gotMSS, wantMSS)
					}
				}
			}
		}
	}
}

// TestKernelMatrixLiveEpochs sweeps the kernel tiers over a live corpus at
// EVERY append epoch: one corpus per tier receives identical batches (cut
// so most epochs end mid-block, making the published views serve probes
// from relocated tail copies), and each epoch's view must answer the query
// suite bit-identically to a scalar-pinned scanner over the same prefix.
func TestKernelMatrixLiveEpochs(t *testing.T) {
	defer restoreActiveTier(t)()
	rng := rand.New(rand.NewSource(99))
	for _, k := range []int{4, 8} {
		m := matrixModel(t, k, k == 8)
		s := make([]byte, 600)
		for i := range s {
			s[i] = byte(rng.Intn(k))
		}
		tiers := matrixTiers()
		corpora := make(map[counts.Tier]*Corpus, len(tiers))
		for _, tier := range tiers {
			c, err := NewCorpus(m)
			if err != nil {
				t.Fatal(err)
			}
			corpora[tier] = c
		}
		for done := 0; done < len(s); {
			// Odd batch sizes keep most epoch boundaries off block
			// boundaries, so the views' tails are usually relocated.
			batch := 1 + rng.Intn(37)
			if done+batch > len(s) {
				batch = len(s) - done
			}
			prefix := s[:done+batch]
			for _, tier := range tiers {
				if err := corpora[tier].Append(s[done : done+batch]); err != nil {
					t.Fatal(err)
				}
			}
			done += batch
			ref := pinnedScanner(t, prefix, m, counts.TierScalar)
			wantMSS, err := ref.MSS()
			if err != nil {
				t.Fatal(err)
			}
			wantTop, err := runResults(ref, TopTQuery(5))
			if err != nil {
				t.Fatal(err)
			}
			for _, tier := range tiers {
				// Each epoch's view resolves the active tier when it is
				// published, and keeps it.
				if err := counts.SetActiveTier(tier); err != nil {
					t.Fatal(err)
				}
				view := corpora[tier].View()
				if got := view.Kernel(); got != KernelTier(tier) {
					t.Fatalf("k=%d epoch n=%d: view published under %v runs %v", k, done, tier, got)
				}
				gotMSS, err := view.MSS()
				if err != nil {
					t.Fatal(err)
				}
				if gotMSS != wantMSS {
					t.Fatalf("k=%d epoch n=%d %v: MSS %+v want %+v", k, done, tier, gotMSS, wantMSS)
				}
				gotTop, err := runResults(view, TopTQuery(5))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotTop, wantTop) {
					t.Fatalf("k=%d epoch n=%d %v: TopT differs", k, done, tier)
				}
				gotPar, err := view.MSS(WithWorkers(8))
				if err != nil {
					t.Fatal(err)
				}
				if gotPar != wantMSS {
					t.Fatalf("k=%d epoch n=%d %v w=8: MSS %+v want %+v", k, done, tier, gotPar, wantMSS)
				}
			}
		}
	}
}

// restoreActiveTier records the process-wide kernel tier and returns the
// func that restores it.
func restoreActiveTier(t *testing.T) func() {
	orig := counts.ActiveTier()
	return func() {
		if err := counts.SetActiveTier(orig); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScannerTierFixedAtBuild: a scanner's reconstruct tier is the one its
// index resolved when it was built. Flipping the process-wide tier later
// changes neither what Kernel reports nor what the index's probes and the
// scanner's new cursors run — the scanner keeps one tier end to end.
func TestScannerTierFixedAtBuild(t *testing.T) {
	if !counts.TierSupported(counts.TierAVX2) {
		t.Skip("needs both the scalar and the AVX2 tier")
	}
	defer restoreActiveTier(t)()
	m, err := UniformModel(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	s := make([]byte, 3000)
	for i := range s {
		s[i] = byte(rng.Intn(8))
	}
	for _, built := range []counts.Tier{counts.TierScalar, counts.TierAVX2} {
		flipped := counts.TierScalar
		if built == counts.TierScalar {
			flipped = counts.TierAVX2
		}
		if err := counts.SetActiveTier(built); err != nil {
			t.Fatal(err)
		}
		sc, err := NewScanner(s, m)
		if err != nil {
			t.Fatal(err)
		}
		live, err := NewCorpus(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := live.Append(s); err != nil {
			t.Fatal(err)
		}
		view := live.View()
		want, err := sc.MSS(WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := counts.SetActiveTier(flipped); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*Scanner{"scanner": sc, "corpus view": view} {
			if tier := got.Kernel(); tier != KernelTier(built) {
				t.Fatalf("%s built under %v reports %v after the active tier flipped to %v", name, built, tier, flipped)
			}
			if tier := got.sc.Index().Kernel(); tier != built {
				t.Fatalf("%s built under %v: index probes run %v after the flip", name, built, tier)
			}
			res, err := got.MSS(WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			if res != want {
				t.Fatalf("%s built under %v: MSS %+v after the flip, want %+v", name, built, res, want)
			}
		}
	}
}
