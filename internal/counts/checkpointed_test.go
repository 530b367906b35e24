package counts

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCheckpointedValidates(t *testing.T) {
	if _, err := NewCheckpointed([]byte{0, 1, 5}, 3, 4); err == nil {
		t.Error("NewCheckpointed with out-of-range symbol: expected error")
	}
	if _, err := NewCheckpointed(nil, 1, 4); err == nil {
		t.Error("NewCheckpointed with k=1: expected error")
	}
}

func TestCheckpointedEmptyString(t *testing.T) {
	p, err := NewCheckpointed(nil, 2, 0)
	if err != nil {
		t.Fatalf("NewCheckpointed(empty): %v", err)
	}
	if p.Len() != 0 || p.K() != 2 || p.Interval() != DefaultInterval {
		t.Errorf("Len = %d, K = %d, Interval = %d", p.Len(), p.K(), p.Interval())
	}
	tot := p.Vector(0, 0, make([]int, 2))
	if tot[0] != 0 || tot[1] != 0 {
		t.Errorf("Vector(0, 0) = %v", tot)
	}
}

// Property: Checkpointed agrees with the paper's Prefix arrays on every
// Vector and CumAt query, for every checkpoint interval.
func TestCheckpointedMatchesPrefix(t *testing.T) {
	f := func(raw []byte, kRaw, bRaw, iRaw, jRaw uint16) bool {
		k := int(kRaw%9) + 2
		b := int(bRaw%40) + 1
		s := make([]byte, len(raw))
		for i, v := range raw {
			s[i] = v % byte(k)
		}
		ref, err := New(s, k)
		if err != nil {
			return false
		}
		cp, err := NewCheckpointed(s, k, b)
		if err != nil {
			return false
		}
		n := len(s)
		i := int(iRaw) % (n + 1)
		j := int(jRaw) % (n + 1)
		if i > j {
			i, j = j, i
		}
		a := ref.Vector(i, j, make([]int, k))
		g := cp.Vector(i, j, make([]int, k))
		for c := 0; c < k; c++ {
			if a[c] != g[c] {
				return false
			}
		}
		ca, cg := make([]int, k), make([]int, k)
		ref.CumAt(j, ca)
		cp.CumAt(j, cg)
		for c := 0; c < k; c++ {
			if ca[c] != cg[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 750}); err != nil {
		t.Error(err)
	}
}

// The memory claim the daemon's byte-budgeted cache relies on: at the
// default interval the checkpointed index is at least 4x smaller than the
// dense prefix layout for every alphabet size, even counting the text it
// references.
func TestCheckpointedBytesReduction(t *testing.T) {
	for _, k := range []int{2, 4, 8, 16} {
		s := randomString(100_000, k, 7)
		ref, err := New(s, k)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := NewCheckpointed(s, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(ref.Bytes()) / float64(cp.Bytes())
		if ratio < 4 {
			t.Errorf("k=%d: prefix %d bytes / checkpointed %d bytes = %.2fx, want >= 4x", k, ref.Bytes(), cp.Bytes(), ratio)
		}
	}
}

func BenchmarkPrefixLayoutCheckpointed(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(benchName(k), func(b *testing.B) {
			s := randomString(100_000, k, 1)
			p, err := NewCheckpointed(s, k, 0)
			if err != nil {
				b.Fatal(err)
			}
			layoutScan(b, p.Vector, len(s), k)
		})
	}
}

// BenchmarkCumAt measures the probe the rolling scan engine actually issues
// at chain-cover skip landings: one cumulative row read per landing.
func BenchmarkCumAt(b *testing.B) {
	const n = 100_000
	for _, k := range []int{4, 8} {
		s := randomString(n, k, 1)
		cp, err := NewCheckpointed(s, k, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("checkpointed/"+benchName(k), func(b *testing.B) {
			dst := make([]int, k)
			rng := rand.New(rand.NewSource(2))
			pos := make([]int, 1024)
			for i := range pos {
				pos[i] = rng.Intn(n + 1)
			}
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				cp.CumAt(pos[i%len(pos)], dst)
				sink += dst[0]
			}
			if sink == -1 {
				b.Fatal("impossible")
			}
		})
	}
}

// randomString builds a length-n string over k symbols for the benchmarks.
func randomString(n, k int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(k))
	}
	return s
}

// layoutScan replays an MSS-shaped access pattern — for each start i,
// Vector calls sweep j forward with growing strides — so it measures the
// memory behaviour the scan engine sees, not a synthetic uniform-random
// probe.
func layoutScan(b *testing.B, vector func(i, j int, dst []int) []int, n, k int) {
	b.Helper()
	dst := make([]int, k)
	sink := 0
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := 0; i < n; i += 101 {
			step := 1
			for j := i + 1; j <= n; j += step {
				v := vector(i, j, dst)
				sink += v[0]
				step += 3 // mimic chain-cover skips growing with length
			}
		}
	}
	if sink == -1 {
		b.Fatal("impossible")
	}
}

func benchName(k int) string {
	return "k=" + string(rune('0'+k))
}
