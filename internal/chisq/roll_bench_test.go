package chisq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/counts"
)

// benchWindows captures realistic (window, budget) pairs by replaying a
// small chain-cover MSS scan.
type benchWindow struct {
	vec    []int
	length int
	sum    float64
	budget float64
}

func collectBenchWindows(b *testing.B, k, n int) ([]benchWindow, *Kernel) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	probs := make([]float64, k)
	for i := range probs {
		probs[i] = 1 / float64(k)
	}
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(k))
	}
	pre, err := counts.New(s, k)
	if err != nil {
		b.Fatal(err)
	}
	kern := NewKernel(probs)
	var out []benchWindow
	vec := make([]int, k)
	best := -1.0
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j <= n; j++ {
			pre.Vector(i, j, vec)
			x2 := kern.Value(vec)
			if x2 > best {
				best = x2
			}
			if j == n {
				break
			}
			cp := make([]int, k)
			copy(cp, vec)
			out = append(out, benchWindow{cp, j - i, kern.SumYsqOverP(vec), best})
			if skip := kern.MaxSkip(vec, j-i, x2, best); skip > 0 {
				if j+skip > n {
					skip = n - j
				}
				j += skip
			}
		}
	}
	return out, kern
}

// BenchmarkMaxSkipKernel measures the chain-cover skip solver on a replay
// of real scan windows — the hottest computation of the exact engines.
func BenchmarkMaxSkipKernel(b *testing.B) {
	for _, k := range []int{4, 8} {
		samples, kern := collectBenchWindows(b, k, 8000)
		b.Run(fmt.Sprintf("sum/k=%d", k), func(b *testing.B) {
			sink, hint := 0, 0
			var sk int
			for i := 0; i < b.N; i++ {
				sm := samples[i%len(samples)]
				sk, hint = kern.MaxSkipSum(sm.vec, sm.length, sm.sum, sm.budget, hint)
				sink += sk
			}
			if sink == -1 {
				b.Fatal("impossible")
			}
		})
		b.Run(fmt.Sprintf("uniform/k=%d", k), func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				sm := samples[i%len(samples)]
				maxY := 0
				for _, y := range sm.vec {
					if y > maxY {
						maxY = y
					}
				}
				sink += kern.MaxSkipUniform(maxY, sm.length, sm.sum, sm.budget)
			}
			if sink == -1 {
				b.Fatal("impossible")
			}
		})
	}
}

// BenchmarkRollScan measures the landing path of the rolling cursor — the
// per-evaluation index probe plus sum rebuild — with a gang-of-3
// interleave. The engine's scan loop advanced three rows at once until it
// measured no faster than one row; the benchmark keeps its shape so its
// history stays comparable.
func BenchmarkRollScan(b *testing.B) {
	const n = 100_000
	const gang = 3
	for _, k := range []int{4, 8} {
		rng := rand.New(rand.NewSource(1))
		probs := make([]float64, k)
		for i := range probs {
			probs[i] = 1 / float64(k)
		}
		s := make([]byte, n)
		for i := range s {
			s[i] = byte(rng.Intn(k))
		}
		kern := NewKernel(probs)
		cp, err := counts.NewCheckpointed(s, k, 0)
		if err != nil {
			b.Fatal(err)
		}
		skips := make([]int, 4096)
		for i := range skips {
			skips[i] = 150 + rng.Intn(300)
		}
		b.Run(fmt.Sprintf("checkpointed/k=%d", k), func(b *testing.B) {
			var curs [gang]*Roll
			var pos [gang]int
			for i := range curs {
				curs[i] = NewRoll(kern, cp, s)
				curs[i].Begin(0, 1)
				pos[i] = 1
			}
			si := 0
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for ci := 0; ci < gang; ci++ {
					p := pos[ci] + skips[si&4095]
					si++
					if p >= n {
						curs[ci].Begin(0, 1)
						p = 1
					} else {
						curs[ci].Advance(p)
					}
					pos[ci] = p
				}
			}
		})
	}
}
