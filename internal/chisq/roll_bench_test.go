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
	}
}

// BenchmarkRowScan measures the chain-cover step on full rows: Scan from
// the one-symbol window at each of 8 starts spread over a 10⁵-symbol string
// to the string's end, at a threshold-style budget (b = skipAt = 20 + 2k),
// re-syncing with Exact at every stop as the engine's passes do. The text
// is drawn from the model itself, so the rows take null-model skips. One op
// is the 8 rows; its bytes are the symbols they span. The /pair rows scan
// the same 8 rows two at a time through ScanPair (scanTwoRows), which runs
// a skewed model's rows one lane at a time.
func BenchmarkRowScan(b *testing.B) {
	const n = 100_000
	const rows = 8
	for _, model := range []string{"uniform", "skewed"} {
		for _, k := range []int{2, 4, 8, 16} {
			probs := make([]float64, k)
			for c := range probs {
				probs[c] = 1 / float64(k)
				if model == "skewed" {
					probs[c] = float64(2*(c+1)) / float64(k*(k+1)) // p_c ∝ c+1
				}
			}
			rng := rand.New(rand.NewSource(1))
			s := make([]byte, n)
			for i := range s {
				u := rng.Float64()
				c := 0
				for ; c < k-1 && u >= probs[c]; c++ {
					u -= probs[c]
				}
				s[i] = byte(c)
			}
			kern := NewKernel(probs)
			cp, err := counts.NewCheckpointed(s, k, 0)
			if err != nil {
				b.Fatal(err)
			}
			budget := float64(20 + 2*k)
			span := 0
			for r := 0; r < rows; r++ {
				span += n - r*n/rows
			}
			b.Run(fmt.Sprintf("%s/k=%d", model, k), func(b *testing.B) {
				cur := NewRoll(kern, cp, s)
				b.ReportAllocs()
				b.SetBytes(int64(span))
				for b.Loop() {
					for r := 0; r < rows; r++ {
						i := r * n / rows
						cur.Begin(i, i+1)
						for {
							if _, _, found := cur.Scan(budget, budget, n); !found {
								break
							}
							cur.Exact()
						}
					}
				}
			})
			b.Run(fmt.Sprintf("%s/k=%d/pair", model, k), func(b *testing.B) {
				x, y := NewRoll(kern, cp, s), NewRoll(kern, cp, s)
				b.ReportAllocs()
				b.SetBytes(int64(span))
				for b.Loop() {
					for r := 0; r < rows; r += 2 {
						scanTwoRows(x, y, r*n/rows, (r+1)*n/rows, budget, n)
					}
				}
			})
		}
	}
}

// scanTwoRows runs the rows starting at i and i2 from their one-symbol
// windows to hi at budget b through ScanPair, re-syncing with Exact at
// every stop, and finishes the row that outlasts the other with Scan.
func scanTwoRows(x, y *Roll, i, i2 int, b float64, hi int) {
	x.Begin(i, i+1)
	y.Begin(i2, i2+1)
	for {
		_, _, _, _, lane, found := ScanPair(x, y, b, b, b, b, hi)
		if lane == 1 {
			x, y = y, x // the stopped lane goes first: ScanPair's y holds no window
		}
		if !found {
			break
		}
		x.Exact()
	}
	for {
		if _, _, found := y.Scan(b, b, hi); !found {
			return
		}
		y.Exact()
	}
}
