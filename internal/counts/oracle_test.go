package counts

import (
	"math/rand"
	"slices"
	"testing"
)

// refBlockImage is the block build NewCheckpointed ran before it wrote
// packed groups, kept as the reference image: every count in an unpacked
// delta vector, every group written one nibble at a time.
func refBlockImage(s []byte, k, interval int) []uint32 {
	deltaWords := (interval*k*4 + 31) / 32
	stride := k + deltaWords
	n := len(s)
	nb := n/interval + 1
	blocks := make([]uint32, nb*stride+1)
	cum := make([]uint32, k)
	delta := make([]uint32, k)
	for bi := 0; bi < nb; bi++ {
		base := bi * stride
		copy(blocks[base:base+k], cum)
		lo := bi * interval
		hi := lo + interval
		if hi > n {
			hi = n
		}
		clear(delta)
		for off := 0; off < interval; off++ {
			if off > 0 {
				bit := off * k * 4
				for c := 0; c < k; c++ {
					blocks[base+k+bit>>5] |= delta[c] << (bit & 31)
					bit += 4
				}
			}
			if lo+off < hi {
				delta[s[lo+off]]++
			}
		}
		for c := 0; c < k; c++ {
			cum[c] += delta[c]
		}
	}
	return blocks
}

// runString builds a string over k symbols around the runs a packed block
// build can get wrong: 16 of the highest symbol from position 0 (one whole
// block at every interval, and a nibble that would carry out of the group),
// 20 of symbol 0 from position 21 (not block-aligned), and 32 of a middle
// symbol from position 48 (block-aligned, two blocks of 16), with random
// symbols between and after. Its 117 symbols leave a partial final block at
// every interval.
func runString(rng *rand.Rand, k int) []byte {
	s := make([]byte, 0, 117)
	random := func(n int) {
		for range n {
			s = append(s, byte(rng.Intn(k)))
		}
	}
	run := func(sym byte, n int) {
		for range n {
			s = append(s, sym)
		}
	}
	run(byte(k-1), 16)
	random(5)
	run(0, 20)
	random(7)
	run(byte(k/2), 32)
	random(37)
	return s
}

// TestBlockImageOracle checks the checkpointed index without an index: on
// every prefix of a string with long runs, for k = 2..16, 17 and 64 at
// intervals 4, 8 and 16, the block image of both the batch build and an
// appender fed one symbol at a time equals refBlockImage word for word, and
// both indexes — the contiguous build and the appender's snapshot, whose
// tail block is a private copy whenever the prefix ends mid-block — answer
// CumAt at every position, and Vector(i, j) for every j and a seeded sample
// of i ≤ j, equal to a direct count.
func TestBlockImageOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	pick := rand.New(rand.NewSource(26))
	ks := []int{17, 64}
	for k := 2; k <= 16; k++ {
		ks = append(ks, k)
	}
	for _, k := range ks {
		s := runString(rng, k)
		// direct[pos] is the count vector of s[:pos], one symbol at a time.
		direct := make([][]int, len(s)+1)
		direct[0] = make([]int, k)
		for pos, sym := range s {
			direct[pos+1] = slices.Clone(direct[pos])
			direct[pos+1][sym]++
		}
		for _, interval := range []int{4, 8, 16} {
			a, err := NewAppender(k, interval)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int, k)
			for n := 0; n <= len(s); n++ {
				if n > 0 {
					if err := a.Append(s[n-1 : n]); err != nil {
						t.Fatal(err)
					}
				}
				cp, err := NewCheckpointed(s[:n], k, interval)
				if err != nil {
					t.Fatal(err)
				}
				snap := a.Snapshot()
				want := refBlockImage(s[:n], k, interval)
				for name, words := range map[string][]uint32{"Words": cp.Words(), "appender image": snap.ContiguousWords()} {
					if len(words) != len(want) {
						t.Fatalf("k=%d B=%d n=%d: %s has %d words, want %d", k, interval, n, name, len(words), len(want))
					}
					for i := range words {
						if words[i] != want[i] {
							t.Fatalf("k=%d B=%d n=%d: %s word %d is %#x, want %#x", k, interval, n, name, i, words[i], want[i])
						}
					}
				}
				for _, idx := range []struct {
					name string
					cp   *Checkpointed
				}{{"contiguous", cp}, {"appender snapshot", snap}} {
					for j := 0; j <= n; j++ {
						idx.cp.CumAt(j, got)
						if !slices.Equal(got, direct[j]) {
							t.Fatalf("k=%d B=%d n=%d %s: CumAt(%d) = %v, want %v", k, interval, n, idx.name, j, got, direct[j])
						}
						for range 4 {
							i := pick.Intn(j + 1)
							idx.cp.Vector(i, j, got)
							for c := range got {
								if w := direct[j][c] - direct[i][c]; got[c] != w {
									t.Fatalf("k=%d B=%d n=%d %s: Vector(%d, %d)[%d] = %d, want %d", k, interval, n, idx.name, i, j, c, got[c], w)
								}
							}
						}
					}
				}
			}
		}
	}
}
