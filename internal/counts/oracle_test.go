package counts

import (
	"math/rand"
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
// intervals 4, 8 and 16, CumAt at every position (on every supported
// kernel tier) equals a direct count, and the block image of both the batch
// build and an appender fed one symbol at a time equals refBlockImage word
// for word.
func TestBlockImageOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ks := []int{17, 64}
	for k := 2; k <= 16; k++ {
		ks = append(ks, k)
	}
	var tiers []Tier
	for _, tier := range []Tier{TierScalar, TierAVX2} {
		if TierSupported(tier) {
			tiers = append(tiers, tier)
		}
	}
	for _, k := range ks {
		s := runString(rng, k)
		for _, interval := range []int{4, 8, 16} {
			a, err := NewAppender(k, interval)
			if err != nil {
				t.Fatal(err)
			}
			got, direct := make([]int, k), make([]int, k)
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
				want := refBlockImage(s[:n], k, interval)
				for name, words := range map[string][]uint32{"Words": cp.Words(), "appender image": a.Snapshot().ContiguousWords()} {
					if len(words) != len(want) {
						t.Fatalf("k=%d B=%d n=%d: %s has %d words, want %d", k, interval, n, name, len(words), len(want))
					}
					for i := range words {
						if words[i] != want[i] {
							t.Fatalf("k=%d B=%d n=%d: %s word %d is %#x, want %#x", k, interval, n, name, i, words[i], want[i])
						}
					}
				}
				for _, tier := range tiers {
					if err := cp.SetKernel(tier); err != nil {
						t.Fatal(err)
					}
					clear(direct)
					for pos := 0; pos <= n; pos++ {
						if pos > 0 {
							direct[s[pos-1]]++
						}
						cp.CumAt(pos, got)
						for c := range got {
							if got[c] != direct[c] {
								t.Fatalf("k=%d B=%d n=%d tier=%v: CumAt(%d)[%d] = %d, want %d", k, interval, n, tier, pos, c, got[c], direct[c])
							}
						}
					}
				}
			}
		}
	}
}
