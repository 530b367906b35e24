package experiments

import (
	"math"

	"repro/internal/chisq"
	"repro/internal/core"
)

// Ablation1 measures the cost of exactness in the skip rule: the exact
// floor + min-over-characters skip of this repository versus the
// paper-literal ceiling + single-character variant (see
// internal/core.SkipVariant). Columns report, per string length, the
// iterations of each variant, how often the paper-literal variant misses
// the true MSS, and its worst value ratio.
func Ablation1(cfg Config) *Table {
	t := &Table{
		ID:    "ablation1",
		Title: "Exact skip (floor, min-over-chars) vs paper-literal skip (ceil, single char)",
		Columns: []string{
			"n", "iter(exact)", "iter(paper)", "misses/20", "worst X² ratio",
		},
	}
	rng := cfg.rng(71)
	paper := core.SkipVariant{SingleChar: true, RoundUp: true}
	for _, baseN := range []int{1000, 4000, 16000} {
		n := cfg.scaledN(baseN, 100)
		var iterExact, iterPaper int64
		misses := 0
		worst := 1.0
		const reps = 20
		for r := 0; r < reps; r++ {
			s, m := nullString(n, 2, rng)
			sc := mustScanner(s, m)
			exact, stE := sc.MSSWithVariant(core.SkipVariant{})
			got, stP := sc.MSSWithVariant(paper)
			iterExact += stE.Evaluated
			iterPaper += stP.Evaluated
			if math.Abs(got.X2-exact.X2) > 1e-7*math.Max(1, exact.X2) {
				misses++
				if ratio := got.X2 / exact.X2; ratio < worst {
					worst = ratio
				}
			}
		}
		t.AddRow(fmtI(int64(n)), fmtI(iterExact/reps), fmtI(iterPaper/reps),
			fmtI(int64(misses)), fmtF4(worst))
	}
	t.AddNote("paper-literal rounding saves almost no iterations but misses the exact MSS regularly")
	return t
}

// Ablation2 compares Pearson's X² with the likelihood-ratio statistic
// −2·ln(LR) (paper Eq. 3) on null windows: both converge to χ²(k−1), X²
// from below and LR from above (paper §1) — the reason the paper adopts
// X². The table reports the mean of each statistic over null windows of
// growing length against the χ²(k−1) mean k−1.
func Ablation2(cfg Config) *Table {
	t := &Table{
		ID:      "ablation2",
		Title:   "Pearson X² vs likelihood ratio −2lnLR on null windows (k=3)",
		Columns: []string{"window len", "mean X²", "mean −2lnLR", "χ²(k−1) mean"},
	}
	rng := cfg.rng(73)
	k := 3
	probs := []float64{0.2, 0.3, 0.5}
	for _, l := range []int{10, 30, 100, 300, 1000} {
		const draws = 800
		var sumX2, sumLR float64
		yv := make([]int, k)
		for d := 0; d < draws; d++ {
			for i := range yv {
				yv[i] = 0
			}
			for i := 0; i < l; i++ {
				u := rng.Float64()
				acc := 0.0
				for c, p := range probs {
					acc += p
					if u < acc {
						yv[c]++
						break
					}
				}
			}
			sumX2 += chisq.Value(yv, probs)
			sumLR += chisq.LikelihoodRatio(yv, probs)
		}
		t.AddRow(fmtI(int64(l)), fmtF4(sumX2/draws), fmtF4(sumLR/draws), fmtF4(float64(k-1)))
	}
	t.AddNote("X² approaches k−1 from below, −2lnLR from above (paper §1) — X² gives fewer type-I errors")
	return t
}
