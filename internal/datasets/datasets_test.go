package datasets

import (
	"math"
	"testing"
	"time"

	"repro/internal/alphabet"
	"repro/internal/core"
)

func TestBaseballShape(t *testing.T) {
	b := NewBaseball(42)
	n := b.Series.Len()
	if n < 2000 || n > 2200 {
		t.Errorf("game count %d, want ~2080 (paper: over two thousand)", n)
	}
	rate := float64(b.Wins) / float64(n)
	if math.Abs(rate-0.5427) > 0.03 {
		t.Errorf("Yankees win rate %.4f, want ≈ 0.5427", rate)
	}
	if len(b.Dates) != n || len(b.Series.Labels) != n {
		t.Error("parallel arrays out of sync")
	}
	// Dates are nondecreasing.
	for i := 1; i < n; i++ {
		if b.Dates[i].Before(b.Dates[i-1]) {
			t.Fatalf("dates out of order at %d", i)
		}
	}
	if len(b.Eras) != 5 {
		t.Errorf("%d planted eras, want 5 (paper Table 3)", len(b.Eras))
	}
}

func TestBaseballDeterministic(t *testing.T) {
	a := NewBaseball(7)
	b := NewBaseball(7)
	for i := range a.Series.Symbols {
		if a.Series.Symbols[i] != b.Series.Symbols[i] {
			t.Fatal("same seed produced different logs")
		}
	}
	c := NewBaseball(8)
	same := true
	for i := range a.Series.Symbols {
		if a.Series.Symbols[i] != c.Series.Symbols[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical logs")
	}
}

func TestBaseballErasAreDeviant(t *testing.T) {
	b := NewBaseball(42)
	for _, e := range b.Eras {
		lo, hi := b.IndexRange(e.Start, e.End)
		if hi-lo < 10 {
			t.Errorf("era %q covers only %d games", e.Description, hi-lo)
			continue
		}
		rate := float64(b.Series.CountOnes(lo, hi)) / float64(hi-lo)
		// Sampling noise on short eras is large; assert the era deviates
		// from the base rate in the planted direction and is within a few
		// standard deviations of the planted probability.
		sd := math.Sqrt(e.WinProb * (1 - e.WinProb) / float64(hi-lo))
		if math.Abs(rate-e.WinProb) > 4*sd+0.02 {
			t.Errorf("era %q: win rate %.3f too far from planted %.3f (sd %.3f)", e.Description, rate, e.WinProb, sd)
		}
		if e.WinProb > baseballBaseWinProb && rate < baseballBaseWinProb {
			t.Errorf("era %q: rate %.3f below base despite planted dominance", e.Description, rate)
		}
		if e.WinProb < baseballBaseWinProb && rate > baseballBaseWinProb {
			t.Errorf("era %q: rate %.3f above base despite planted slump", e.Description, rate)
		}
	}
}

func TestBaseballIndexRangeEmpty(t *testing.T) {
	b := NewBaseball(42)
	lo, hi := b.IndexRange(date(1850, 1, 1), date(1860, 1, 1))
	if lo != 0 || hi != 0 {
		t.Errorf("out-of-range era gave [%d, %d)", lo, hi)
	}
}

// The dominant planted era (1924–33 Yankees run) must be the MSS of the
// win/loss string, mirroring the paper's Table 3 top row.
func TestBaseballMSSFindsDominantEra(t *testing.T) {
	b := NewBaseball(42)
	model, err := alphabet.MLE(b.Series.Symbols, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := core.NewScanner(b.Series.Symbols, model)
	if err != nil {
		t.Fatal(err)
	}
	mss := sc.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindMSS, Hi: sc.Len()}).Best()
	era := b.Eras[2] // 1924–33
	lo, hi := b.IndexRange(era.Start, era.End)
	// Generous overlap: the found window must be mostly inside the era.
	overlap := math.Min(float64(mss.End), float64(hi)) - math.Max(float64(mss.Start), float64(lo))
	if overlap < 0.5*float64(mss.Len()) {
		t.Errorf("MSS %v overlaps era [%d,%d) by only %.0f games", mss.Interval, lo, hi, overlap)
	}
}

func TestStocksShape(t *testing.T) {
	stocks := NewStocks(42)
	if len(stocks) != 3 {
		t.Fatalf("%d stocks, want 3", len(stocks))
	}
	wantDays := map[string]int{"Dow Jones": 20906, "S&P 500": 15600, "IBM": 12517}
	for _, s := range stocks {
		want, ok := wantDays[s.Name]
		if !ok {
			t.Errorf("unexpected security %q", s.Name)
			continue
		}
		if len(s.Dates) != want || len(s.Prices) != want {
			t.Errorf("%s: %d days, want %d (paper §7.5.2)", s.Name, len(s.Dates), want)
		}
		if s.Series.Len() != want-1 {
			t.Errorf("%s: series length %d, want %d", s.Name, s.Series.Len(), want-1)
		}
		for i, p := range s.Prices {
			if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("%s: bad price %g at %d", s.Name, p, i)
			}
		}
		// Weekdays only.
		for _, d := range s.Dates[:200] {
			if wd := d.Weekday(); wd == time.Saturday || wd == time.Sunday {
				t.Fatalf("%s: weekend trading day %v", s.Name, d)
			}
		}
		if len(s.Regimes) != 4 {
			t.Errorf("%s: %d regimes, want 4", s.Name, len(s.Regimes))
		}
	}
}

func TestStockRegimeDirections(t *testing.T) {
	for _, s := range NewStocks(42) {
		for _, r := range s.Regimes {
			lo, hi := stockIndexRange(s, r.Start, r.End)
			if hi-lo < 5 {
				t.Errorf("%s regime %q covers %d days", s.Name, r.Description, hi-lo)
				continue
			}
			change := s.Prices[hi-1]/s.Prices[lo] - 1
			if r.TargetChange > 0 && change < 0 {
				t.Errorf("%s %q: change %.2f%%, planted positive %.0f%%", s.Name, r.Description, 100*change, 100*r.TargetChange)
			}
			if r.TargetChange < 0 && change > 0 {
				t.Errorf("%s %q: change %.2f%%, planted negative %.0f%%", s.Name, r.Description, 100*change, 100*r.TargetChange)
			}
		}
	}
}

func stockIndexRange(s *Stock, start, end time.Time) (int, int) {
	lo, hi := len(s.Dates), 0
	for i, d := range s.Dates {
		if !d.Before(start) && !d.After(end) {
			if i < lo {
				lo = i
			}
			if i+1 > hi {
				hi = i + 1
			}
		}
	}
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
}

func TestNewStockByName(t *testing.T) {
	s := NewStock("IBM", 1)
	if s == nil || s.Name != "IBM" {
		t.Fatal("NewStock(IBM) failed")
	}
	if NewStock("ENRON", 1) != nil {
		t.Error("unknown security should return nil")
	}
}

func TestStockChange(t *testing.T) {
	s := NewStock("IBM", 1)
	c := s.Change(0, 100)
	direct := s.Prices[100]/s.Prices[0] - 1
	if math.Abs(c-direct) > 1e-12 {
		t.Errorf("Change = %g, want %g", c, direct)
	}
	if s.Change(-1, 5) != 0 || s.Change(5, 5) != 0 || s.Change(0, len(s.Prices)+5) != 0 {
		t.Error("invalid ranges should return 0")
	}
}

func TestStocksDeterministic(t *testing.T) {
	a := NewStock("S&P 500", 5)
	b := NewStock("S&P 500", 5)
	for i := range a.Prices[:1000] {
		if a.Prices[i] != b.Prices[i] {
			t.Fatal("same seed produced different prices")
		}
	}
}
