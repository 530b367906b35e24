package core

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/alphabet"
	"repro/internal/strgen"
)

// engineCases builds the scanner zoo the golden equivalence tests run over:
// null and planted strings across alphabet sizes and seeds, plus degenerate
// shapes (tiny strings, heavy repetition that produces exact X² ties).
func engineCases(t *testing.T) []*Scanner {
	t.Helper()
	var out []*Scanner
	for _, k := range []int{2, 4, 6} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := alphabet.MustUniform(k)
			out = append(out, mustScanner(t, randomString(rng, 400+int(seed)*173, k), m))
		}
	}
	// Planted anomaly: the MSS is a long unusual window.
	base := alphabet.MustUniform(2)
	planted, err := strgen.NewPlanted(base, []strgen.Window{
		{Start: 200, Len: 120, Probs: []float64{0.9, 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, mustScanner(t, planted.Generate(900, rand.New(rand.NewSource(7))), base))
	// Periodic string: duplicated windows force exact X² ties, the hard
	// case for deterministic parallel merging.
	period := []byte{0, 0, 1, 0, 1, 1, 0, 0, 1}
	tied := make([]byte, 540)
	for i := range tied {
		tied[i] = period[i%len(period)]
	}
	out = append(out, mustScanner(t, tied, base))
	// Tiny strings around the worker-count boundary.
	for n := 1; n <= 4; n++ {
		out = append(out, mustScanner(t, randomString(rand.New(rand.NewSource(9)), n, 2), base))
	}
	return out
}

var engineGrid = []Engine{
	{Workers: 2},
	{Workers: 3},
	{Workers: 8},
	{Workers: 0}, // GOMAXPROCS
}

func requireSameScored(t *testing.T, label string, seq, par Scored) {
	t.Helper()
	if seq != par {
		t.Errorf("%s: parallel %v X²=%v, sequential %v X²=%v",
			label, par.Interval, par.X2, seq.Interval, seq.X2)
	}
}

func requireSameTotals(t *testing.T, label string, seq, par Stats) {
	t.Helper()
	if seq.Total() != par.Total() {
		t.Errorf("%s: parallel accounts for %d substrings, sequential %d",
			label, par.Total(), seq.Total())
	}
	if seq.Starts != par.Starts {
		t.Errorf("%s: parallel visited %d starts, sequential %d", label, par.Starts, seq.Starts)
	}
}

// Problem 1: the parallel MSS must return the identical interval and X².
func TestParallelMSSGolden(t *testing.T) {
	for ci, sc := range engineCases(t) {
		seq, seqSt := mssOf(sc, sequential, 1)
		for _, e := range engineGrid {
			par, parSt := mssOf(sc, e, 1)
			label := caseLabel("mss", ci, e)
			requireSameScored(t, label, seq, par)
			requireSameTotals(t, label, seqSt, parSt)
		}
	}
}

// Problem 4 (and the segment-restricted scan): identical intervals under
// length floors and sub-ranges.
func TestParallelMinLengthAndRangeGolden(t *testing.T) {
	for ci, sc := range engineCases(t) {
		n := sc.Len()
		for _, gamma := range []int{1, 5, n / 3} {
			seq, seqSt := mssOf(sc, sequential, gamma+1)
			for _, e := range engineGrid {
				par, parSt := mssOf(sc, e, gamma+1)
				label := caseLabel("minlen", ci, e)
				requireSameScored(t, label, seq, par)
				requireSameTotals(t, label, seqSt, parSt)
			}
		}
		lo, hi := n/5, n-n/4
		seq, _ := rangeMSS(sc, sequential, lo, hi, 2)
		for _, e := range engineGrid {
			par, _ := rangeMSS(sc, e, lo, hi, 2)
			requireSameScored(t, caseLabel("range", ci, e), seq, par)
		}
	}
}

// Problem 2: the X² value multiset is deterministic (ties at the boundary
// may swap intervals, which the problem statement permits), and every
// reported interval's X² must be its true value.
func TestParallelTopTGolden(t *testing.T) {
	for ci, sc := range engineCases(t) {
		for _, tt := range []int{1, 7, 40} {
			seq, seqSt, err := topTOf(sc, sequential, tt, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range engineGrid {
				par, parSt, err := topTOf(sc, e, tt, 1)
				if err != nil {
					t.Fatal(err)
				}
				label := caseLabel("topt", ci, e)
				if len(par) != len(seq) {
					t.Errorf("%s: %d results, sequential %d", label, len(par), len(seq))
					continue
				}
				for i := range par {
					if par[i].X2 != seq[i].X2 {
						t.Errorf("%s: result %d X²=%v, sequential %v", label, i, par[i].X2, seq[i].X2)
					}
					if got := sc.X2(par[i].Start, par[i].End); got != par[i].X2 {
						t.Errorf("%s: result %d reports X²=%v but window has %v", label, i, par[i].X2, got)
					}
				}
				requireSameTotals(t, label, seqSt, parSt)
			}
		}
	}
}

// Problem 3: the full result set — intervals, values, and visit order — must
// match, as must the exact Evaluated/Skipped split (the constant α budget
// makes the parallel scan's skip pattern identical).
func TestParallelThresholdGolden(t *testing.T) {
	for ci, sc := range engineCases(t) {
		if sc.Len() < 10 {
			continue
		}
		mss, _ := mssOf(sc, sequential, 1)
		for _, alpha := range []float64{mss.X2 * 0.8, mss.X2 * 0.5} {
			var seq []Scored
			seqSt := thresholdOf(sc, sequential, alpha, 1, func(s Scored) { seq = append(seq, s) })
			for _, e := range engineGrid {
				var par []Scored
				parSt := thresholdOf(sc, e, alpha, 1, func(s Scored) { par = append(par, s) })
				label := caseLabel("threshold", ci, e)
				if len(par) != len(seq) {
					t.Errorf("%s: %d results, sequential %d", label, len(par), len(seq))
					continue
				}
				for i := range par {
					if par[i] != seq[i] {
						t.Errorf("%s: result %d = %v, sequential %v", label, i, par[i], seq[i])
						break
					}
				}
				if seqSt != parSt {
					t.Errorf("%s: stats %+v, sequential %+v", label, parSt, seqSt)
				}
			}
		}
	}
}

// The parallel collect path bounds buffering at the limit; it must still
// return exactly the sequential first-limit prefix and the overflow error.
func TestParallelThresholdCollectLimit(t *testing.T) {
	sc := mustScanner(t, randomString(rand.New(rand.NewSource(5)), 800, 2), alphabet.MustUniform(2))
	mss, _ := mssOf(sc, sequential, 1)
	alpha := mss.X2 * 0.3 // low threshold: many qualifying substrings
	const limit = 25
	seq, _, seqErr := collectAbove(sc, sequential, alpha, limit)
	if seqErr == nil {
		t.Fatalf("fixture too weak: sequential collect did not overflow (%d results)", len(seq))
	}
	for _, e := range engineGrid {
		par, _, parErr := collectAbove(sc, e, alpha, limit)
		label := caseLabel("collect", 0, e)
		if parErr == nil {
			t.Errorf("%s: overflow error lost", label)
		}
		if len(par) != len(seq) {
			t.Errorf("%s: %d results, sequential %d", label, len(par), len(seq))
			continue
		}
		for i := range par {
			if par[i] != seq[i] {
				t.Errorf("%s: result %d = %v, sequential %v", label, i, par[i], seq[i])
				break
			}
		}
	}
}

// Disjoint top-t peels segments with MSS sub-scans; parallel peeling must
// produce the identical disjoint set.
func TestParallelDisjointTopTGolden(t *testing.T) {
	for ci, sc := range engineCases(t) {
		seq, _, err := disjointOf(sc, sequential, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engineGrid {
			par, _, err := disjointOf(sc, e, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			label := caseLabel("disjoint", ci, e)
			if len(par) != len(seq) {
				t.Errorf("%s: %d results, sequential %d", label, len(par), len(seq))
				continue
			}
			for i := range par {
				requireSameScored(t, label, seq[i], par[i])
			}
		}
	}
}

func TestSplitStarts(t *testing.T) {
	for _, tc := range []struct{ lo, hi, parts int }{
		{0, 99, 7}, {0, 0, 4}, {5, 23, 100}, {0, 31, 32},
	} {
		chunks := splitStarts(tc.lo, tc.hi, tc.parts)
		next := tc.hi
		total := 0
		for _, c := range chunks {
			if c[0] != next {
				t.Fatalf("splitStarts(%v): chunk starts at %d, want %d", tc, c[0], next)
			}
			if c[1] > c[0] {
				t.Fatalf("splitStarts(%v): empty chunk %v", tc, c)
			}
			total += c[0] - c[1] + 1
			next = c[1] - 1
		}
		if total != tc.hi-tc.lo+1 || next != tc.lo-1 {
			t.Fatalf("splitStarts(%v) covers %d starts ending at %d", tc, total, next)
		}
	}
}

func TestAtomicBudgetRaise(t *testing.T) {
	var b atomicBudget
	b.store(-1)
	b.raise(2.5)
	b.raise(1.0) // lower: must not regress
	if got := b.load(); got != 2.5 {
		t.Errorf("budget = %v, want 2.5", got)
	}
}

// TestSharedBudgetsOwnCacheLines: the budget cells every parallel worker
// reads at each row start and offer sit on cache lines no write of another
// field touches — each starts a line of the pass, and passes are
// allocated on line boundaries.
func TestSharedBudgetsOwnCacheLines(t *testing.T) {
	if got := unsafe.Sizeof(atomicBudget{}); got != cacheLine {
		t.Errorf("atomicBudget is %d bytes, want one %d-byte line", got, cacheLine)
	}
	var h sharedHeap
	if off := unsafe.Offsetof(h.budget); off%cacheLine != 0 {
		t.Errorf("sharedHeap.budget at offset %d, want a line boundary", off)
	}
	if size := unsafe.Sizeof(h); size%cacheLine != 0 {
		t.Errorf("sharedHeap is %d bytes, want whole lines", size)
	}
	var p pass
	if off := unsafe.Offsetof(p.top); off%cacheLine != 0 {
		t.Errorf("pass.top at offset %d, want a line boundary", off)
	}
	if off := unsafe.Offsetof(p.heap); off%cacheLine != 0 {
		t.Errorf("pass.heap at offset %d, want a line boundary", off)
	}
	for range 4 {
		p := newPass(true, 5, nil)
		if a := uintptr(unsafe.Pointer(p)) % cacheLine; a != 0 {
			t.Errorf("pass at line offset %d", a)
		}
		escapeSink = append(escapeSink, p)
	}
	escapeSink = nil
}

var escapeSink []any

func caseLabel(problem string, ci int, e Engine) string {
	return fmt.Sprintf("%s/case%d/w%d", problem, ci, e.Workers)
}
