package core

import (
	"strings"
	"testing"
)

// batchQueries is the mixed workload used by the batch golden tests: every
// kind, with min-length and range combinations, over one corpus.
func batchQueries(n int) []Query {
	return []Query{
		{Kind: KindMSS, Hi: n},
		{Kind: KindMSS, MinLen: 26, Hi: n},
		{Kind: KindMSS, Lo: n / 8, Hi: n / 2, MinLen: 4},
		{Kind: KindTopT, T: 15, Hi: n},
		{Kind: KindTopT, T: 8, MinLen: 11, Lo: 10, Hi: n - 10},
		{Kind: KindThreshold, Alpha: 7, Hi: n},
		{Kind: KindThreshold, Alpha: 5, Lo: n / 3, Hi: n, MinLen: 6},
		{Kind: KindDisjoint, T: 3, MinLen: 8, Hi: n},
	}
}

// TestRunBatchGolden: every query in a mixed batch must return exactly what
// its individual RunQuery returns (bit-identical for MSS/threshold/disjoint,
// X²-multiset for top-t), sequentially and on the 8-worker engine, and its
// stats must account for its full candidate set.
func TestRunBatchGolden(t *testing.T) {
	for _, k := range []int{2, 4} {
		sc := queryFixture(t, 800, k, int64(k)*13)
		qs := batchQueries(sc.Len())
		solo := make([]QueryResult, len(qs))
		for i, q := range qs {
			solo[i] = sc.RunQuery(Engine{Workers: 1}, q)
			if solo[i].Err != nil {
				t.Fatalf("solo query %d: %v", i, solo[i].Err)
			}
		}
		for _, e := range []Engine{{Workers: 1}, {Workers: 8}, {Workers: 8, WarmStart: true}} {
			batch := sc.RunBatch(e, qs)
			if len(batch) != len(qs) {
				t.Fatalf("batch returned %d results for %d queries", len(batch), len(qs))
			}
			for i, got := range batch {
				if got.Err != nil {
					t.Fatalf("k=%d workers=%d query %d: %v", k, e.Workers, i, got.Err)
				}
				name := qs[i].Kind.String()
				if len(got.Results) != len(solo[i].Results) {
					t.Errorf("k=%d workers=%d query %d (%s): %d results, solo %d",
						k, e.Workers, i, name, len(got.Results), len(solo[i].Results))
					continue
				}
				for ri := range got.Results {
					if qs[i].Kind == KindTopT {
						if got.Results[ri].X2 != solo[i].Results[ri].X2 {
							t.Errorf("k=%d workers=%d query %d (%s): result %d X²=%v, solo %v",
								k, e.Workers, i, name, ri, got.Results[ri].X2, solo[i].Results[ri].X2)
						}
						continue
					}
					if got.Results[ri] != solo[i].Results[ri] {
						t.Errorf("k=%d workers=%d query %d (%s): result %d %+v, solo %+v",
							k, e.Workers, i, name, ri, got.Results[ri], solo[i].Results[ri])
					}
				}
				if qs[i].Kind != KindDisjoint {
					nq := qs[i].mustNormalize(t, sc)
					if got.Stats.Total() != nq.candidates() {
						t.Errorf("k=%d workers=%d query %d (%s): accounts for %d substrings, candidate set has %d",
							k, e.Workers, i, name, got.Stats.Total(), nq.candidates())
					}
				}
			}
		}
	}
}

// TestRunBatchSharesEvaluations: the shared pass must not evaluate more
// windows in total than the sum of the individual scans — sharing can only
// remove duplicated Vector/Value work, never add scans of its own.
// (Per-query Evaluated can exceed its solo value, because the shared
// traversal wakes a query at positions its solo skip would have jumped
// past; the global number of X² evaluations is what sharing reduces.)
func TestRunBatchSharesEvaluations(t *testing.T) {
	sc := queryFixture(t, 600, 3, 29)
	n := sc.Len()
	qs := []Query{
		{Kind: KindMSS, Hi: n},
		{Kind: KindTopT, T: 10, Hi: n},
		{Kind: KindThreshold, Alpha: 10, Hi: n},
	}
	var soloSum int64
	for _, q := range qs {
		soloSum += sc.RunQuery(Engine{Workers: 1}, q).Stats.Evaluated
	}
	batch := sc.RunBatch(Engine{Workers: 1}, qs)
	var batchMax int64
	for _, r := range batch {
		// Each query's Evaluated counts the shared evaluations it consumed;
		// the pass's true evaluation count is at most the max consumer plus
		// positions consumed only by others — bounded above by the sum, and
		// the threshold query (which can never skip past a hit) dominates.
		if r.Stats.Evaluated > batchMax {
			batchMax = r.Stats.Evaluated
		}
	}
	if batchMax > soloSum {
		t.Errorf("shared pass max per-query evaluations %d exceeds solo sum %d", batchMax, soloSum)
	}
}

// TestRunBatchErrors: invalid queries fail their own slot only; threshold
// limits overflow per query.
func TestRunBatchErrors(t *testing.T) {
	sc := queryFixture(t, 200, 2, 5)
	n := sc.Len()
	qs := []Query{
		{Kind: KindMSS, Hi: n},
		{Kind: KindTopT, T: 0, Hi: n},                         // invalid
		{Kind: Kind(42), Hi: n},                               // invalid
		{Kind: KindThreshold, Alpha: 0.0001, Hi: n, Limit: 5}, // overflows
		{Kind: KindTopT, T: 3, Hi: n},
	}
	out := sc.RunBatch(Engine{Workers: 4}, qs)
	if out[0].Err != nil || len(out[0].Results) != 1 {
		t.Errorf("healthy MSS slot: err=%v results=%d", out[0].Err, len(out[0].Results))
	}
	if out[1].Err == nil || out[2].Err == nil {
		t.Error("invalid queries accepted in batch")
	}
	if out[3].Err == nil {
		t.Error("threshold limit overflow not reported")
	}
	if !strings.Contains(out[3].Err.Error(), "more than 5") {
		t.Errorf("overflow error = %v", out[3].Err)
	}
	if len(out[3].Results) != 5 {
		t.Errorf("overflowing threshold returned %d results, want the first 5", len(out[3].Results))
	}
	if out[4].Err != nil || len(out[4].Results) != 3 {
		t.Errorf("healthy top-t slot: err=%v results=%d", out[4].Err, len(out[4].Results))
	}
}

// TestRunBatchCompositeAndStreaming: disjoint and streaming threshold
// queries ride along in a batch as individual passes.
func TestRunBatchCompositeAndStreaming(t *testing.T) {
	sc := queryFixture(t, 300, 2, 17)
	n := sc.Len()
	var streamed []Scored
	qs := []Query{
		{Kind: KindDisjoint, T: 2, MinLen: 5, Hi: n},
		{Kind: KindThreshold, Alpha: 6, Hi: n, Visit: func(s Scored) { streamed = append(streamed, s) }},
		{Kind: KindMSS, Hi: n},
	}
	out := sc.RunBatch(Engine{Workers: 1}, qs)
	soloDisjoint, _, err := disjointOf(sc, sequential, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0].Results) != len(soloDisjoint) {
		t.Fatalf("disjoint in batch: %d results, solo %d", len(out[0].Results), len(soloDisjoint))
	}
	for i := range soloDisjoint {
		if out[0].Results[i] != soloDisjoint[i] {
			t.Errorf("disjoint result %d diverges", i)
		}
	}
	var soloStream []Scored
	thresholdOf(sc, sequential, 6, 1, func(s Scored) { soloStream = append(soloStream, s) })
	if len(streamed) != len(soloStream) {
		t.Fatalf("streamed %d hits, solo %d", len(streamed), len(soloStream))
	}
	for i := range soloStream {
		if streamed[i] != soloStream[i] {
			t.Errorf("streamed hit %d diverges", i)
		}
	}
	if best, _ := mssOf(sc, sequential, 1); out[2].Best() != best {
		t.Error("MSS in mixed batch diverges")
	}
}

// TestRunBatchScatteredRanges: queries confined to far-apart segments must
// stay golden under the union-of-ranges traversal (the scan never visits
// the uncovered middle, but every covered row is answered exactly).
func TestRunBatchScatteredRanges(t *testing.T) {
	sc := queryFixture(t, 2000, 3, 31)
	n := sc.Len()
	qs := []Query{
		{Kind: KindMSS, Lo: 0, Hi: 120, MinLen: 3},
		{Kind: KindMSS, Lo: n - 130, Hi: n, MinLen: 5},
		{Kind: KindTopT, T: 5, Lo: 40, Hi: 100},
		{Kind: KindThreshold, Alpha: 4, Lo: n - 100, Hi: n - 20},
		{Kind: KindMSS, Lo: 900, Hi: 960},                // isolated middle island
		{Kind: KindMSS, Lo: 500, Hi: 200},                // inverted: empty
		{Kind: KindThreshold, Alpha: 2, Lo: 60, Hi: 160}, // bridges the first two spans
	}
	for _, e := range []Engine{{Workers: 1}, {Workers: 8}} {
		batch := sc.RunBatch(e, qs)
		for i, q := range qs {
			solo := sc.RunQuery(Engine{Workers: 1}, q)
			got := batch[i]
			if got.Err != nil || solo.Err != nil {
				t.Fatalf("workers=%d query %d: errs %v / %v", e.Workers, i, got.Err, solo.Err)
			}
			if len(got.Results) != len(solo.Results) {
				t.Fatalf("workers=%d query %d: %d results, solo %d", e.Workers, i, len(got.Results), len(solo.Results))
			}
			for ri := range got.Results {
				if q.Kind == KindTopT {
					if got.Results[ri].X2 != solo.Results[ri].X2 {
						t.Errorf("workers=%d query %d result %d X² diverges", e.Workers, i, ri)
					}
					continue
				}
				if got.Results[ri] != solo.Results[ri] {
					t.Errorf("workers=%d query %d result %d: %+v vs %+v", e.Workers, i, ri, got.Results[ri], solo.Results[ri])
				}
			}
			nq := q.mustNormalize(t, sc)
			if got.Stats.Total() != nq.candidates() {
				t.Errorf("workers=%d query %d: accounts for %d, candidates %d", e.Workers, i, got.Stats.Total(), nq.candidates())
			}
		}
	}
}

// TestMergedStartRanges pins the interval union used to lay out chunks.
func TestMergedStartRanges(t *testing.T) {
	mk := func(lo, hi, minLen int) *scanGroup {
		return &scanGroup{lo: lo, hi: hi, minLen: minLen, rowLo: lo, rowHi: hi - minLen}
	}
	got := mergedStartRanges([]*scanGroup{
		mk(0, 100, 1),    // starts [0, 99]
		mk(50, 200, 10),  // starts [50, 190] — overlaps
		mk(191, 300, 1),  // starts [191, 299] — adjacent: merges
		mk(800, 900, 1),  // starts [800, 899] — separate
		mk(400, 380, 1),  // inverted: empty, dropped
		mk(500, 505, 50), // floor exceeds span: empty, dropped
	})
	want := [][2]int{{899, 800}, {299, 0}}
	if len(got) != len(want) {
		t.Fatalf("ranges %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranges %v, want %v", got, want)
		}
	}
}

// TestRunBatchEmpty covers the degenerate inputs.
func TestRunBatchEmpty(t *testing.T) {
	sc := queryFixture(t, 100, 2, 23)
	if out := sc.RunBatch(Engine{}, nil); len(out) != 0 {
		t.Errorf("empty batch returned %d results", len(out))
	}
	// All-empty candidate sets.
	out := sc.RunBatch(Engine{}, []Query{
		{Kind: KindMSS, Lo: 10, Hi: 12, MinLen: 50},
		{Kind: KindTopT, T: 2, Lo: 40, Hi: 40},
	})
	for i, r := range out {
		if r.Err != nil || len(r.Results) != 0 || r.Stats.Total() != 0 {
			t.Errorf("empty-range query %d: %+v", i, r)
		}
	}
}
