package sigsub

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRunLowersLegacyMethods locks each public Query to the core plan it
// lowers to — Hi == 0 resolved to Len(), a zero threshold Limit to the
// default cap, MinLength and the range passed through — and Scanner.MSS to
// Run(MSSQuery()): answers must be bit-identical, sequentially and
// parallel (top-t by X² value, as the problem statement permits).
func TestRunLowersLegacyMethods(t *testing.T) {
	sc, _ := parallelFixture(t, 1200, 3, 42)
	n := sc.Len()
	cases := []struct {
		q    Query
		plan core.Query
	}{
		{MSSQuery(), core.Query{Kind: core.KindMSS, Hi: n}},
		{MSSQuery().WithMinLength(61), core.Query{Kind: core.KindMSS, MinLen: 61, Hi: n}},
		{MSSQuery().WithRange(100, 900).WithMinLength(10), core.Query{Kind: core.KindMSS, MinLen: 10, Lo: 100, Hi: 900}},
		{TopTQuery(10), core.Query{Kind: core.KindTopT, T: 10, Hi: n}},
		{ThresholdQuery(12), core.Query{Kind: core.KindThreshold, Alpha: 12, Hi: n, Limit: 1_000_000}},
		{DisjointQuery(3).WithMinLength(20), core.Query{Kind: core.KindDisjoint, T: 3, MinLen: 20, Hi: n}},
	}
	for _, w := range []int{1, 8} {
		for _, c := range cases {
			got, err := sc.Run(c.q, WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			want := sc.queryResult(sc.sc.RunQuery(core.Engine{Workers: w}, c.plan))
			if len(got.Results) != len(want.Results) || got.Stats.Evaluated+got.Stats.Skipped != want.Stats.Evaluated+want.Stats.Skipped {
				t.Fatalf("workers=%d %v: %d results, %+v; plan %d results, %+v", w, c.q.Kind, len(got.Results), got.Stats, len(want.Results), want.Stats)
			}
			for i := range want.Results {
				if c.q.Kind == QueryTopT && got.Results[i].X2 != want.Results[i].X2 ||
					c.q.Kind != QueryTopT && got.Results[i] != want.Results[i] {
					t.Errorf("workers=%d %v: result %d %+v, plan %+v", w, c.q.Kind, i, got.Results[i], want.Results[i])
				}
			}
		}
		mss, err := sc.MSS(WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		qr, err := sc.Run(MSSQuery(), WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		if len(qr.Results) != 1 || qr.Results[0] != mss {
			t.Errorf("workers=%d: Run(MSSQuery()) %+v, MSS %+v", w, qr.Results, mss)
		}
	}
}

// TestRunBatchGoldenPublic: a mixed batch over one corpus answers each
// query exactly as the individual calls do, sequentially and with
// WithWorkers(8) (CI runs this under -race), while the summed stats land in
// WithStats.
func TestRunBatchGoldenPublic(t *testing.T) {
	sc, _ := parallelFixture(t, 1000, 4, 77)
	qs := []Query{
		MSSQuery(),
		MSSQuery().WithMinLength(41),
		MSSQuery().WithRange(100, 700).WithMinLength(5),
		TopTQuery(12),
		ThresholdQuery(14),
		ThresholdQuery(10).WithRange(200, 1000),
		DisjointQuery(3).WithMinLength(10),
	}
	solo := make([]QueryResult, len(qs))
	for i, q := range qs {
		r, err := sc.Run(q)
		if err != nil {
			t.Fatalf("solo %d: %v", i, err)
		}
		solo[i] = r
	}
	for _, w := range []int{1, 8} {
		var st Stats
		batch, err := sc.RunBatch(qs, WithWorkers(w), WithStats(&st))
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(qs) {
			t.Fatalf("batch size %d, want %d", len(batch), len(qs))
		}
		var sum int64
		for i, got := range batch {
			if got.Err != nil {
				t.Fatalf("workers=%d query %d: %v", w, i, got.Err)
			}
			if len(got.Results) != len(solo[i].Results) {
				t.Errorf("workers=%d query %d: %d results, solo %d", w, i, len(got.Results), len(solo[i].Results))
				continue
			}
			for ri := range got.Results {
				if qs[i].Kind == QueryTopT {
					if got.Results[ri].X2 != solo[i].Results[ri].X2 {
						t.Errorf("workers=%d query %d: X² %d diverges", w, i, ri)
					}
					continue
				}
				if got.Results[ri] != solo[i].Results[ri] {
					t.Errorf("workers=%d query %d result %d: %+v vs %+v", w, i, ri, got.Results[ri], solo[i].Results[ri])
				}
			}
			sum += got.Stats.Evaluated + got.Stats.Skipped
		}
		if st.Evaluated+st.Skipped != sum {
			t.Errorf("workers=%d: WithStats total %d, per-query sum %d", w, st.Evaluated+st.Skipped, sum)
		}
	}
}

// TestRunBatchPerQueryErrors: bad queries fail their slot only.
func TestRunBatchPerQueryErrors(t *testing.T) {
	sc, _ := parallelFixture(t, 300, 2, 3)
	batch, err := sc.RunBatch([]Query{
		MSSQuery(),
		TopTQuery(0),
		{Kind: QueryKind(77)},
		ThresholdQuery(0.0001).WithResultLimit(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Err != nil || len(batch[0].Results) != 1 {
		t.Errorf("healthy slot: %+v", batch[0])
	}
	if batch[1].Err == nil {
		t.Error("t=0 accepted")
	}
	if batch[2].Err == nil || !strings.Contains(batch[2].Err.Error(), "unknown query kind") {
		t.Errorf("unknown kind error = %v", batch[2].Err)
	}
	if batch[3].Err == nil || len(batch[3].Results) != 3 {
		t.Errorf("overflow slot: err=%v results=%d", batch[3].Err, len(batch[3].Results))
	}
}

// TestRunValidation: Run's top-level error paths.
func TestRunValidation(t *testing.T) {
	sc, _ := parallelFixture(t, 100, 2, 9)
	if _, err := sc.Run(Query{Kind: QueryKind(9)}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := sc.Run(TopTQuery(-2)); err == nil {
		t.Error("negative t accepted")
	}
	empty, err := NewScanner(nil, mustUniform(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Run(MSSQuery()); err == nil {
		t.Error("empty scanner Run accepted")
	}
	if _, err := empty.RunBatch([]Query{MSSQuery()}); err == nil {
		t.Error("empty scanner RunBatch accepted")
	}
}

// TestMSSRangeEdgeCases pins the boundary semantics of the segment scan:
// out-of-range bounds clamp, too-small and empty ranges answer with the
// zero result (p-value 1) rather than an error.
func TestMSSRangeEdgeCases(t *testing.T) {
	sc, _ := parallelFixture(t, 200, 2, 5)
	n := sc.Len()

	whole, err := sc.MSS()
	if err != nil {
		t.Fatal(err)
	}

	// lo < 0 clamps to 0; hi > n clamps to n: both equal the whole-string scan.
	for _, c := range [][3]int{{-5, n, 1}, {0, n + 100, 1}, {-3, n + 3, 1}} {
		got, err := runBest(sc, MSSQuery().WithRange(c[0], c[1]).WithMinLength(c[2]))
		if err != nil {
			t.Fatal(err)
		}
		if got != whole {
			t.Errorf("range [%d, %d) floor %d = %+v, want whole-string MSS %+v", c[0], c[1], c[2], got, whole)
		}
	}

	zero := Result{PValue: 1}
	// hi − lo < minLen: no candidate fits.
	if got, err := runBest(sc, MSSQuery().WithRange(10, 14).WithMinLength(10)); err != nil || got != zero {
		t.Errorf("narrow range: got %+v, err %v", got, err)
	}
	// Empty and inverted ranges.
	if got, err := runBest(sc, MSSQuery().WithRange(50, 50)); err != nil || got != zero {
		t.Errorf("empty range: got %+v, err %v", got, err)
	}
	if got, err := runBest(sc, MSSQuery().WithRange(80, 20)); err != nil || got != zero {
		t.Errorf("inverted range: got %+v, err %v", got, err)
	}
	// Hi == 0 is the "to the end" sentinel, not an empty range.
	if got, err := runBest(sc, MSSQuery().WithRange(0, 0)); err != nil || got != whole {
		t.Errorf("hi=0 range: got %+v, err %v, want whole-string MSS %+v", got, err, whole)
	}
	// A range touching the end of the string stays in bounds.
	if got, err := runBest(sc, MSSQuery().WithRange(n-4, n).WithMinLength(4)); err != nil || got.Start != n-4 || got.End != n {
		t.Errorf("suffix range: got %+v, err %v", got, err)
	}
	// Stats for a degenerate range are all-zero.
	var st Stats
	if _, err := runBest(sc, MSSQuery().WithRange(30, 30), WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st != (Stats{}) {
		t.Errorf("degenerate range recorded stats %+v", st)
	}
}
