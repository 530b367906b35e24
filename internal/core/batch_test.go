package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/alphabet"
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

// TestRunBatchSharesEvaluations: a batch shares the prefix counts and the
// subsumable scans, never a traversal — each scan group runs the engine its
// solo query runs — so at one worker every slot of a batch with no
// subsumable pair reports exactly its solo RunQuery Stats, the
// evaluated/skipped split and the row count included. The batches have the
// daemon's window shape: MSS, top-10 and a limited threshold on one window
// of uniform k=4 text.
func TestRunBatchSharesEvaluations(t *testing.T) {
	const n, batches = 30000, 60
	rng := rand.New(rand.NewSource(61))
	m, err := alphabet.Uniform(4)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(randomString(rng, n, 4), m)
	if err != nil {
		t.Fatal(err)
	}
	windows := []int{250, 354, 500, 707, 1000}
	for b := 0; b < batches; b++ {
		w := windows[b%len(windows)]
		lo := rng.Intn(n - w + 1)
		qs := []Query{
			{Kind: KindMSS, Lo: lo, Hi: lo + w},
			{Kind: KindTopT, T: 10, Lo: lo, Hi: lo + w},
			{Kind: KindThreshold, Alpha: 19 + 9*math.Log10(float64(w)/1000), Limit: 500, Lo: lo, Hi: lo + w},
		}
		batch := sc.RunBatch(sequential, qs)
		for i, q := range qs {
			if solo := sc.RunQuery(sequential, q); batch[i].Stats != solo.Stats {
				t.Errorf("batch %d slot %d (%s, [%d, %d)): stats %+v, solo %+v", b, i, q.Kind, q.Lo, q.Hi, batch[i].Stats, solo.Stats)
			}
		}
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

// scatteredQueries is a batch of queries confined to far-apart segments of
// an n-symbol corpus, with an empty and an inverted range among them.
func scatteredQueries(n int) []Query {
	return []Query{
		{Kind: KindMSS, Lo: 0, Hi: 120, MinLen: 3},
		{Kind: KindMSS, Lo: n - 130, Hi: n, MinLen: 5},
		{Kind: KindTopT, T: 5, Lo: 40, Hi: 100},
		{Kind: KindThreshold, Alpha: 4, Lo: n - 100, Hi: n - 20},
		{Kind: KindMSS, Lo: 900, Hi: 960},                   // isolated middle island
		{Kind: KindMSS, Lo: 500, Hi: 200},                   // inverted: empty
		{Kind: KindThreshold, Alpha: 2, Lo: 60, Hi: 160},    // overlaps the first two
		{Kind: KindTopT, T: 3, Lo: 700, Hi: 704, MinLen: 9}, // floor past the span: empty
	}
}

// TestRunBatchScatteredRanges: queries confined to far-apart segments must
// stay golden (every covered row is answered exactly).
func TestRunBatchScatteredRanges(t *testing.T) {
	sc := queryFixture(t, 2000, 3, 31)
	qs := scatteredQueries(sc.Len())
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

// TestMergedStartRanges pins that each scan group visits exactly its own
// start rows — never another group's, never the gaps between them: a
// slot's Starts is RowHi − RowLo + 1 (0 for inverted or empty ranges), for
// RunBatch's single shard and for every fragment of a three-shard plan. Two
// queries spanning the shard cuts make the plan clip their rows.
func TestMergedStartRanges(t *testing.T) {
	sc := queryFixture(t, 2000, 3, 31)
	n := sc.Len()
	qs := append(scatteredQueries(n),
		Query{Kind: KindMSS, Lo: 500, Hi: 1500, MinLen: 4},
		Query{Kind: KindTopT, T: 4, Lo: 100, Hi: n})
	for _, e := range []Engine{{Workers: 1}, {Workers: 8}} {
		for i, r := range sc.RunBatch(e, qs) {
			nq := qs[i].mustNormalize(t, sc)
			if rows := int64(max(nq.Hi-nq.MinLen-nq.Lo+1, 0)); r.Stats.Starts != rows {
				t.Errorf("workers=%d slot %d: %d starts, range holds %d rows", e.Workers, i, r.Stats.Starts, rows)
			}
		}
		plan, err := PlanBatch(n, qs, EvenCuts(n, 3))
		if err != nil {
			t.Fatal(err)
		}
		for s, sqs := range plan.Shards {
			parts, err := LocalExec{Sc: sc}.ExecShard(context.Background(), e, s, sqs)
			if err != nil {
				t.Fatal(err)
			}
			if len(parts) != len(sqs) {
				t.Fatalf("shard %d: %d fragments for %d subqueries", s, len(parts), len(sqs))
			}
			bySlot := make(map[int]ShardQuery)
			for _, sq := range sqs {
				bySlot[sq.Slot] = sq
			}
			for _, p := range parts {
				sq := bySlot[p.Slot]
				if rows := int64(sq.RowHi - sq.RowLo + 1); p.Stats.Starts != rows {
					t.Errorf("workers=%d shard %d slot %d: %d starts, rows [%d, %d]", e.Workers, s, sq.Slot, p.Stats.Starts, sq.RowLo, sq.RowHi)
				}
			}
		}
	}
}

// TestRunBatchThresholdSinks: threshold queries on one (range, floor) ride
// one scan at their lowest α, yet each keeps its own cutoff and limit. The
// low-α hits far outnumber the high-α ones, so a cap shared by the group
// would drop hits a higher-α member needs; every slot must still equal its
// solo RunQuery — the same hits in the same order, the same overflow error —
// and account for its whole candidate set.
func TestRunBatchThresholdSinks(t *testing.T) {
	const n = 800
	m, err := alphabet.Uniform(2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(randomString(rand.New(rand.NewSource(43)), n, 2), m)
	if err != nil {
		t.Fatal(err)
	}
	qs := []Query{
		{Kind: KindThreshold, Alpha: 5, Limit: 3, Hi: n},
		{Kind: KindThreshold, Alpha: 8, Limit: 2, Hi: n},
		{Kind: KindThreshold, Alpha: 6, Hi: n},
		{Kind: KindThreshold, Alpha: 12, Limit: 40, Hi: n},
	}
	solo := make([]QueryResult, len(qs))
	for i, q := range qs {
		solo[i] = sc.RunQuery(sequential, q)
	}
	low := 0
	sc.RunQuery(sequential, Query{Kind: KindThreshold, Alpha: 5, Hi: n, Visit: func(Scored) { low++ }})
	if high := len(solo[3].Results); solo[1].Err == nil || solo[3].Err != nil || high == 0 || low < 10*high {
		t.Fatalf("fixture too tame: %d hits above α=5, %d above α=12, α=8 overflow %v", low, high, solo[1].Err)
	}
	for _, workers := range []int{1, 8} {
		for i, got := range sc.RunBatch(Engine{Workers: workers}, qs) {
			want := solo[i]
			if fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
				t.Errorf("workers=%d slot %d: err %v, solo %v", workers, i, got.Err, want.Err)
			}
			if !slices.Equal(got.Results, want.Results) {
				t.Errorf("workers=%d slot %d: %d hits %v, solo %d hits %v", workers, i, len(got.Results), got.Results, len(want.Results), want.Results)
			}
			if cands := qs[i].mustNormalize(t, sc).candidates(); got.Stats.Total() != cands {
				t.Errorf("workers=%d slot %d: accounts for %d, candidates %d", workers, i, got.Stats.Total(), cands)
			}
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
