package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
)

// fanExec fans ExecShard calls out to per-shard LocalExecs — the in-process
// stand-in for a fleet of segment-serving peers.
type fanExec struct {
	execs []LocalExec
}

func (f fanExec) ExecShard(ctx context.Context, e Engine, shard int, sqs []ShardQuery) ([]Partial, error) {
	return f.execs[shard].ExecShard(ctx, e, shard, sqs)
}

// shardBatchFixture is the mixed batch the golden tests scatter: every
// kind, range/floor variations, subsumable duplicates, limits that
// overflow, empty candidate sets, and an invalid slot.
func shardBatchFixture(n int) []Query {
	return []Query{
		{Kind: KindMSS, Lo: 0, Hi: n},
		{Kind: KindMSS, Lo: n / 5, Hi: 4 * n / 5, MinLen: 3},
		{Kind: KindTopT, T: 5, Lo: 0, Hi: n},
		{Kind: KindTopT, T: 12, Lo: 0, Hi: n},
		{Kind: KindTopT, T: 4, Lo: n / 6, Hi: n / 2, MinLen: 2},
		{Kind: KindThreshold, Alpha: 6, Lo: 0, Hi: n},
		{Kind: KindThreshold, Alpha: 9, Lo: 0, Hi: n, Limit: 7},
		{Kind: KindThreshold, Alpha: 2, Lo: n / 3, Hi: 2 * n / 3, Limit: 5},
		{Kind: KindDisjoint, T: 3, Lo: 0, Hi: n},
		{Kind: KindMSS, Lo: n / 2, Hi: n/2 + 1, MinLen: 5}, // empty candidate set
		{Kind: KindTopT, T: 0, Lo: 0, Hi: n},               // invalid: t < 1
	}
}

// assertShardedMatchesSolo compares a sharded run against the solo baseline
// under the merge layer's per-kind contracts: bit-identical results for
// MSS, threshold, and composite kinds; identical X² multisets for top-t;
// identical errors; and exact candidate accounting for every slot.
func assertShardedMatchesSolo(t *testing.T, label string, qs []Query, solo, got []QueryResult, n int) {
	t.Helper()
	if len(got) != len(solo) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(solo))
	}
	for i, q := range qs {
		g, s := got[i], solo[i]
		if (g.Err == nil) != (s.Err == nil) || (g.Err != nil && g.Err.Error() != s.Err.Error()) {
			t.Errorf("%s slot %d: err %v, want %v", label, i, g.Err, s.Err)
			continue
		}
		if q.Kind == KindTopT {
			if !sameScoreMultiset(g.Results, s.Results) {
				t.Errorf("%s slot %d: top-t X² multiset differs:\n got %v\nwant %v", label, i, g.Results, s.Results)
			}
		} else {
			if len(g.Results) != len(s.Results) {
				t.Errorf("%s slot %d: %d results, want %d", label, i, len(g.Results), len(s.Results))
				continue
			}
			for ri := range g.Results {
				if g.Results[ri] != s.Results[ri] {
					t.Errorf("%s slot %d result %d: %+v, want %+v", label, i, ri, g.Results[ri], s.Results[ri])
				}
			}
		}
		if nq, err := normalizeQuery(q, n); err == nil {
			if nq.Kind == KindDisjoint || nq.Visit != nil {
				// The disjoint peel re-scans segments and streaming rides a
				// dedicated pass: their work totals are not a single
				// candidate count, but they are deterministic — pin to solo.
				if g.Stats.Total() != s.Stats.Total() {
					t.Errorf("%s slot %d: accounts for %d windows, solo accounts %d", label, i, g.Stats.Total(), s.Stats.Total())
				}
			} else if g.Stats.Total() != nq.candidates() {
				t.Errorf("%s slot %d: accounts for %d windows, candidate set holds %d", label, i, g.Stats.Total(), nq.candidates())
			}
		}
	}
}

// sameScoreMultiset reports whether two result sets carry bit-identical X²
// value multisets.
func sameScoreMultiset(a, b []Scored) bool {
	if len(a) != len(b) {
		return false
	}
	as := make([]uint64, len(a))
	bs := make([]uint64, len(b))
	for i := range a {
		as[i] = math.Float64bits(a[i].X2)
		bs[i] = math.Float64bits(b[i].X2)
	}
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestShardedGoldenVsSolo is the merge-determinism golden test: for S ∈
// {1, 2, 3, 7} shards × W ∈ {1, 8} workers, a planned scatter-gather run
// over shard-clipped row ranges (all shards scanning one shared scanner at
// once) must reproduce the solo sequential scan — bit-identical
// MSS/threshold/disjoint results, identical top-t X² multisets, and exact
// per-slot candidate accounting.
func TestShardedGoldenVsSolo(t *testing.T) {
	const n = 2400
	sc := queryFixture(t, n, 3, 41)
	qs := shardBatchFixture(n)
	solo := sc.RunBatch(Engine{Workers: 1}, qs)
	for _, shards := range []int{1, 2, 3, 7} {
		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("S=%d/W=%d", shards, workers)
			plan, err := PlanBatch(n, qs, EvenCuts(n, shards))
			if err != nil {
				t.Fatalf("%s: plan: %v", label, err)
			}
			execs := make([]LocalExec, shards)
			for s := range execs {
				execs[s] = LocalExec{Sc: sc}
			}
			got, err := RunPlan(context.Background(), Engine{Workers: workers}, plan, fanExec{execs})
			if err != nil {
				t.Fatalf("%s: run: %v", label, err)
			}
			assertShardedMatchesSolo(t, label, qs, solo, got, n)
		}
	}
}

// TestShardedSuffixSegments runs the same golden comparison with each shard
// backed by its own suffix-segment scanner (symbols [cut, n) at offset cut)
// — the exact shape of segment snapshots — so the offset translation and
// the suffix-count bit-identity of X² values are both on the hook. A
// streaming Visit query rides along to pin the composite path's coordinate
// translation.
func TestShardedSuffixSegments(t *testing.T) {
	const n = 1800
	sc := queryFixture(t, n, 3, 97)
	var streamed []Scored
	qs := append(shardBatchFixture(n),
		Query{Kind: KindThreshold, Alpha: 7, Lo: n / 4, Hi: n, Visit: func(s Scored) { streamed = append(streamed, s) }},
	)
	solo := sc.RunBatch(Engine{Workers: 1}, qs)
	soloStreamed := streamed

	for _, shards := range []int{2, 3, 7} {
		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("suffix S=%d/W=%d", shards, workers)
			ranges := EvenCuts(n, shards)
			plan, err := PlanBatch(n, qs, ranges)
			if err != nil {
				t.Fatalf("%s: plan: %v", label, err)
			}
			execs := make([]LocalExec, shards)
			for s, r := range ranges {
				seg := queryFixtureSuffix(t, n, 3, 97, r.Lo)
				execs[s] = LocalExec{Sc: seg, Offset: r.Lo}
			}
			streamed = nil
			got, err := RunPlan(context.Background(), Engine{Workers: workers}, plan, fanExec{execs})
			if err != nil {
				t.Fatalf("%s: run: %v", label, err)
			}
			assertShardedMatchesSolo(t, label, qs, solo, got, n)
			if len(streamed) != len(soloStreamed) {
				t.Errorf("%s: streamed %d hits, want %d", label, len(streamed), len(soloStreamed))
			} else {
				for i := range streamed {
					if streamed[i] != soloStreamed[i] {
						t.Errorf("%s: streamed hit %d: %+v, want %+v", label, i, streamed[i], soloStreamed[i])
					}
				}
			}
		}
	}
}

// TestPlanBatchValidation pins the planner's range-tiling checks and the
// per-slot error routing.
func TestPlanBatchValidation(t *testing.T) {
	if _, err := PlanBatch(100, nil, []StartRange{{0, 50}, {60, 100}}); err == nil {
		t.Error("gap in shard ranges accepted")
	}
	if _, err := PlanBatch(100, nil, []StartRange{{0, 50}, {40, 100}}); err == nil {
		t.Error("overlapping shard ranges accepted")
	}
	if _, err := PlanBatch(100, nil, []StartRange{{0, 90}}); err == nil {
		t.Error("short shard coverage accepted")
	}
	plan, err := PlanBatch(100, []Query{{Kind: KindTopT, T: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Errs[0] == nil {
		t.Error("invalid t not recorded in plan errs")
	}
	if len(plan.Shards[0]) != 0 {
		t.Error("invalid slot still planned onto a shard")
	}
}

// queryFixtureSuffix builds the same corpus as queryFixture and returns a
// scanner over its suffix [cut, n) — a segment snapshot's in-memory shape.
func queryFixtureSuffix(t *testing.T, n, k int, seed int64, cut int) *Scanner {
	t.Helper()
	full := queryFixture(t, n, k, seed)
	sc, err := NewScanner(full.s[cut:], full.model)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}
