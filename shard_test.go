package sigsub

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
)

// shardTestBatch is the mixed workload the public sharding golden tests
// scatter: every kind, ranges, floors, limits that overflow, and an
// invalid slot.
func shardTestBatch(n int) []Query {
	return []Query{
		{Kind: QueryMSS},
		{Kind: QueryMSS, Lo: n / 5, Hi: 4 * n / 5, MinLength: 3},
		{Kind: QueryTopT, T: 7},
		{Kind: QueryTopT, T: 4, Lo: n / 6, Hi: n / 2, MinLength: 2},
		{Kind: QueryThreshold, Alpha: 6},
		{Kind: QueryThreshold, Alpha: 2, Lo: n / 3, Hi: 2 * n / 3, Limit: 5},
		{Kind: QueryDisjoint, T: 3, MinLength: 4},
		{Kind: QueryTopT}, // invalid: t < 1
	}
}

// TestShardedScatterGolden plans the batch across suffix segments, executes
// each segment on its own Scanner (the exact shape `mss -segments` builds),
// round-trips the subplans and partials through JSON — the wire the daemon
// speaks — and merges: the answer must match a solo RunBatch bit-identically
// (X² multiset for top-t), including the per-slot error texts.
func TestShardedScatterGolden(t *testing.T) {
	const n, k = 2000, 3
	full, model := parallelFixture(t, n, k, 99)
	qs := shardTestBatch(n)
	solo, err := full.RunBatch(qs)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 3, 7} {
		for _, workers := range []int{1, 8} {
			starts := SegmentStarts(n, shards)
			plan, err := PlanShardBatch(n, starts, qs)
			if err != nil {
				t.Fatalf("S=%d: plan: %v", shards, err)
			}
			partials := make([][]ShardPartial, plan.Shards())
			for s := 0; s < plan.Shards(); s++ {
				sub := plan.Subplan(s)
				if len(sub) == 0 {
					continue
				}
				// Round-trip the subplan through JSON, as the scatter does.
				wire, err := json.Marshal(sub)
				if err != nil {
					t.Fatal(err)
				}
				var decoded []ShardQuery
				if err := json.Unmarshal(wire, &decoded); err != nil {
					t.Fatal(err)
				}
				lo, _ := plan.SegmentRange(s)
				seg, err := NewScanner(full.Symbols()[lo:], model)
				if err != nil {
					t.Fatal(err)
				}
				parts, err := seg.ExecShard(context.Background(), s, lo, decoded, WithWorkers(workers))
				if err != nil {
					t.Fatalf("S=%d shard %d: %v", shards, s, err)
				}
				pw, err := json.Marshal(parts)
				if err != nil {
					t.Fatal(err)
				}
				partials[s] = nil
				if err := json.Unmarshal(pw, &partials[s]); err != nil {
					t.Fatal(err)
				}
			}
			got, err := plan.Merge(partials, k)
			if err != nil {
				t.Fatalf("S=%d: merge: %v", shards, err)
			}
			assertShardedGolden(t, shards, workers, qs, solo, got)
		}
	}
}

func assertShardedGolden(t *testing.T, shards, workers int, qs []Query, solo, got []QueryResult) {
	t.Helper()
	if len(got) != len(solo) {
		t.Fatalf("S=%d/W=%d: %d results, want %d", shards, workers, len(got), len(solo))
	}
	for i, q := range qs {
		g, s := got[i], solo[i]
		if (g.Err == nil) != (s.Err == nil) || (g.Err != nil && g.Err.Error() != s.Err.Error()) {
			t.Errorf("S=%d/W=%d slot %d: err %v, want %v", shards, workers, i, g.Err, s.Err)
			continue
		}
		if q.Kind == QueryTopT {
			if !sameX2Multiset(g.Results, s.Results) {
				t.Errorf("S=%d/W=%d slot %d: top-t X² multiset differs:\n got %v\nwant %v", shards, workers, i, g.Results, s.Results)
			}
			continue
		}
		if len(g.Results) != len(s.Results) {
			t.Errorf("S=%d/W=%d slot %d: %d results, want %d", shards, workers, i, len(g.Results), len(s.Results))
			continue
		}
		for ri := range g.Results {
			if g.Results[ri] != s.Results[ri] {
				t.Errorf("S=%d/W=%d slot %d result %d: %+v, want %+v", shards, workers, i, ri, g.Results[ri], s.Results[ri])
			}
		}
		if g.Err == nil && (g.Stats.Evaluated+g.Stats.Skipped) != (s.Stats.Evaluated+s.Stats.Skipped) {
			t.Errorf("S=%d/W=%d slot %d: accounts %d windows, solo %d", shards, workers, i, (g.Stats.Evaluated + g.Stats.Skipped), (s.Stats.Evaluated + s.Stats.Skipped))
		}
	}
}

// sameX2Multiset reports whether two result sets carry bit-identical X²
// multisets.
func sameX2Multiset(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := make([]uint64, len(a)), make([]uint64, len(b))
	for i := range a {
		as[i], bs[i] = math.Float64bits(a[i].X2), math.Float64bits(b[i].X2)
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

// TestPlanShardBatchValidation pins the public planner's input checks.
func TestPlanShardBatchValidation(t *testing.T) {
	if _, err := PlanShardBatch(0, nil, nil); err == nil {
		t.Error("empty corpus planned")
	}
	if _, err := PlanShardBatch(100, []int{10, 50}, nil); err == nil {
		t.Error("cut list not starting at 0 accepted")
	}
	if _, err := PlanShardBatch(100, []int{0, 50, 40}, nil); err == nil {
		t.Error("descending cut list accepted")
	}
	plan, err := PlanShardBatch(100, []int{0, 50}, []Query{{Kind: QueryKind(9)}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Merge(make([][]ShardPartial, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err == nil {
		t.Error("unknown kind's slot error lost in merge")
	}
}

// TestExecShardRejectsBadSubplans pins the executor-side wire validation:
// queries outside the segment's coverage or with mangled fields error the
// whole call rather than returning silently wrong partials.
func TestExecShardRejectsBadSubplans(t *testing.T) {
	sc, _ := parallelFixture(t, 400, 2, 7)
	ctx := context.Background()
	if _, err := sc.ExecShard(ctx, 0, 0, []ShardQuery{{Kind: "nope", Lo: 0, Hi: 10, RowHi: 9}}); err == nil {
		t.Error("unknown wire kind accepted")
	}
	if _, err := sc.ExecShard(ctx, 0, 0, []ShardQuery{{Kind: "topt", T: 0, Lo: 0, Hi: 10, RowHi: 9}}); err == nil {
		t.Error("t = 0 accepted")
	}
	if _, err := sc.ExecShard(ctx, 0, 0, []ShardQuery{{Kind: "mss", Lo: 0, Hi: 401, RowHi: 400}}); err == nil {
		t.Error("query past segment end accepted")
	}
	seg, err := NewScanner(sc.Symbols()[100:], mustUniform(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.ExecShard(ctx, 1, 100, []ShardQuery{{Kind: "mss", Lo: 0, Hi: 400, RowLo: 50, RowHi: 399}}); err == nil {
		t.Error("rows before the segment offset accepted")
	}

	// A split subquery's rows must be starts of its own candidates: rows
	// past Hi − floor crashed a scan worker goroutine, rows before Lo
	// answered outside the query. An empty row range stays legal.
	small, err := NewScanner(sc.Symbols()[:20], mustUniform(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sq ShardQuery
		ok bool
	}{
		{ShardQuery{Kind: "threshold", Alpha: 1, Lo: 0, Hi: 20, RowLo: 0, RowHi: 20}, false},
		{ShardQuery{Kind: "mss", Lo: 10, Hi: 20, RowLo: 0, RowHi: 19}, false},
		{ShardQuery{Kind: "topt", T: 3, MinLength: 5, Lo: 0, Hi: 20, RowLo: 0, RowHi: 16}, false},
		{ShardQuery{Kind: "topt", T: 3, MinLength: 5, Lo: 0, Hi: 20, RowLo: 0, RowHi: 15}, true},
		{ShardQuery{Kind: "mss", Lo: 10, Hi: 20, RowLo: 10, RowHi: 19}, true},
		{ShardQuery{Kind: "mss", Lo: 10, Hi: 20, RowLo: 15, RowHi: 3}, true},
	} {
		_, err := small.ExecShard(ctx, 0, 0, []ShardQuery{c.sq})
		if (err == nil) != c.ok {
			t.Errorf("%+v: err %v, want accepted=%v", c.sq, err, c.ok)
		}
	}
}

// TestExecShardHugeT: a top-t or disjoint t far past the candidate count,
// as an untrusted peer may send, answers exactly as t = candidate count
// does, alone and in a batch, instead of allocating t heap slots up front.
func TestExecShardHugeT(t *testing.T) {
	const n, huge = 20, 1 << 40
	sc, _ := parallelFixture(t, n, 2, 3)
	cands := n * (n + 1) / 2
	exec := func(batch []Query) []QueryResult {
		t.Helper()
		plan, err := PlanShardBatch(n, nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := sc.ExecShard(context.Background(), 0, 0, plan.Subplan(0))
		if err != nil {
			t.Fatal(err)
		}
		out, err := plan.Merge([][]ShardPartial{parts}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, batch := range [][]Query{
		{TopTQuery(huge)},
		{TopTQuery(huge), DisjointQuery(huge)},
	} {
		want := make([]Query, len(batch))
		for i, q := range batch {
			q.T = cands
			want[i] = q
		}
		got, ref := exec(batch), exec(want)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%d-query batch: t = 2^40 answered %+v, t = %d answered %+v", len(batch), got, cands, ref)
		}
	}
}
