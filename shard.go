package sigsub

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
)

// This file is the public face of the planner/executor/merge split: a
// coordinator that holds no symbols plans a batch of Queries across suffix
// segments of a corpus (PlanShardBatch), ships each shard's subplan to
// whatever executes it — an in-process Scanner via ExecShard, or a peer
// daemon over HTTP (internal/service) — and folds the returned partials
// back into final results (ShardPlan.Merge) deterministically: S shards ×
// W workers reproduces the solo scan bit-identically for MSS, threshold,
// and disjoint queries, and with the identical X² multiset for top-t. The
// wire types (ShardQuery, ShardPartial) carry JSON tags so the daemon's
// scatter endpoints marshal them directly.
//
// Segment geometry: shard i of S over an n-symbol corpus owns the start
// positions [starts[i], starts[i+1]) and is served by the SUFFIX of the
// corpus beginning at starts[i] — windows extend toward the corpus end, so
// a segment must hold everything to the right of its first owned start.
// SegmentStarts computes the even partition offline builds use; any
// ascending cut list starting at 0 works.

// SegmentStarts returns the absolute start offset of each of `count`
// suffix segments of an n-symbol corpus, partitioning the start positions
// [0, n) into near-equal contiguous ranges. starts[0] is always 0; segment
// i owns starts [starts[i], starts[i+1]) (the last through n).
func SegmentStarts(n, count int) []int {
	ranges := core.EvenCuts(n, count)
	out := make([]int, len(ranges))
	for i, r := range ranges {
		out[i] = r.Lo
	}
	return out
}

// segmentRanges converts a cut list back to the core shard partition,
// validating shape (ascending from 0) lazily via core.PlanBatch.
func segmentRanges(n int, starts []int) []core.StartRange {
	if len(starts) == 0 {
		return nil
	}
	out := make([]core.StartRange, len(starts))
	for i, lo := range starts {
		hi := n
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		out[i] = core.StartRange{Lo: lo, Hi: hi}
	}
	return out
}

// ShardQuery is one slot's work on one shard, in wire form: the
// coordinator-normalized query (absolute coordinates, Hi resolved — an
// executor must run it verbatim, never re-applying the public Hi == 0
// sentinel) plus the inclusive row range [RowLo, RowHi] of start positions
// this shard scans for it. Composite marks a query that runs whole on its
// single assigned shard (disjoint peels re-scan sub-segments and cannot
// split).
type ShardQuery struct {
	Slot      int     `json:"slot"`
	Kind      string  `json:"kind"`
	T         int     `json:"t,omitempty"`
	Alpha     float64 `json:"alpha,omitempty"`
	MinLength int     `json:"min_length,omitempty"`
	Lo        int     `json:"lo"`
	Hi        int     `json:"hi"`
	Limit     int     `json:"limit,omitempty"`
	RowLo     int     `json:"row_lo"`
	RowHi     int     `json:"row_hi"`
	Composite bool    `json:"composite,omitempty"`
}

// toCore translates the wire form back to the executor's plan, validating
// the fields a hostile or version-skewed peer could have mangled.
func (sq ShardQuery) toCore() (core.ShardQuery, error) {
	pk, err := ParseQueryKind(sq.Kind)
	if err != nil {
		return core.ShardQuery{}, err
	}
	kind, err := pk.core()
	if err != nil {
		return core.ShardQuery{}, err
	}
	if (pk == QueryTopT || pk == QueryDisjoint) && sq.T < 1 {
		return core.ShardQuery{}, fmt.Errorf("sigsub: shard query slot %d: t = %d, want ≥ 1", sq.Slot, sq.T)
	}
	q := core.Query{
		Kind:   kind,
		T:      sq.T,
		Alpha:  sq.Alpha,
		MinLen: sq.MinLength,
		Lo:     sq.Lo,
		Hi:     sq.Hi,
		Limit:  sq.Limit,
	}
	if q.MinLen < 1 {
		q.MinLen = 1
	}
	if q.Lo < 0 || q.Hi < q.Lo {
		return core.ShardQuery{}, fmt.Errorf("sigsub: shard query slot %d: bad range [%d, %d)", sq.Slot, sq.Lo, sq.Hi)
	}
	// A split subquery scans its rows verbatim, so they must be starts of
	// the query's own candidates; an empty row range scans nothing.
	if !sq.Composite && sq.RowLo <= sq.RowHi && (sq.RowLo < q.Lo || sq.RowHi > q.Hi-q.MinLen) {
		return core.ShardQuery{}, fmt.Errorf("sigsub: shard query slot %d: rows [%d, %d] outside the starts [%d, %d] of range [%d, %d) with length floor %d",
			sq.Slot, sq.RowLo, sq.RowHi, q.Lo, q.Hi-q.MinLen, q.Lo, q.Hi, q.MinLen)
	}
	return core.ShardQuery{Slot: sq.Slot, Q: q, RowLo: sq.RowLo, RowHi: sq.RowHi, Composite: sq.Composite}, nil
}

// shardQueryFromCore translates a planned core subquery to the wire form.
func shardQueryFromCore(sq core.ShardQuery) ShardQuery {
	kind := QueryMSS
	switch sq.Q.Kind {
	case core.KindTopT:
		kind = QueryTopT
	case core.KindThreshold:
		kind = QueryThreshold
	case core.KindDisjoint:
		kind = QueryDisjoint
	}
	return ShardQuery{
		Slot:      sq.Slot,
		Kind:      kind.String(),
		T:         sq.Q.T,
		Alpha:     sq.Q.Alpha,
		MinLength: sq.Q.MinLen,
		Lo:        sq.Q.Lo,
		Hi:        sq.Q.Hi,
		Limit:     sq.Q.Limit,
		RowLo:     sq.RowLo,
		RowHi:     sq.RowHi,
		Composite: sq.Composite,
	}
}

// ShardCandidate is one scored interval of a shard's partial result, in
// absolute corpus coordinates. X² is carried raw (p-values are computed at
// merge, where the alphabet size is known).
type ShardCandidate struct {
	Start int     `json:"start"`
	End   int     `json:"end"`
	X2    float64 `json:"x2"`
}

// ShardPartial is one shard's fragment of one query slot's answer: the
// kind-specific mergeable candidates plus the exact work counters of the
// scan that produced them. Err carries a composite slot's own error text
// (split kinds defer overflow decisions to the merge).
type ShardPartial struct {
	Slot      int              `json:"slot"`
	Cands     []ShardCandidate `json:"cands,omitempty"`
	Evaluated int64            `json:"evaluated"`
	Skipped   int64            `json:"skipped"`
	Starts    int64            `json:"starts"`
	Err       string           `json:"err,omitempty"`
}

// ExecShard executes one shard's subplan on this Scanner and returns its
// partials for the coordinator's merge. The Scanner holds either the full
// corpus (offset 0) or the suffix segment beginning at absolute position
// offset — the shape `mss -segments` writes and OpenSnapshot serves.
// Subplan coordinates are absolute; the offset translation happens here.
// Every subquery must lie inside the segment's coverage [offset,
// offset+Len()), or the whole call errors: a shard's answers are exact or
// absent, never silently clipped. Options configure the local engine
// (workers); ctx cancels the scan between row claims. Each pass prunes only
// against windows it evaluated itself, so every fragment is exact.
func (s *Scanner) ExecShard(ctx context.Context, shard, offset int, sqs []ShardQuery, opts ...Option) ([]ShardPartial, error) {
	if offset < 0 {
		return nil, fmt.Errorf("sigsub: negative segment offset %d", offset)
	}
	o := buildOptions(opts)
	csqs := make([]core.ShardQuery, len(sqs))
	for i, sq := range sqs {
		csq, err := sq.toCore()
		if err != nil {
			return nil, err
		}
		csqs[i] = csq
	}
	exec := core.LocalExec{Sc: s.sc, Offset: offset}
	parts, err := exec.ExecShard(ctx, o.engine(), shard, csqs)
	if err != nil {
		return nil, err
	}
	out := make([]ShardPartial, len(parts))
	for i, p := range parts {
		sp := ShardPartial{
			Slot:      p.Slot,
			Evaluated: p.Stats.Evaluated,
			Skipped:   p.Stats.Skipped,
			Starts:    p.Stats.Starts,
		}
		if p.Err != nil {
			sp.Err = p.Err.Error()
		}
		if len(p.Cands) > 0 {
			sp.Cands = make([]ShardCandidate, len(p.Cands))
			for ci, c := range p.Cands {
				sp.Cands[ci] = ShardCandidate{Start: c.Start, End: c.End, X2: c.X2}
			}
		}
		out[i] = sp
	}
	return out, nil
}

// ShardPlan is a batch of queries partitioned across suffix segments: the
// coordinator-side handle that knows which subplan each shard runs and how
// to fold the partials back together.
type ShardPlan struct {
	n    int
	plan *core.Plan
}

// PlanShardBatch plans a batch of Queries across the suffix segments of an
// n-symbol corpus cut at the given starts (ascending, first 0; nil plans a
// single full-corpus shard). Queries are lowered exactly as RunBatch lowers
// them — the Hi == 0 sentinel resolves to n, a zero threshold Limit to the
// default cap — so a sharded run answers the same question a solo run
// would. Per-query validation failures (t < 1, unknown kind) are recorded
// in the plan and surface as that slot's error at Merge; a malformed cut
// list fails the whole plan.
func PlanShardBatch(n int, starts []int, qs []Query) (*ShardPlan, error) {
	if n <= 0 {
		return nil, errors.New("sigsub: cannot plan over an empty corpus")
	}
	cqs, lowerErrs := lowerBatch(qs, n)
	plan, err := core.PlanBatch(n, cqs, segmentRanges(n, starts))
	if err != nil {
		return nil, fmt.Errorf("sigsub: %w", err)
	}
	for i, lerr := range lowerErrs {
		if lerr != nil {
			// The clearer public error wins over core's sentinel-kind error.
			plan.Errs[i] = lerr
		}
	}
	return &ShardPlan{n: n, plan: plan}, nil
}

// Shards returns the number of segments the plan is cut across.
func (p *ShardPlan) Shards() int { return len(p.plan.Shards) }

// Len returns the corpus length the plan was made against.
func (p *ShardPlan) Len() int { return p.n }

// SegmentRange returns the half-open range [lo, hi) of start positions
// shard owns.
func (p *ShardPlan) SegmentRange(shard int) (lo, hi int) {
	r := p.plan.Ranges[shard]
	return r.Lo, r.Hi
}

// Subplan returns shard's subqueries in wire form — empty when no query
// touches the shard, in which case the coordinator need not contact it.
func (p *ShardPlan) Subplan(shard int) []ShardQuery {
	sqs := p.plan.Shards[shard]
	if len(sqs) == 0 {
		return nil
	}
	out := make([]ShardQuery, len(sqs))
	for i, sq := range sqs {
		out[i] = shardQueryFromCore(sq)
	}
	return out
}

// Merge folds the per-shard partials into final QueryResults, parallel to
// the planned batch. partials[s] must hold shard s's fragments (any order
// within a shard; slots a shard never touched are simply absent). k is the
// corpus alphabet size, used to attach p-values. The fold is deterministic
// and matches the solo scan per kind: bit-identical intervals and X² for
// MSS/threshold/disjoint, identical X² multisets for top-t, and per-slot
// Evaluated + Skipped equal to the query's exact candidate count.
func (p *ShardPlan) Merge(partials [][]ShardPartial, k int) ([]QueryResult, error) {
	if k < 2 {
		return nil, fmt.Errorf("sigsub: alphabet size %d, want ≥ 2", k)
	}
	if len(partials) != p.Shards() {
		return nil, fmt.Errorf("sigsub: merging %d shards of partials, plan has %d", len(partials), p.Shards())
	}
	cps := make([][]core.Partial, len(partials))
	for s := range partials {
		cps[s] = make([]core.Partial, len(partials[s]))
		for i, sp := range partials[s] {
			cp := core.Partial{
				Slot: sp.Slot,
				Stats: core.Stats{
					Evaluated: sp.Evaluated,
					Skipped:   sp.Skipped,
					Starts:    sp.Starts,
				},
			}
			if sp.Err != "" {
				cp.Err = errors.New(sp.Err)
			}
			if len(sp.Cands) > 0 {
				cp.Cands = make([]core.Scored, len(sp.Cands))
				for ci, c := range sp.Cands {
					cp.Cands[ci] = core.Scored{Interval: core.Interval{Start: c.Start, End: c.End}, X2: c.X2}
				}
			}
			cps[s][i] = cp
		}
	}
	rs := p.plan.Merge(cps)
	out := make([]QueryResult, len(rs))
	for i, r := range rs {
		qr := QueryResult{Stats: toStats(r.Stats), Err: r.Err}
		qr.Results = make([]Result, len(r.Results))
		for ri, c := range r.Results {
			qr.Results[ri] = Result{Start: c.Start, End: c.End, Length: c.Len(), X2: c.X2, PValue: PValue(c.X2, k)}
		}
		out[i] = qr
	}
	return out, nil
}
