package core

import (
	"slices"

	"repro/internal/topheap"
)

// This file is the merge layer of the planned query path: each shard's
// executor returns Partials — per-kind mergeable result fragments plus the
// exact work counters of the scan that produced them — and Plan.Merge folds
// them into final QueryResults in a deterministic order, so S shards × W
// workers reproduces the solo scan:
//
//   - KindMSS: each partial carries the shard's better()-max candidate. Any
//     window tied with or beating the global maximum is evaluated by its
//     own shard (budgets only ever hold actual candidate X² values — sound
//     lower bounds — and soften keeps exact ties evaluated), so folding the
//     partials through better() yields the bit-identical interval, X², and
//     p-value of the sequential scan.
//   - KindThreshold: each partial carries the shard's qualifying windows in
//     scan order (start desc, end asc). Shards partition the start
//     positions ascending, so concatenating partials in DESCENDING shard
//     order reproduces the solo visit order bit-identically. Each shard
//     collects at most limit+1 hits, which keeps the overflow decision
//     exact: the concatenation overflows iff the solo scan's does.
//   - KindTopT: each partial carries the shard's top-t items. Every window
//     beating the final global t-th best is never skipped (a shard's budget
//     is its own running t-th best, which a subset of the candidates can
//     only understate) and never evicted from its shard's heap, so the
//     merged pool sorted by the canonical output order (score desc, start
//     asc, end asc) and cut at t has the identical X² multiset; intervals
//     exactly tied at the boundary may resolve differently, as the problem
//     statement permits (the same contract the parallel engine already
//     carries).
//   - Composite kinds (disjoint, streaming Visit) ran whole on one shard;
//     their single partial passes through.
//
// Per-slot Stats sum across shards: the shard row ranges partition the
// candidate set, so Evaluated + Skipped still equals the query's candidate
// count — the paper's machine-independent work metric — for every (S, W).

// Partial is one shard's fragment of one query slot's answer.
type Partial struct {
	// Slot indexes the batch query this fragment answers.
	Slot int
	// Cands holds the shard-local result fragment: the single best
	// candidate for KindMSS (empty when every row was pruned), the shard's
	// top-t items in canonical order for KindTopT, qualifying windows in
	// scan order for KindThreshold (at most limit+1 when the slot is
	// limited), and the finished result set for composite kinds.
	Cands []Scored
	// Stats are the exact work counters of the shard's scan for this slot.
	Stats Stats
	// Err is the shard-local per-query error (composite kinds only; split
	// kinds defer overflow decisions to the merge).
	Err error
}

// Merge folds per-shard partials into final QueryResults, parallel to the
// planned batch. partials[s] must hold shard s's Partials (any order within
// a shard); missing fragments — a slot whose candidate range missed a shard
// — are fine, that is how the planner cut them.
func (p *Plan) Merge(partials [][]Partial) []QueryResult {
	out := make([]QueryResult, len(p.Queries))
	// Regroup: bySlot[slot][s] holds shard s's fragment (nil when absent).
	bySlot := make([][]*Partial, len(p.Queries))
	for s := range partials {
		for i := range partials[s] {
			f := &partials[s][i]
			if f.Slot < 0 || f.Slot >= len(out) {
				continue
			}
			if bySlot[f.Slot] == nil {
				bySlot[f.Slot] = make([]*Partial, len(partials))
			}
			bySlot[f.Slot][s] = f
		}
	}
	for slot := range out {
		if err := p.Errs[slot]; err != nil {
			out[slot] = QueryResult{Err: err}
			continue
		}
		out[slot] = p.mergeSlot(slot, bySlot[slot])
	}
	return out
}

// mergeSlot folds one slot's per-shard fragments (indexed by shard,
// ascending; nil entries are shards the slot never touched).
func (p *Plan) mergeSlot(slot int, frags []*Partial) QueryResult {
	q := p.Queries[slot]
	var res QueryResult
	for _, f := range frags {
		if f == nil {
			continue
		}
		res.Stats.Evaluated += f.Stats.Evaluated
		res.Stats.Skipped += f.Stats.Skipped
		res.Stats.Starts += f.Stats.Starts
		if f.Err != nil && res.Err == nil {
			res.Err = f.Err
		}
	}
	if q.Kind == KindDisjoint || (q.Kind == KindThreshold && q.Visit != nil) {
		// Composite: exactly one shard ran it; pass its fragment through.
		for _, f := range frags {
			if f != nil {
				res.Results = f.Cands
			}
		}
		return res
	}
	switch q.Kind {
	case KindMSS:
		best := Scored{X2: -1}
		for s := len(frags) - 1; s >= 0; s-- {
			if f := frags[s]; f != nil && len(f.Cands) > 0 {
				if b := f.Cands[0]; b.X2 >= 0 && better(b.X2, b.Start, b.End, best) {
					best = b
				}
			}
		}
		if best.X2 >= 0 {
			res.Results = []Scored{best}
		}
	case KindTopT:
		var pool []Scored
		for _, f := range frags {
			if f != nil {
				pool = append(pool, f.Cands...)
			}
		}
		sortCanonical(pool)
		if len(pool) > q.T {
			pool = pool[:q.T]
		}
		res.Results = pool
	case KindThreshold:
		total := 0
		for _, f := range frags {
			if f != nil {
				total += len(f.Cands)
			}
		}
		overflow := q.Limit > 0 && total > q.Limit
		if overflow {
			total = q.Limit
		}
		res.Results = make([]Scored, 0, total)
		// Descending shard order = the solo scan's start-descending visit
		// order, bit-identically.
		for s := len(frags) - 1; s >= 0 && len(res.Results) < total; s-- {
			f := frags[s]
			if f == nil {
				continue
			}
			take := f.Cands
			if rem := total - len(res.Results); len(take) > rem {
				take = take[:rem]
			}
			res.Results = append(res.Results, take...)
		}
		if overflow {
			res.Err = overflowErr(q.Limit, q.Alpha)
		}
	}
	return res
}

// sortCanonical orders scored candidates by the canonical top-t output
// order: score descending, then start ascending, then end ascending — the
// order topheap.Items returns, so a single-shard merge is the identity.
func sortCanonical(rs []Scored) {
	slices.SortFunc(rs, func(a, b Scored) int {
		return topheap.Item{Start: a.Start, End: a.End, Score: a.X2}.
			CompareDesc(topheap.Item{Start: b.Start, End: b.End, Score: b.X2})
	})
}
