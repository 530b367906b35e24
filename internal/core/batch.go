package core

import "slices"

// This file implements the local shard executor: a set of ShardQueries (one
// shard's subplan — possibly the trivial single-shard plan RunBatch cuts)
// answered by chain-cover passes (engine.go), one pass per (range, length
// floor). The prefix counts are built once per Scanner and read by every
// pass, whatever the batch size.
//
// Every MSS, top-t and collecting threshold query on one (range, floor)
// rides one pass, whatever its kind, pruned at the lowest of the members'
// budgets: an MSS tracker shared by every MSS member (identical queries
// dedup for free), one heap at the members' largest t, each top-t member
// taking the leading t entries, and one sink per threshold member with its
// own α and limit — a window above a member's cutoff is above the lowest,
// so each member's hits are an exact filter of the pass. The passes run one
// after another, each on the request's worker count.
//
// Sharding: each pass scans only the start rows [RowLo, RowHi] its
// ShardQuery assigned it — the planner's clip of the query's start range
// against the shard's StartRange — while windows still extend to the
// query's own Hi. Shard row ranges partition the candidate set, so
// per-shard Stats sum to the solo totals and the merge layer (partial.go)
// reassembles exact results. The executor returns Partials, not final
// QueryResults: a shard cannot decide threshold overflow or cut a top-t
// boundary on its own.
//
// Every member of a pass reports that pass's Stats, so Evaluated + Skipped
// equals the query's candidate-substring count (summed across its shards)
// for every engine configuration, and Evaluated counts the windows the
// shared pass evaluated. A query alone in its pass reports exactly its solo
// RunQuery Stats: RunQuery is a batch of one.
//
// Result equivalence with the single-query paths is argued per kind in
// partial.go (the merge layer). Composite kinds (KindDisjoint and
// streaming-Visit thresholds) re-scan segments or need their own delivery,
// so the executor runs them as ordinary RunQuery calls over the same
// Scanner after the passes, whole on their single assigned shard.

// groupKey identifies the pass a query can ride, whatever its kind: same
// segment, same length floor, same start rows.
type groupKey struct {
	lo, hi       int
	minLen       int
	rowLo, rowHi int
}

// RunBatch executes every query against the scanner in as few chain-cover
// passes as possible. It is the planned query path specialised to one
// shard: plan the batch over the full start range, execute the single
// subplan, merge the partials — MSS, top-t and collecting threshold queries
// on one (range, floor) share one pass; disjoint and streaming queries
// follow as individual passes over the same prefix counts. The
// returned slice is parallel to qs: Results[i] answers qs[i], with any
// per-query validation or overflow error in its Err field, so one bad query
// never poisons the rest of the batch.
func (sc *Scanner) RunBatch(e Engine, qs []Query) []QueryResult {
	plan, err := PlanBatch(len(sc.s), qs, nil)
	if err != nil {
		// Unreachable with the nil (single full shard) partition; fail every
		// slot rather than panic if it ever becomes reachable.
		out := make([]QueryResult, len(qs))
		for i := range out {
			out[i] = QueryResult{Err: err}
		}
		return out
	}
	parts := sc.execShard(e, plan.Shards[0])
	return plan.Merge([][]Partial{parts})
}

// execShard is the local executor's core: group one shard's subplan by
// (range, floor), run each group's pass over its row range, and return the
// per-slot partials. Composite subqueries run as individual RunQuery passes
// after the groups. Coordinates are scanner-local; LocalExec translates
// absolute plans through its segment offset.
func (sc *Scanner) execShard(e Engine, sqs []ShardQuery) []Partial {
	if len(sqs) == 1 && !sqs[0].Composite {
		return sc.runGroup(e, sqs) // a solo query is its own group
	}
	var groups [][]ShardQuery
	index := make(map[groupKey]int)
	var composite []ShardQuery
	for _, sq := range sqs {
		if sq.Composite {
			composite = append(composite, sq)
			continue
		}
		key := groupKey{sq.Q.Lo, sq.Q.Hi, sq.Q.MinLen, sq.RowLo, sq.RowHi}
		g, ok := index[key]
		if !ok {
			g = len(groups)
			index[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], sq)
	}
	var parts []Partial
	for _, g := range groups {
		parts = append(parts, sc.runGroup(e, g)...)
	}
	for _, sq := range composite {
		r := sc.RunQuery(e, sq.Q)
		parts = append(parts, Partial{Slot: sq.Slot, Cands: r.Results, Stats: r.Stats, Err: r.Err})
	}
	return parts
}

// runGroup runs one group's pass — an MSS tracker if any member is MSS, a
// heap at the members' largest t, a sink per threshold member — and
// returns each member's Partial with the pass's Stats: the tracker's
// candidate, the heap's leading t entries, or the member's hits in scan
// order.
func (sc *Scanner) runGroup(e Engine, members []ShardQuery) []Partial {
	mss, t, tops := false, 0, 0
	var sinks []sink
	for _, m := range members {
		switch m.Q.Kind {
		case KindMSS:
			mss = true
		case KindTopT:
			t = max(t, m.Q.T)
			tops++
		case KindThreshold:
			sinks = append(sinks, sink{alpha: m.Q.Alpha, limit: m.Q.Limit})
		}
	}
	p := newPass(mss, t, sinks)
	first := members[0]
	st := sc.runPass(e, p, first.Q.Hi, first.Q.MinLen, first.RowLo, first.RowHi)
	var items []Scored
	if p.heap != nil {
		items = itemsToScored(p.heap.Items())
	}
	parts := make([]Partial, len(members))
	si := 0
	for i, m := range members {
		parts[i] = Partial{Slot: m.Slot, Stats: st}
		switch m.Q.Kind {
		case KindMSS:
			if p.best.X2 >= 0 {
				parts[i].Cands = []Scored{p.best}
			}
		case KindTopT:
			// Executors translate candidates in place, so every top-t member
			// but the last takes a copy.
			parts[i].Cands = items[:min(m.Q.T, len(items))]
			if tops--; tops > 0 {
				parts[i].Cands = slices.Clone(parts[i].Cands)
			}
		case KindThreshold:
			parts[i].Cands = p.found[si]
			si++
		}
	}
	return parts
}
