package core

import "slices"

// This file implements the local shard executor: a set of ShardQueries (one
// shard's subplan — possibly the trivial single-shard plan RunBatch cuts)
// answered by the chain-cover engines RunQuery runs, one engine pass per
// scan group. The prefix counts are built once per Scanner and read by every
// pass, whatever the batch size.
//
// Queries whose answers subsume each other merge into one scan group first:
// threshold queries over the same (range, length floor) collapse into a
// single scan at their minimum α — a window with X² above a member's cutoff
// is above the group's, so each member's result set is an exact filter of
// the group scan — and top-t queries over the same (range, floor) collapse
// into one scan at the maximum t, each member taking the leading t entries
// of the group's heap. Identical queries dedup to one scan for free. MSS-kind
// queries keep a scan each (their first-discovered-max tie-breaking is
// per-query state). The groups then run one after another, each on the
// request's worker count.
//
// Sharding: each group scans only the start rows [RowLo, RowHi] its
// ShardQuery assigned it — the planner's clip of the query's start range
// against the shard's StartRange — while windows still extend to the
// query's own Hi. Shard row ranges partition the candidate set, so
// per-shard Stats sum to the solo totals and the merge layer (partial.go)
// reassembles exact results. The executor returns Partials, not final
// QueryResults: a shard cannot decide threshold overflow or cut a top-t
// boundary on its own.
//
// Every member of a group reports the Stats of the pass that served it, so
// Evaluated + Skipped equals the query's candidate-substring count (summed
// across its shards) for every engine configuration. A query alone in its
// group reports exactly its solo RunQuery Stats at one worker; a subsumed
// threshold reports the lower-α scan it rode.
//
// Result equivalence with the single-query paths is argued per kind in
// partial.go (the merge layer). Composite kinds (KindDisjoint and
// streaming-Visit thresholds) re-scan segments or need their own delivery,
// so the executor runs them as ordinary RunQuery calls over the same
// Scanner after the groups, whole on their single assigned shard.

// groupKey identifies the scan a query can ride: same kind, same segment,
// same length floor. Every ShardQuery of one executor call shares the same
// shard StartRange, so equal keys imply equal row clips.
type groupKey struct {
	kind   Kind
	lo, hi int
	minLen int
}

// scanGroup is one engine pass answering one or more subsumable queries.
type scanGroup struct {
	sq    ShardQuery // the first member: the pass's range, floor and rows
	slots []int      // every member's batch slot
	ts    []int      // KindTopT: each member's t
	sinks []sink     // KindThreshold: each member's cutoff and limit
}

// RunBatch executes every query against the scanner in as few engine passes
// as possible. It is the planned query path specialised to one shard: plan
// the batch over the full start range, execute the single subplan on the
// local engines, merge the partials — subsumable MSS/top-t/threshold-collect
// queries merge into scan groups of one pass each; disjoint and streaming
// queries follow as individual passes over the same prefix counts. The
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
// subsumption, run each group's engine pass over its row range, and return
// the per-slot partials. Composite subqueries run as individual RunQuery
// passes after the groups. Coordinates are scanner-local; LocalExec
// translates absolute plans through its segment offset.
func (sc *Scanner) execShard(e Engine, sqs []ShardQuery) []Partial {
	var groups []*scanGroup
	index := make(map[groupKey]*scanGroup)
	var composite []ShardQuery
	for _, sq := range sqs {
		if sq.Composite {
			composite = append(composite, sq)
			continue
		}
		q := sq.Q
		key := groupKey{kind: q.Kind, lo: q.Lo, hi: q.Hi, minLen: q.MinLen}
		g := index[key]
		if g == nil || q.Kind == KindMSS {
			g = &scanGroup{sq: sq}
			groups = append(groups, g)
			if q.Kind != KindMSS {
				index[key] = g
			}
		}
		g.slots = append(g.slots, sq.Slot)
		switch q.Kind {
		case KindTopT:
			g.ts = append(g.ts, q.T)
		case KindThreshold:
			g.sinks = append(g.sinks, sink{alpha: q.Alpha, limit: q.Limit})
		}
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

// runGroup runs one scan group's engine pass and returns each member's
// Partial: the MSS candidate, the leading t entries of the max-t heap, or
// the member's hits in scan order, at most limit+1 of them (limit+1 is
// enough for the merge layer, which owns limits and overflow, to decide).
func (sc *Scanner) runGroup(e Engine, g *scanGroup) []Partial {
	q, rowLo, rowHi := g.sq.Q, g.sq.RowLo, g.sq.RowHi
	parts := make([]Partial, len(g.slots))
	switch q.Kind {
	case KindMSS:
		best, st := sc.engineMSSRange(e, q.Lo, q.Hi, q.MinLen, rowLo, rowHi)
		parts[0] = Partial{Slot: g.slots[0], Stats: st}
		if best.End > best.Start {
			parts[0].Cands = []Scored{best}
		}
	case KindTopT:
		items, st, err := sc.engineTopT(e, slices.Max(g.ts), q.Hi, q.MinLen, rowLo, rowHi)
		for i, t := range g.ts {
			// A copy per member: executors translate candidates in place.
			lead := slices.Clone(items[:min(t, len(items))])
			parts[i] = Partial{Slot: g.slots[i], Cands: lead, Stats: st, Err: err}
		}
	case KindThreshold:
		found := make([][]Scored, len(g.sinks))
		st := sc.engineThreshold(e, g.sinks, q.Hi, q.MinLen, rowLo, rowHi, func(si int, s Scored) {
			if lim := g.sinks[si].limit; lim <= 0 || len(found[si]) <= lim {
				found[si] = append(found[si], s)
			}
		})
		for i := range parts {
			parts[i] = Partial{Slot: g.slots[i], Cands: found[i], Stats: st}
		}
	}
	return parts
}
