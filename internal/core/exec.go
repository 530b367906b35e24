package core

import (
	"context"
	"fmt"
	"sync"
)

// This file is the executor layer of the planned query path: a ShardExec
// turns one shard's subplan into Partials. LocalExec runs the batch.go
// executor — one chain-cover pass per (range, length floor) — against an
// in-process Scanner, optionally offset when the Scanner holds a suffix
// segment of a larger corpus. The remote implementation (HTTP scatter to
// mssd peers serving segment snapshots) lives in internal/service, above
// this package's dependency horizon.
//
// Each shard prunes against its own budgets only; nothing crosses shards
// mid-scan. Every budget is a query's α or the X² of a window the shard
// evaluated, so each shard's fragment is exact, and the merge layer's
// determinism argument (partial.go) never depends on shard scheduling.

// ShardExec executes one shard's subplan of a Plan. Implementations return
// one Partial per (slot, shard) fragment; a non-nil error poisons the whole
// shard (the caller decides between retry, degraded partial-refusal, or
// failure — partial results are never silently wrong).
type ShardExec interface {
	ExecShard(ctx context.Context, e Engine, shard int, sqs []ShardQuery) ([]Partial, error)
}

// LocalExec executes shard subplans against an in-process Scanner — the
// engine extracted behind the ShardExec interface.
type LocalExec struct {
	// Sc is the scanner holding the shard's symbols: the full corpus
	// (Offset 0) or a suffix segment starting at absolute position Offset.
	Sc *Scanner
	// Offset is the absolute corpus position of Sc's local position 0.
	// ShardQuery coordinates are absolute; results are translated back.
	Offset int
}

// ExecShard runs the subplan on the local scanner. Queries must lie inside
// the segment's coverage [Offset, Offset+len): the planner guarantees this
// for suffix segments sliced at the shard's own start range.
func (l LocalExec) ExecShard(ctx context.Context, e Engine, shard int, sqs []ShardQuery) ([]Partial, error) {
	n := len(l.Sc.s)
	loc := make([]ShardQuery, len(sqs))
	for i, sq := range sqs {
		// Coverage: the shard scans rows from RowLo on and windows extend to
		// the query's Hi, so the segment must span [RowLo, Q.Hi). Q.Lo may
		// predate the segment (a range that began in an earlier shard);
		// clamping it to the segment start below is exact because this shard
		// scans none of those earlier rows.
		if sq.RowLo < l.Offset || sq.Q.Hi > l.Offset+n {
			return nil, fmt.Errorf("core: shard %d segment [%d, %d) does not cover slot %d rows [%d, %d] of query range [%d, %d)", shard, l.Offset, l.Offset+n, sq.Slot, sq.RowLo, sq.RowHi, sq.Q.Lo, sq.Q.Hi)
		}
		sq.Q.Lo -= l.Offset
		if sq.Q.Lo < 0 {
			sq.Q.Lo = 0
		}
		sq.Q.Hi -= l.Offset
		sq.RowLo -= l.Offset
		sq.RowHi -= l.Offset
		if visit := sq.Q.Visit; visit != nil && l.Offset != 0 {
			off := l.Offset
			sq.Q.Visit = func(s Scored) {
				s.Start += off
				s.End += off
				visit(s)
			}
		}
		loc[i] = sq
	}
	if ctx != nil && ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var release func()
		e, release = e.withStop(ctx)
		defer release()
	}
	parts := l.Sc.execShard(e, loc)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			// A cancelled scan's partials are unusable by construction;
			// returning them would invite the merge to treat them as exact.
			return nil, err
		}
	}
	if l.Offset != 0 {
		for pi := range parts {
			for ci := range parts[pi].Cands {
				parts[pi].Cands[ci].Start += l.Offset
				parts[pi].Cands[ci].End += l.Offset
			}
		}
	}
	return parts, nil
}

// RunPlan executes every shard of the plan through exec concurrently and
// merges the partials. It is the in-process scatter-gather loop: the
// service coordinator reimplements it with per-shard timeouts, retries, and
// degraded partial-refusal, but the merge is this same deterministic fold.
// A shard error fails the whole run — a plan's answers are exact or absent.
func RunPlan(ctx context.Context, e Engine, p *Plan, exec ShardExec) ([]QueryResult, error) {
	partials := make([][]Partial, len(p.Shards))
	errs := make([]error, len(p.Shards))
	var wg sync.WaitGroup
	for s := range p.Shards {
		if len(p.Shards[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			partials[s], errs[s] = exec.ExecShard(ctx, e, s, p.Shards[s])
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", s, err)
		}
	}
	return p.Merge(partials), nil
}
