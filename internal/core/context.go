package core

import (
	"context"
	"sync/atomic"
)

// Context-aware entry points. The engine's scan loops poll a cooperative
// cancellation flag at chain-cover-start granularity (see Engine.stop):
// installing the flag costs one atomic load per start row, nothing per
// position, and a context that never fires leaves every result bit-identical
// to the context-free paths. When the context fires mid-scan, workers stop
// claiming rows, the at-most-one row in flight per worker drains, and the
// call returns ctx.Err() with the partial work counters (the partial results
// are discarded — a cancelled scan's answer is unusable by construction, and
// returning it would invite callers to treat it as exact).

// withStop installs a cancellation flag for ctx into the engine. The
// returned cleanup releases the context watcher; it must be called before
// the flag goes out of scope.
func (e Engine) withStop(ctx context.Context) (Engine, func()) {
	var flag atomic.Bool
	cancel := context.AfterFunc(ctx, func() { flag.Store(true) })
	e.stop = &flag
	return e, func() { cancel() }
}

// RunQueryContext is RunQuery with cooperative cancellation: the scan
// abandons its remaining start rows within one preemption quantum (a single
// chain-cover row per worker) of ctx firing and reports ctx.Err() in
// QueryResult.Err alongside the work counters accumulated so far. A context
// that cannot fire (Background, TODO) dispatches straight to RunQuery.
func (sc *Scanner) RunQueryContext(ctx context.Context, e Engine, q Query) QueryResult {
	if ctx.Done() == nil {
		return sc.RunQuery(e, q)
	}
	if err := ctx.Err(); err != nil {
		return QueryResult{Err: err}
	}
	e, release := e.withStop(ctx)
	defer release()
	r := sc.RunQuery(e, q)
	if err := ctx.Err(); err != nil {
		return QueryResult{Stats: r.Stats, Err: err}
	}
	return r
}

// RunBatchContext is RunBatch with cooperative cancellation: every engine
// pass of the batch polls one flag, so a fired context stops the whole batch
// within one preemption quantum per worker. On cancellation every slot
// reports ctx.Err() (with its partial counters); otherwise the answers are
// bit-identical to RunBatch.
func (sc *Scanner) RunBatchContext(ctx context.Context, e Engine, qs []Query) []QueryResult {
	if ctx.Done() == nil {
		return sc.RunBatch(e, qs)
	}
	out := make([]QueryResult, len(qs))
	if err := ctx.Err(); err != nil {
		for i := range out {
			out[i] = QueryResult{Err: err}
		}
		return out
	}
	e, release := e.withStop(ctx)
	defer release()
	out = sc.RunBatch(e, qs)
	if err := ctx.Err(); err != nil {
		for i := range out {
			out[i] = QueryResult{Stats: out[i].Stats, Err: err}
		}
	}
	return out
}
