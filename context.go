package sigsub

import (
	"context"
	"errors"

	"repro/internal/core"
)

// RunContext is Run with cooperative cancellation. The exact engine polls the
// context's cancellation flag once per chain-cover start row — the scan's
// natural preemption quantum — so a fired context (client disconnect,
// deadline) stops the scan within one row per worker without adding any
// per-position cost; a context that never fires leaves the result
// bit-identical to Run. On cancellation the partial answer is discarded (a
// half-scanned best is not the best) and ctx.Err() is returned as the
// function error.
func (s *Scanner) RunContext(ctx context.Context, q Query, opts ...Option) (QueryResult, error) {
	if s.sc.Len() == 0 {
		return QueryResult{}, errors.New("sigsub: cannot scan an empty string")
	}
	o := buildOptions(opts)
	cq, err := lowerQuery(q, s.sc.Len())
	if err != nil {
		return QueryResult{}, err
	}
	r := s.sc.RunQueryContext(ctx, o.engine(), cq)
	record(o, r.Stats)
	if cerr := context.Cause(ctx); cerr != nil {
		return QueryResult{}, cerr
	}
	if r.Err != nil && len(r.Results) == 0 {
		return QueryResult{}, r.Err
	}
	return s.queryResult(r), nil
}

// RunBatchContext is RunBatch with cooperative cancellation: every
// chain-cover pass of the batch polls one flag at start-row granularity, so
// a fired context stops the whole batch within one row per worker. As in
// RunBatch, WithStats sums the slots' counters, counting a shared pass once
// per query riding it. On
// cancellation the partial per-query answers are discarded, every slot's Err
// reports the cancellation, and ctx.Err() is returned as the function error
// (the returned slice stays parallel to qs so callers can still read the
// per-slot work counters).
func (s *Scanner) RunBatchContext(ctx context.Context, qs []Query, opts ...Option) ([]QueryResult, error) {
	if s.sc.Len() == 0 {
		return nil, errors.New("sigsub: cannot scan an empty string")
	}
	o := buildOptions(opts)
	cqs, lowerErrs := lowerBatch(qs, s.sc.Len())
	rs := s.sc.RunBatchContext(ctx, o.engine(), cqs)
	out := make([]QueryResult, len(rs))
	var sum core.Stats
	for i, r := range rs {
		out[i] = s.queryResult(r)
		if lowerErrs[i] != nil {
			out[i].Err = lowerErrs[i]
		}
		sum.Evaluated += r.Stats.Evaluated
		sum.Skipped += r.Stats.Skipped
		sum.Starts += r.Stats.Starts
	}
	record(o, sum)
	if cerr := context.Cause(ctx); cerr != nil {
		for i := range out {
			out[i].Results = nil
			if out[i].Err == nil {
				out[i].Err = cerr
			}
		}
		return out, cerr
	}
	return out, nil
}
