package main

import (
	"math"
	"math/rand"
	"time"

	sigsub "repro"
	"repro/internal/core"
	"repro/internal/counts"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// layerMetrics is the per-layer list, in BENCHMARK.json order. The traced
// run of every workload reports all of them; a layer the workload does not
// pass through reports 0 (no calls, no samples) — the prediction for a
// bypassed layer is that it does not move. METHOD.md maps each to the
// end-to-end metric and workload it should move.
var layerMetrics = []metricDef{
	{"mssd.self_ms", "ms"},
	{"mssd.cpu_ms_per_op", "ms"},
	{"mssd.resp_bytes_per_op", "bytes"},
	{"mssd.decode_us", "us"},
	{"mssd.encode_us", "us"},
	{"service.exec_ms", "ms"},
	{"service.exec_p99_ms", "ms"},
	{"service.exec_self_ms", "ms"},
	{"service.append_ms", "ms"},
	{"service.append_p99_ms", "ms"},
	{"service.fsyncs_per_append", "count"},
	{"service.compactions", "count"},
	{"service.compact_ms", "ms"},
	{"service.upload_ms", "ms"},
	{"service.scatter_ms", "ms"},
	{"service.scatter_self_ms", "ms"},
	{"service.shard_max_ms", "ms"},
	{"service.shard_skew", "ratio"},
	{"service.scatter_retries", "ratio"},
	{"sigsub.scan_ms", "ms"},
	{"sigsub.self_ms", "ms"},
	{"sigsub.corpus_append_us", "us"},
	{"sigsub.plan_us", "us"},
	{"sigsub.merge_us", "us"},
	{"sigsub.snapshot_open_ms", "ms"},
	{"core.evaluated_per_query", "count"},
	{"core.skipped_per_query", "count"},
	{"core.starts_per_query", "count"},
	{"core.ns_per_evaluated", "ns"},
	{"counts.build_ns_per_sym", "ns"},
	{"counts.index_bytes_per_sym", "bytes"},
	{"counts.probe_ns", "ns"},
	{"counts.append_ns_per_sym", "ns"},
	{"snapshot.wal_bytes_per_sym", "bytes"},
	{"snapshot.write_bytes_per_sym", "bytes"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cycles_per_op", "count"},
	{"query_p99_ms", "ms"},
	{"append_p99_ms", "ms"},
	{"disk_bytes_per_sym", "bytes"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// spanMetrics maps span names to the per-layer metrics read off them:
// the p50 of the span durations, optionally the p99, and the p50 of the
// self times (duration minus children), each scaled to the metric's unit.
var spanMetrics = []struct {
	span          string
	p50, p99, slf string
	scale         float64 // milliseconds → metric unit
}{
	{"sigsub.scan", "sigsub.scan_ms", "", "sigsub.self_ms", 1},
	{"service.exec", "service.exec_ms", "service.exec_p99_ms", "service.exec_self_ms", 1},
	{"service.append", "service.append_ms", "service.append_p99_ms", "", 1},
	{"service.compact", "service.compact_ms", "", "", 1},
	{"service.upload", "service.upload_ms", "", "", 1},
	{"service.scatter", "service.scatter_ms", "", "service.scatter_self_ms", 1},
	{"mssd.http", "", "", "mssd.self_ms", 1},
	{"mssd.decode", "mssd.decode_us", "", "", 1e3},
	{"mssd.encode", "mssd.encode_us", "", "", 1e3},
	{"sigsub.corpus_append", "sigsub.corpus_append_us", "", "", 1e3},
	{"sigsub.plan", "sigsub.plan_us", "", "", 1e3},
	{"sigsub.merge", "sigsub.merge_us", "", "", 1e3},
	{"sigsub.snapshot_open", "sigsub.snapshot_open_ms", "", "", 1},
}

// layerFromSpans sets every span-derived per-layer metric the trace holds.
func (r *run) layerFromSpans(agg map[string]*layerStats) {
	counts := map[string]int{}
	for _, sm := range spanMetrics {
		ls := agg[sm.span]
		if ls == nil || ls.dur.n() == 0 {
			continue
		}
		counts[sm.span] = ls.dur.n()
		if sm.p50 != "" {
			r.setLayer(sm.p50, ls.dur.q(0.5)*sm.scale)
		}
		if sm.p99 != "" {
			r.setLayer(sm.p99, ls.dur.q(0.99)*sm.scale)
		}
		if sm.slf != "" {
			r.setLayer(sm.slf, ls.self.q(0.5)*sm.scale)
		}
	}
	r.note("span_samples", counts)
	if r.goOps > 0 {
		r.setLayer("go.alloc_bytes_per_op", float64(r.goAlloc)/float64(r.goOps))
		r.setLayer("go.gc_cycles_per_op", float64(r.goGC)/float64(r.goOps))
		r.note("go_counters_base", map[string]any{"ops": r.goOps, "alloc_bytes": r.goAlloc, "gc_cycles": r.goGC})
	}
}

// goDelta runs fn and adds its allocation and GC-cycle deltas to the run's
// in-process op totals.
func (r *run) goDelta(fn func()) {
	r.goMu.Lock()
	defer r.goMu.Unlock()
	a0, g0 := goCounters()
	fn()
	a1, g1 := goCounters()
	r.goAlloc += a1 - a0
	r.goGC += g1 - g0
	r.goOps++
}

// traceOverhead compares the op latency of the traced half of a traced run
// against its untraced half. With block > 0 each half's p50 is the median
// over its complete schedule blocks, so both compare the same request mix.
func (r *run) traceOverhead(untraced, traced *samples, block int) {
	p50 := func(s *samples) float64 {
		if block > 0 {
			return s.blockedQ(block, 0.5)
		}
		return s.q(0.5)
	}
	u, t := p50(untraced), p50(traced)
	r.note("trace_overhead_base", map[string]any{"untraced": untraced.summary(), "traced": traced.summary()})
	if u > 0 && !math.IsNaN(t) {
		r.setLayer("trace.overhead_pct", (t/u-1)*100)
	}
}

// fillLayers gives every per-layer metric the run did not measure the
// value 0 — the workload bypasses that layer.
func (r *run) fillLayers() {
	var bypassed []string
	r.coreLayers()
	for _, lm := range layerMetrics {
		if _, ok := r.layer[lm.name]; !ok {
			r.layer[lm.name] = metric{0, lm.unit}
			bypassed = append(bypassed, lm.name)
		}
	}
	r.note("layers_bypassed", bypassed)
	r.note("trace_spans", r.tr.count())
}

// repeatCore runs a traced op's inner engine call as a span and adds its
// exact work counters to the run's totals.
func (r *run) repeatCore(op, parent int64, fn func() []core.QueryResult) {
	var rs []core.QueryResult
	start := time.Now()
	r.tr.timed(op, parent, "core.scan", func() { rs = fn() })
	d := time.Since(start)
	r.coreMu.Lock()
	defer r.coreMu.Unlock()
	r.coreTime += d
	for _, q := range rs {
		r.coreQueries++
		r.coreEval += q.Stats.Evaluated
		r.coreSkip += q.Stats.Skipped
		r.coreStarts += q.Stats.Starts
	}
}

// coreLayers sets the core metrics from the repeated calls, leaving any a
// workload measured more exactly (serve's fixed pass) in place.
func (r *run) coreLayers() {
	r.coreMu.Lock()
	defer r.coreMu.Unlock()
	if r.coreQueries == 0 {
		return
	}
	set := func(name string, v float64) {
		if _, ok := r.layer[name]; !ok {
			r.setLayer(name, v)
		}
	}
	q := float64(r.coreQueries)
	set("core.evaluated_per_query", float64(r.coreEval)/q)
	set("core.skipped_per_query", float64(r.coreSkip)/q)
	set("core.starts_per_query", float64(r.coreStarts)/q)
	if r.coreEval > 0 {
		set("core.ns_per_evaluated", float64(r.coreTime.Nanoseconds())/float64(r.coreEval))
	}
	r.note("core_repeat_base", map[string]any{"queries": r.coreQueries, "evaluated": r.coreEval,
		"skipped": r.coreSkip, "starts": r.coreStarts, "core_ns": r.coreTime.Nanoseconds()})
}

// exactCore sets the core metrics from one engine pass with one worker over
// the lowered queries of ops, a fixed prefix of the schedule: the work
// counters (the paper's iteration counts) then repeat exactly for a seed,
// and core.ns_per_evaluated is the pass's time over its evaluations.
func (r *run) exactCore(twin *core.Scanner, ops []reqOp) error {
	var queries, ev, sk, st int64
	var spent time.Duration
	for _, op := range ops {
		ps, err := plans(op.req)
		if err != nil {
			return err
		}
		cqs := make([]core.Query, len(ps))
		for i, p := range ps {
			cqs[i] = lowerForCore(p, twin.Len())
		}
		start := time.Now()
		rs := twin.RunBatch(core.Engine{Workers: 1}, cqs)
		spent += time.Since(start)
		for _, q := range rs {
			queries++
			ev += q.Stats.Evaluated
			sk += q.Stats.Skipped
			st += q.Stats.Starts
		}
	}
	if queries == 0 || ev == 0 {
		return nil
	}
	n := float64(queries)
	r.setLayer("core.evaluated_per_query", float64(ev)/n)
	r.setLayer("core.skipped_per_query", float64(sk)/n)
	r.setLayer("core.starts_per_query", float64(st)/n)
	r.setLayer("core.ns_per_evaluated", float64(spent.Nanoseconds())/float64(ev))
	r.note("core_exact_base", map[string]any{"ops": len(ops), "queries": queries, "evaluated": ev,
		"skipped": sk, "starts": st, "core_ns": spent.Nanoseconds()})
	return nil
}

// lowerForCore is sigsub's public-to-core query lowering (Hi 0 means the
// whole string; a threshold's limit 0 means the library default), so a
// traced run can repeat the engine call under a library call.
func lowerForCore(q sigsub.Query, n int) core.Query {
	kinds := map[sigsub.QueryKind]core.Kind{
		sigsub.QueryMSS: core.KindMSS, sigsub.QueryTopT: core.KindTopT,
		sigsub.QueryThreshold: core.KindThreshold, sigsub.QueryDisjoint: core.KindDisjoint,
	}
	hi := q.Hi
	if hi == 0 {
		hi = n
	}
	limit := q.Limit
	if q.Kind == sigsub.QueryThreshold && limit == 0 {
		limit = 1_000_000
	}
	return core.Query{Kind: kinds[q.Kind], T: q.T, Alpha: q.Alpha, MinLen: q.MinLength, Lo: q.Lo, Hi: hi, Limit: limit}
}

// indexInput is one string whose count index the counts layer builds.
type indexInput struct {
	syms []byte
	k    int
}

// countsLayers times the counts layer directly: index builds, index size,
// and landing probes at seeded positions.
func (r *run) countsLayers(in []indexInput) {
	rng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
	var builds []float64
	var bytes, n int
	var probes []float64
	for _, x := range in {
		var b []float64
		var cp *counts.Checkpointed
		for range 3 {
			start := time.Now()
			p, err := counts.NewCheckpointed(x.syms, x.k, 0)
			if err != nil {
				r.mismatch("counts build: %v", err)
				return
			}
			b = append(b, float64(time.Since(start).Nanoseconds()))
			cp = p
		}
		builds = append(builds, median(b)/float64(len(x.syms)))
		bytes += cp.Bytes()
		n += len(x.syms)
		const pairs = 1 << 14
		is := make([]int, pairs)
		js := make([]int, pairs)
		for i := range is {
			a, b := rng.Intn(len(x.syms)), rng.Intn(len(x.syms))
			is[i], js[i] = min(a, b), max(a, b)+1
		}
		vec := make([]int, x.k)
		start := time.Now()
		for i := range is {
			cp.Vector(is[i], js[i], vec)
		}
		probes = append(probes, float64(time.Since(start).Nanoseconds())/pairs)
	}
	r.setLayer("counts.build_ns_per_sym", median(builds))
	r.setLayer("counts.index_bytes_per_sym", float64(bytes)/float64(n))
	r.setLayer("counts.probe_ns", median(probes))
	r.note("counts_base", map[string]any{"strings": len(in), "symbols": n, "index_bytes": bytes, "probe_ns_per_string": probes})
}
