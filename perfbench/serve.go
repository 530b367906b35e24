package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	sigsub "repro"
	"repro/internal/core"
	"repro/internal/service"
)

const (
	serveCorpus = "serve"
	serveN      = 1_000_000 // k=4: a 3 MB checkpointed index plus 1 MB of symbols, past a 2 MB L2
	serveConns  = 2
	serveWarmup = 2 * serveBlock // requests answered before the window opens
	// serveBlock is the statistics block: two periods of the request
	// pattern, which repeats every 20 requests (5 window lengths × 4).
	serveBlock = 40
	serveOps   = 1500
)

// serveAlphabet is the k=4 text alphabet of the generated corpora.
const serveAlphabet = "ACGT"

// serveWindows is the ladder of batch window lengths, 10³ to 4×10³ in
// equal log steps; requests cycle through it so every run sees the same
// mix. Single queries scan 2.5× longer windows (up to 10⁴), which puts
// their cost on the same scale as a three-query batch: a mix of requests
// whose costs differ by more than the ladder spans leaves the median in
// the gap between them, where a small shift in the mix moves it far.
var serveWindows = []int{1000, 1414, 2000, 2828, 4000}

const singleStretch = 2.5

// genText draws n uniform symbols over alphabet.
func genText(rng *rand.Rand, n int, alphabet string) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return out
}

// thresholdAlpha is a cut-off that leaves few substrings of a uniform k=4
// window of w symbols above it — usually none, but a window holding a
// strong local deviation can put thousands above any fixed cut, so plain
// threshold queries also carry a 500-result limit.
func thresholdAlpha(w int) float64 { return 19 + 9*math.Log10(float64(w)/1000) }

// serveSchedule generates the request mix. Request kinds follow a fixed
// 20-step pattern — 5 single /v1/query calls, 3 batches with include_text
// and a few hundred threshold results, 6 batches adding a second range,
// 6 plain batches of MSS + top-t + threshold sharing one range (one
// merged planner pass) — window lengths cycle through serveWindows, and
// positions come from rng. The include_text batches take their threshold
// from the library's own top-300 on that window (computed here, before
// any daemon runs), so they return ~250 results and never hit the limit.
func serveSchedule(rng *rand.Rand, sc *sigsub.Scanner, count int) ([]reqOp, error) {
	n := sc.Len()
	ops := make([]reqOp, count)
	for i := range ops {
		w := serveWindows[i%len(serveWindows)]
		lo := rng.Intn(n - w + 1)
		rq := func(kind string) service.Query { return service.Query{Kind: kind, Lo: lo, Hi: lo + w} }
		switch p := i % 20; {
		case p < 5:
			w = int(float64(w) * singleStretch)
			lo = rng.Intn(n - w + 1)
			q := rq("mss")
			if p%2 == 1 {
				q = rq("topt")
				q.T = 5
			}
			ops[i] = singleOp("single", service.SingleRequest{Corpus: serveCorpus, Query: q})
		case p < 8:
			w = 1000 + rng.Intn(1000)
			lo = rng.Intn(n - w + 1)
			top, err := sc.Run(sigsub.TopTQuery(300).WithRange(lo, lo+w))
			if err != nil {
				return nil, err
			}
			th := rq("threshold")
			th.Alpha = alphaBelowRank(resultX2Desc(top.Results), 250)
			th.Limit = 1000
			ops[i] = batchOp("text", service.BatchRequest{Corpus: serveCorpus, IncludeText: true,
				Queries: []service.Query{rq("mss"), th}})
		default:
			th := rq("threshold")
			th.Alpha = thresholdAlpha(w)
			th.Limit = 500
			top := rq("topt")
			top.T = 10
			qs := []service.Query{rq("mss"), top, th}
			class := "batch"
			if p < 14 {
				w2 := serveWindows[(i+3)%len(serveWindows)]
				lo2 := rng.Intn(n - w2 + 1)
				qs = append(qs, service.Query{Kind: "mss", Lo: lo2, Hi: lo2 + w2})
				class = "batch2"
			}
			ops[i] = batchOp(class, service.BatchRequest{Corpus: serveCorpus, Queries: qs})
		}
	}
	return ops, nil
}

func runServe(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	text := genText(rng, serveN, serveAlphabet)
	r.note("input_fingerprint", fingerprint(text))
	putBody, _ := json.Marshal(map[string]string{"text": string(text)})

	// The library's copy of the corpus, built exactly as the daemon builds
	// an upload: it generates the include_text cut-offs, answers the
	// verification, and (traced) serves the in-process replay.
	exec := &service.Executor{Cache: service.NewCache(service.DefaultCacheBytes)}
	uploadStart := time.Now()
	corpus, _, err := exec.AddCorpus(serveCorpus, string(text), service.ModelSpec{})
	if err != nil {
		return err
	}
	if r.trace {
		r.tr.add(r.tr.op(), 0, "service.upload", uploadStart, time.Now())
	}
	ops, err := serveSchedule(rng, corpus.Scanner, serveOps)
	if err != nil {
		return err
	}

	// Set-up: daemon start, upload, readiness — setupRounds times, fresh
	// process each time; the last daemon serves the load.
	c := newClient(serveConns)
	var d *daemon
	var setups []float64
	for round := range setupRounds {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		if d, err = r.startDaemon(fmt.Sprintf("mssd-%d", round)); err != nil {
			return err
		}
		if _, err := do(c, "PUT", d.base+"/v1/corpora/"+serveCorpus, putBody); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.note("setup_rounds_s", setups)

	next := 0
	closedLoop(c, d.base, ops, &next, serveWarmup, serveConns, time.Minute, nil)
	var after func(reply)
	var twin *core.Scanner
	if r.trace {
		if twin, err = coreTwin(corpus.Scanner, corpus.Model); err != nil {
			return err
		}
		after = func(rep reply) { r.replayQuery(exec, corpus.Scanner, twin, ops[rep.op], rep) }
	}
	window := time.Duration(r.seconds * float64(time.Second))
	var untraced []reply
	if r.trace {
		window /= 2
		untraced = closedLoop(c, d.base, ops, &next, math.MaxInt, serveConns, window, nil)
	}
	p0 := d.sample()
	replies := closedLoop(c, d.base, ops, &next, math.MaxInt, serveConns, window, after)
	p1 := d.sample()
	hwm, err := d.hwmMB()
	if err != nil {
		return err
	}
	d.stop()

	lat, failed, respBytes := tally(replies)
	r.attempted += int64(len(replies))
	r.failed += failed
	var u samples
	if r.trace {
		var uFailed int64
		u, uFailed, _ = tally(untraced)
		r.attempted += int64(len(untraced))
		r.failed += uFailed
		r.traceOverhead(&u, &lat, serveBlock)
	}
	r.verifyServe(ops, replies, corpus, rng)

	r.note("query_latency_ms", lat.summary())
	r.note("query_p50_ms_by_block", lat.perBlock(serveBlock, 0.5))
	r.note("query_latency_by_class_ms", byClass(ops, replies))
	r.note("daemon_counters", map[string]any{"ops": lat.n(), "cpu_ms": float64(p1.cpu-p0.cpu) / 1e6,
		"write_bytes": p1.write - p0.write, "resp_bytes": respBytes, "vm_hwm_mb": hwm})
	r.setE2E("setup_s", median(setups))
	r.setE2E("query_per_s", lat.blockedRate(serveBlock))
	r.setE2E("query_p50_ms", lat.blockedQ(serveBlock, 0.5))
	r.setE2E("op_p50_ms", lat.blockedQ(serveBlock, 0.5))
	r.setE2E("peak_rss_mb", hwm)
	if r.trace && lat.n() > 0 {
		if err := r.measureScatter(text, serveCorpus, corpus.Scanner); err != nil {
			return err
		}
		if err := r.exactCore(twin, ops[:serveBlock]); err != nil {
			return err
		}
		r.layerFromSpans(r.tr.aggregate())
		r.setLayer("mssd.cpu_ms_per_op", float64(p1.cpu-p0.cpu)/1e6/float64(lat.n()))
		r.setLayer("mssd.resp_bytes_per_op", float64(respBytes)/float64(lat.n()))
		r.setLayer("query_p99_ms", p99OrZero(&u, &lat))
		r.countsLayers([]indexInput{{corpus.Scanner.Symbols(), 4}})
	}
	return nil
}

// tally splits replies into the latency population of the successes, the
// failure count and the response bytes received.
func tally(replies []reply) (lat samples, failed int64, bytes int64) {
	sort.Slice(replies, func(i, j int) bool { return replies[i].at.Before(replies[j].at) })
	for _, rep := range replies {
		if rep.err != nil {
			failed++
			continue
		}
		lat.addOp(rep.seq, rep.at, rep.lat)
		bytes += int64(len(rep.body))
	}
	return lat, failed, bytes
}

// verifyServe re-asks a seeded sample of the answered requests of the
// library on the same corpus and compares bit for bit.
func (r *run) verifyServe(ops []reqOp, replies []reply, corpus *service.Corpus, rng *rand.Rand) {
	const sample = 24
	var ok []reply
	for _, rep := range replies {
		if rep.err == nil {
			ok = append(ok, rep)
		}
	}
	for _, i := range rng.Perm(len(ok))[:min(sample, len(ok))] {
		rep := ok[i]
		op := ops[rep.op]
		r.verified()
		got, err := decodeReply(op, rep.body)
		if err != nil {
			r.mismatch("serve op %d: decoding reply: %v", rep.op, err)
			continue
		}
		ps, err := plans(op.req)
		if err != nil {
			r.mismatch("serve op %d: %v", rep.op, err)
			continue
		}
		want, err := corpus.Scanner.RunBatch(ps, sigsub.WithWorkers(1))
		if err != nil {
			r.mismatch("serve op %d: library: %v", rep.op, err)
			continue
		}
		var m compareMode
		if op.req.IncludeText {
			m.snippet = corpus.Snippet
		}
		if msg := compareAnswers(op.req, got, want, m); msg != "" {
			r.mismatch("serve op %d: %s", rep.op, msg)
		}
	}
}

// alphaBelowRank returns a threshold cut in the gap between two distinct
// values of a descending X² list, at the gap nearest below rank, so a
// threshold query returns about rank results and no X² sits within
// rounding of the cut.
func alphaBelowRank(desc []float64, rank int) float64 {
	for d := 0; d < len(desc); d++ {
		for _, i := range []int{rank + d, rank - d} {
			if i >= 0 && i+1 < len(desc) && desc[i]-desc[i+1] > 1e-6*desc[i] {
				return (desc[i] + desc[i+1]) / 2
			}
		}
	}
	return desc[0] * 2 // every value tied: a cut above them all
}

func resultX2Desc(rs []sigsub.Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.X2
	}
	sortDesc(out)
	return out
}

func sortDesc(xs []float64) { sort.Sort(sort.Reverse(sort.Float64Slice(xs))) }
