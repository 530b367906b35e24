package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	sigsub "repro"
	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/service"
)

// reqOp is one generated query op: its wire body and the same request in
// batch form, for verification and in-process replay.
type reqOp struct {
	class  string // the schedule's request class, for the per-class report
	path   string // /v1/batch or /v1/query
	body   []byte
	req    service.BatchRequest
	single bool
}

// reply is what one op got back.
type reply struct {
	op   int       // index into the schedule
	seq  int       // position in the run's op sequence (the schedule wraps)
	at   time.Time // completion
	lat  time.Duration
	body []byte
	err  error
}

func batchOp(class string, req service.BatchRequest) reqOp {
	body, _ := json.Marshal(req)
	return reqOp{class: class, path: "/v1/batch", body: body, req: req}
}

func singleOp(class string, req service.SingleRequest) reqOp {
	body, _ := json.Marshal(req)
	return reqOp{class: class, path: "/v1/query", body: body, req: req.Batch(), single: true}
}

// byClass reports each request class's sample count and median latency.
func byClass(ops []reqOp, replies []reply) map[string]any {
	per := map[string]*samples{}
	for _, rep := range replies {
		if rep.err != nil {
			continue
		}
		c := ops[rep.op].class
		if per[c] == nil {
			per[c] = &samples{}
		}
		per[c].add(rep.lat)
	}
	out := map[string]any{}
	for c, s := range per {
		out[c] = map[string]any{"n": s.n(), "p50": s.q(0.5)}
	}
	return out
}

// closedLoop runs conns clients, each sending its next op only after the
// previous one answered, for d or until op stop is taken; ops are taken in
// schedule order from *next. after, when non-nil, runs on the client's
// goroutine once an op answered (the traced replay). It runs alone: no
// HTTP op is in flight meanwhile, so the daemon's round trips and the
// in-process replay do not compete for the CPUs.
func closedLoop(c *http.Client, base string, ops []reqOp, next *int, stop, conns int, d time.Duration, after func(reply)) []reply {
	var mu sync.Mutex
	var gate sync.RWMutex // HTTP ops share it; a replay holds it alone
	var out []reply
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				if *next >= stop {
					mu.Unlock()
					return
				}
				seq := *next
				i := seq % len(ops)
				*next++
				mu.Unlock()
				op := ops[i]
				gate.RLock()
				start := time.Now()
				body, err := post(c, base+op.path, op.body)
				end := time.Now()
				gate.RUnlock()
				rep := reply{op: i, seq: seq, at: end, lat: end.Sub(start), body: body, err: err}
				if after != nil && err == nil {
					gate.Lock()
					after(rep)
					gate.Unlock()
				}
				mu.Lock()
				out = append(out, rep)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// singleReply is the /v1/query response shape.
type singleReply struct {
	Corpus service.Info        `json:"corpus"`
	Result service.QueryResult `json:"result"`
}

// decodeReply parses an op's response into batch form.
func decodeReply(op reqOp, body []byte) (service.BatchResponse, error) {
	if op.single {
		var s singleReply
		if err := json.Unmarshal(body, &s); err != nil {
			return service.BatchResponse{}, err
		}
		return service.BatchResponse{Corpus: s.Corpus, Results: []service.QueryResult{s.Result}}, nil
	}
	var b service.BatchResponse
	err := json.Unmarshal(body, &b)
	return b, err
}

// plans lowers a wire batch to library queries exactly as the service does.
func plans(req service.BatchRequest) ([]sigsub.Query, error) {
	out := make([]sigsub.Query, len(req.Queries))
	for i, q := range req.Queries {
		p, err := q.Plan()
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// compareMode relaxes compareAnswers where the query semantics allow it.
type compareMode struct {
	snippet   func(start, end int) string // non-nil: check each result's text
	topX2Only bool                        // top-t slots by X² multiset: exact ties at the t-th value may resolve differently
	noStats   bool                        // skip work counters: a scatter splits them across shards
}

// compareAnswers checks a daemon's answer against the library's answers to
// the same queries: per slot the error, the exact work counters, and every
// result's interval, X² and p-value bit for bit.
func compareAnswers(req service.BatchRequest, got service.BatchResponse, want []sigsub.QueryResult, m compareMode) string {
	if len(got.Results) != len(want) {
		return fmt.Sprintf("%d result slots, library %d", len(got.Results), len(want))
	}
	for i, w := range want {
		g := got.Results[i]
		werr := ""
		if w.Err != nil {
			werr = w.Err.Error()
		}
		if g.Error != werr {
			return fmt.Sprintf("slot %d error %q, library %q", i, g.Error, werr)
		}
		if !m.noStats && g.Stats != service.FromStats(w.Stats) {
			return fmt.Sprintf("slot %d stats %+v, library %+v", i, g.Stats, w.Stats)
		}
		if m.topX2Only && req.Queries[i].Kind == "topt" {
			if !x2Multiset(g.Results, w.Results) {
				return fmt.Sprintf("slot %d: top-t X² values differ from the library", i)
			}
			continue
		}
		if len(g.Results) != len(w.Results) {
			return fmt.Sprintf("slot %d: %d results, library %d", i, len(g.Results), len(w.Results))
		}
		for j, wr := range w.Results {
			gr := g.Results[j]
			if gr.Start != wr.Start || gr.End != wr.End || gr.Length != wr.Length ||
				math.Float64bits(gr.X2) != math.Float64bits(wr.X2) ||
				math.Float64bits(gr.PValue) != math.Float64bits(wr.PValue) {
				return fmt.Sprintf("slot %d result %d: %+v, library %+v", i, j, gr, wr)
			}
			if m.snippet != nil && gr.Text != m.snippet(wr.Start, wr.End) {
				return fmt.Sprintf("slot %d result %d: snippet differs", i, j)
			}
		}
	}
	return ""
}

// x2Multiset compares two answers by their X² values only, bit for bit
// (top-t answers may break exact ties at the t-th value differently).
func x2Multiset(a []service.Result, b []sigsub.Result) bool {
	if len(a) != len(b) {
		return false
	}
	xa := make([]float64, len(a))
	for i, r := range a {
		xa[i] = r.X2
	}
	xb := resultX2Desc(b)
	sortDesc(xa)
	for i := range xa {
		if math.Float64bits(xa[i]) != math.Float64bits(xb[i]) {
			return false
		}
	}
	return true
}

// coreTwin builds the engine-level scanner under a library scanner: the
// same symbols and model, for re-issuing a traced call's inner core call.
func coreTwin(sc *sigsub.Scanner, m *sigsub.Model) (*core.Scanner, error) {
	am, err := alphabet.NewModel(m.Probs())
	if err != nil {
		return nil, err
	}
	return core.NewScanner(sc.Symbols(), am)
}

// replayQuery re-runs one answered query op in-process through the calls
// mssd makes — strict JSON decode, service.Executor.ExecuteContext, JSON
// encode — under the op's HTTP span, then repeats the inner library call
// on view and the engine call on twin (both over the same symbols) with
// the same inputs, as children of the service call.
func (r *run) replayQuery(exec *service.Executor, view *sigsub.Scanner, twin *core.Scanner, op reqOp, rep reply) {
	tr := r.tr
	id := tr.op()
	root := tr.add(id, 0, "mssd.http", rep.at.Add(-rep.lat), rep.at)
	var replay int64
	var req service.BatchRequest
	var ex int64
	r.goDelta(func() {
		replay = tr.begin(id, root, "mssd.replay")
		defer tr.end(replay)
		tr.timed(id, replay, "mssd.decode", func() {
			dec := json.NewDecoder(bytes.NewReader(op.body))
			dec.DisallowUnknownFields()
			if op.single {
				var single service.SingleRequest
				dec.Decode(&single)
				req = single.Batch()
			} else {
				dec.Decode(&req)
			}
		})
		var resp service.BatchResponse
		var err error
		ex = tr.timed(id, replay, "service.exec", func() {
			resp, err = exec.ExecuteContext(context.Background(), req)
		})
		if err != nil {
			r.mismatch("replay of op %d: %v", rep.op, err)
		}
		tr.timed(id, replay, "mssd.encode", func() {
			enc := json.NewEncoder(io.Discard)
			if op.single && len(resp.Results) == 1 {
				enc.Encode(map[string]any{"corpus": resp.Corpus, "result": resp.Results[0]})
			} else {
				enc.Encode(resp)
			}
		})
	})
	ps, err := plans(req)
	if err != nil {
		return
	}
	scan := tr.timed(id, ex, "sigsub.scan", func() {
		view.RunBatchContext(context.Background(), ps, sigsub.WithWorkers(1))
	})
	cqs := make([]core.Query, len(ps))
	for i, p := range ps {
		cqs[i] = lowerForCore(p, view.Len())
	}
	r.repeatCore(id, scan, func() []core.QueryResult { return twin.RunBatch(core.Engine{Workers: 1}, cqs) })
}
