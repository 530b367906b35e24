// Sharded scans: the service layer of the planner/executor/merge split.
//
// A corpus too large (or too hot) for one node is cut offline into suffix
// segments (`mss -segments N`), each dropped into a different daemon's
// -data-dir under the parent corpus's name with its .segment.json sidecar.
// Every daemon advertises what it holds via GET /v1/shards and executes
// subplans via POST /v1/shards/exec; a coordinator node (mssd -peers)
// assembles the catalog, plans each incoming batch with
// sigsub.PlanShardBatch, scatters the subplans with per-shard timeouts and
// retries, and merges the partials deterministically — the cluster answer
// is bit-identical to a single node scanning the whole corpus (X² multiset
// for top-t), which the cluster smoke test verifies against real processes.
//
// Failure semantics: a shard that stays unreachable after retries poisons
// the whole request with a typed ShardUnavailableError (HTTP 503 plus the
// failed shard list). A scatter never returns a silently partial answer —
// results are exact or refused.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sigsub "repro"
)

// SegmentInfo is the wire form of a corpus's segment sidecar.
type SegmentInfo struct {
	Index    int `json:"index"`
	Count    int `json:"count"`
	Offset   int `json:"offset"`
	TotalLen int `json:"total_len"`
}

// ShardInfo is one entry of a node's shard catalog: a corpus (or corpus
// segment) this node can execute subplans against. A full corpus
// advertises as the single shard of a one-shard cluster.
type ShardInfo struct {
	Corpus string `json:"corpus"`
	// Index/Count/Offset/TotalLen locate the segment in its parent corpus
	// (0/1/0/N for a full corpus).
	Index    int `json:"index"`
	Count    int `json:"count"`
	Offset   int `json:"offset"`
	TotalLen int `json:"total_len"`
	// N is the local symbol count (TotalLen − Offset for healthy segments).
	N int `json:"n"`
	// K and Model describe the null model, fixed at segment build time.
	K     int    `json:"k"`
	Model string `json:"model"`
}

// ShardInfos builds the node's shard catalog: every corpus it can serve
// shard-exec requests for, segments and full corpora alike, sorted by
// (corpus, index). Unloadable corpora are skipped — the catalog advertises
// only what would actually execute.
func (e *Executor) ShardInfos() []ShardInfo {
	pending := map[string]bool{}
	for _, info := range e.Cache.List() {
		pending[info.Name] = true
	}
	if e.Store != nil {
		if names, err := e.Store.List(); err == nil {
			for _, n := range names {
				pending[n] = true
			}
		}
	}
	var out []ShardInfo
	for _, info := range e.LiveInfos() {
		delete(pending, info.Name)
		out = append(out, ShardInfo{
			Corpus: info.Name, Index: 0, Count: 1, Offset: 0,
			TotalLen: info.N, N: info.N, K: info.K, Model: info.Model,
		})
	}
	for name := range pending {
		c, err := e.lookup(name)
		if err != nil {
			continue
		}
		si := ShardInfo{
			Corpus: name, Index: 0, Count: 1, Offset: 0,
			TotalLen: c.Scanner.Len(), N: c.Scanner.Len(),
			K: c.Model.K(), Model: c.Model.String(),
		}
		if seg := c.Segment; seg != nil {
			si.Index, si.Count, si.Offset, si.TotalLen = seg.Index, seg.Count, seg.Offset, seg.TotalLen
		}
		out = append(out, si)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Corpus != out[j].Corpus {
			return out[i].Corpus < out[j].Corpus
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// ShardExecRequest is the scatter leg's wire body: one shard's subplan
// against one corpus. Queries carry coordinator-normalized absolute
// coordinates (sigsub.ShardQuery).
type ShardExecRequest struct {
	Corpus  string              `json:"corpus"`
	Shard   int                 `json:"shard"`
	Workers int                 `json:"workers,omitempty"`
	Queries []sigsub.ShardQuery `json:"queries"`
}

// ShardExecResponse carries one shard's partials back to the coordinator.
type ShardExecResponse struct {
	Shard     int                   `json:"shard"`
	Partials  []sigsub.ShardPartial `json:"partials"`
	ElapsedNS int64                 `json:"elapsed_ns"`
}

// ExecuteShard runs a shard subplan against a local corpus: the executor
// half of the scatter. The corpus's segment sidecar (when present) supplies
// the coordinate offset; a full corpus executes at offset 0. Requests whose
// shard index disagrees with the local segment are refused — answering them
// would translate coordinates against the wrong cut.
func (e *Executor) ExecuteShard(ctx context.Context, req ShardExecRequest) (ShardExecResponse, error) {
	if req.Corpus == "" {
		return ShardExecResponse{}, badRequest("shard exec names no corpus")
	}
	if len(req.Queries) == 0 {
		return ShardExecResponse{}, badRequest("shard exec carries no queries")
	}
	if len(req.Queries) > e.maxQueries() {
		return ShardExecResponse{}, badRequest("%d shard queries exceed the %d per-batch limit", len(req.Queries), e.maxQueries())
	}
	if req.Workers < 0 || req.Workers > e.maxWorkers() {
		return ShardExecResponse{}, badRequest("workers must lie in [0, %d], got %d", e.maxWorkers(), req.Workers)
	}
	corpus, err := e.lookup(req.Corpus)
	if err != nil {
		return ShardExecResponse{}, err
	}
	offset := 0
	if seg := corpus.Segment; seg != nil {
		if req.Shard != seg.Index {
			return ShardExecResponse{}, badRequest("corpus %q is segment %d of %d, not shard %d", req.Corpus, seg.Index, seg.Count, req.Shard)
		}
		offset = seg.Offset
	}
	workers := req.Workers
	if workers == 0 {
		workers = 1
	}
	start := time.Now()
	parts, err := corpus.Scanner.ExecShard(ctx, req.Shard, offset, req.Queries, sigsub.WithWorkers(workers))
	if err != nil {
		if ctx.Err() != nil {
			return ShardExecResponse{}, ctx.Err()
		}
		// Everything else ExecShard rejects is a malformed or out-of-coverage
		// subplan — the client's (coordinator's) fault.
		return ShardExecResponse{}, badRequest("shard exec: %v", err)
	}
	return ShardExecResponse{Shard: req.Shard, Partials: parts, ElapsedNS: time.Since(start).Nanoseconds()}, nil
}

// --- Shard HTTP API (mounted by cmd/mssd) ---

// ShardAPI serves the shard catalog and shard-exec endpoints:
//
//	GET  /v1/shards       the node's shard catalog
//	POST /v1/shards/exec  execute one shard subplan
type ShardAPI struct {
	Exec *Executor
	// Timeout bounds each shard-exec scan (0: no deadline).
	Timeout time.Duration
	// Gate, when non-nil, bounds concurrent shard scans (the daemon's scan
	// semaphore); an error refuses the request with 429 + Retry-After.
	Gate func(ctx context.Context) (release func(), err error)
}

// Routes mounts the shard endpoints.
func (a *ShardAPI) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/shards", a.handleList)
	mux.HandleFunc("POST /v1/shards/exec", a.handleExec)
}

func (a *ShardAPI) handleList(w http.ResponseWriter, _ *http.Request) {
	shardJSON(w, http.StatusOK, map[string]any{"shards": a.Exec.ShardInfos()})
}

// shardExecBodyLimit bounds a shard-exec request body: subplans are a few
// hundred bytes per query slot, never corpus text. Responses are read under
// the much larger shardRespLimit — a threshold partial legitimately carries
// O(limit) candidates, and truncating one would corrupt the merge.
const (
	shardExecBodyLimit = 8 << 20
	shardRespLimit     = 512 << 20
)

func (a *ShardAPI) handleExec(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, shardExecBodyLimit)
	defer body.Close()
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req ShardExecRequest
	if err := dec.Decode(&req); err != nil {
		shardJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("bad shard exec body: %v", err)})
		return
	}
	ctx := r.Context()
	if a.Gate != nil {
		release, err := a.Gate(ctx)
		if err != nil {
			w.Header().Set("Retry-After", "1")
			shardJSON(w, http.StatusTooManyRequests, map[string]any{"error": "node is at its concurrent-scan limit; retry shortly"})
			return
		}
		defer release()
	}
	if a.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.Timeout)
		defer cancel()
	}
	resp, err := a.Exec.ExecuteShard(ctx, req)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrNotFound):
			status = http.StatusNotFound
		case IsValidation(err):
			status = http.StatusBadRequest
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			status = http.StatusServiceUnavailable
		}
		shardJSON(w, status, map[string]any{"error": err.Error()})
		return
	}
	shardJSON(w, http.StatusOK, resp)
}

func shardJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// --- Degraded-shard semantics ---

// ShardFailure records one shard the scatter could not get an answer from.
type ShardFailure struct {
	Shard int    `json:"shard"`
	Peer  string `json:"peer,omitempty"`
	Err   string `json:"error"`
}

// ShardUnavailableError is the typed partial-refusal: the scatter reached
// some shards but not all of them after retries, so the request is refused
// rather than answered from a subset — a sharded answer is exact or absent,
// never silently wrong. Transports map it to 503 with the failed shard
// list.
type ShardUnavailableError struct {
	Corpus string         `json:"corpus"`
	Total  int            `json:"total"`
	Failed []ShardFailure `json:"failed"`
}

func (e *ShardUnavailableError) Error() string {
	parts := make([]string, len(e.Failed))
	for i, f := range e.Failed {
		if f.Peer != "" {
			parts[i] = fmt.Sprintf("shard %d (%s): %s", f.Shard, f.Peer, f.Err)
		} else {
			parts[i] = fmt.Sprintf("shard %d: %s", f.Shard, f.Err)
		}
	}
	return fmt.Sprintf("service: corpus %q: %d of %d shards unavailable: %s",
		e.Corpus, len(e.Failed), e.Total, strings.Join(parts, "; "))
}

// IsShardUnavailable unwraps a ShardUnavailableError, reporting whether err
// is one.
func IsShardUnavailable(err error) (*ShardUnavailableError, bool) {
	var s *ShardUnavailableError
	if errors.As(err, &s) {
		return s, true
	}
	return nil, false
}

// --- Scatter coordinator ---

// ScatterShard is the per-shard slice of one scattered query's stats.
type ScatterShard struct {
	Shard     int    `json:"shard"`
	Peer      string `json:"peer"`
	Slots     int    `json:"slots"`
	Evaluated int64  `json:"evaluated"`
	Skipped   int64  `json:"skipped"`
	Retries   int    `json:"retries"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

// ScatterInfo reports how one request was scattered: which shards were hit,
// the exact per-shard work counters, and the merge time. It rides the batch
// response so clients (and the CI smoke test) can see the fan-out.
type ScatterInfo struct {
	Shards   int            `json:"shards"`
	MergeNS  int64          `json:"merge_ns"`
	PerShard []ScatterShard `json:"per_shard"`
}

// ScatterStats are the coordinator's node-wide counters, served in healthz.
type ScatterStats struct {
	// Queries counts scattered batch requests; ShardCalls the exec RPCs
	// they fanned into (including retries); Retries the re-attempts after a
	// failed call; Refused the requests ending in partial-refusal.
	Queries    int64 `json:"queries"`
	ShardCalls int64 `json:"shard_calls"`
	Retries    int64 `json:"retries"`
	Refused    int64 `json:"refused"`
	// MergeNS accumulates time spent in the deterministic merge fold.
	MergeNS int64 `json:"merge_ns"`
}

// Scatter is the coordinator: it plans incoming batches across the shard
// catalog its peers advertise, fans the subplans out over HTTP with
// per-shard timeouts and retries, and merges the partials deterministically.
// All methods are safe for concurrent use.
type Scatter struct {
	// Peers are the base URLs of the segment-serving daemons.
	Peers []string
	// Client is the HTTP client (nil: http.DefaultClient).
	Client *http.Client
	// Timeout bounds each shard call attempt (0: 15s).
	Timeout time.Duration
	// Retries is how many times a failed shard call is re-attempted against
	// the same peer (<0: 0; default 1).
	Retries int
	// CatalogTTL bounds how long a fetched shard catalog is reused (0: 2s).
	CatalogTTL time.Duration

	queries    atomic.Int64
	shardCalls atomic.Int64
	retries    atomic.Int64
	refused    atomic.Int64
	mergeNS    atomic.Int64

	mu      sync.Mutex
	catalog map[string]*catalogEntry
}

// Stats snapshots the coordinator counters.
func (sc *Scatter) Stats() ScatterStats {
	return ScatterStats{
		Queries:    sc.queries.Load(),
		ShardCalls: sc.shardCalls.Load(),
		Retries:    sc.retries.Load(),
		Refused:    sc.refused.Load(),
		MergeNS:    sc.mergeNS.Load(),
	}
}

func (sc *Scatter) client() *http.Client {
	if sc.Client != nil {
		return sc.Client
	}
	return http.DefaultClient
}

func (sc *Scatter) timeout() time.Duration {
	if sc.Timeout > 0 {
		return sc.Timeout
	}
	return 15 * time.Second
}

func (sc *Scatter) attempts() int {
	if sc.Retries < 0 {
		return 1
	}
	if sc.Retries == 0 {
		return 2 // default: one retry
	}
	return sc.Retries + 1
}

func (sc *Scatter) catalogTTL() time.Duration {
	if sc.CatalogTTL > 0 {
		return sc.CatalogTTL
	}
	return 2 * time.Second
}

// shardCatalog maps one corpus's shard indexes onto peers.
type shardCatalog struct {
	count    int
	totalLen int
	k        int
	model    string
	starts   []int    // starts[i] = segment i's offset
	peers    []string // peers[i] = base URL serving segment i
}

type catalogEntry struct {
	cat     *shardCatalog
	fetched time.Time
}

// Execute scatters one batch request across the shard catalog and merges
// the answers. The response is bit-identical to a single node holding the
// whole corpus (X² multiset for top-t); any shard unreachable after
// retries refuses the request with a ShardUnavailableError. Corpora no
// peer advertises return ErrNotFound so the caller can fall back to local
// execution.
func (sc *Scatter) Execute(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	if req.Corpus == "" {
		return BatchResponse{}, badRequest("scattered requests must name a corpus")
	}
	if req.Text != "" {
		return BatchResponse{}, badRequest("inline text cannot scatter; upload it as a corpus")
	}
	if req.IncludeText {
		// The coordinator holds no symbols; decoding snippets would need a
		// second round-trip per result.
		return BatchResponse{}, badRequest("include_text is not supported for scattered queries; query the owning shard directly")
	}
	if len(req.Queries) == 0 {
		return BatchResponse{}, badRequest("request carries no queries")
	}
	cat, err := sc.corpusCatalog(ctx, req.Corpus)
	if err != nil {
		return BatchResponse{}, err
	}
	sc.queries.Add(1)

	plans := make([]sigsub.Query, len(req.Queries))
	planErrs := make([]error, len(req.Queries))
	for i, q := range req.Queries {
		plans[i], planErrs[i] = q.Plan()
		if planErrs[i] != nil {
			plans[i] = sigsub.Query{Kind: sigsub.QueryKind(-1)}
		}
	}
	plan, err := sigsub.PlanShardBatch(cat.totalLen, cat.starts, plans)
	if err != nil {
		return BatchResponse{}, fmt.Errorf("service: planning scatter of corpus %q: %w", req.Corpus, err)
	}

	partials := make([][]sigsub.ShardPartial, plan.Shards())
	shardStats := make([]*ScatterShard, plan.Shards())
	failures := make([]*ShardFailure, plan.Shards())
	var wg sync.WaitGroup
	for s := 0; s < plan.Shards(); s++ {
		sub := plan.Subplan(s)
		if len(sub) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, sub []sigsub.ShardQuery) {
			defer wg.Done()
			peer := cat.peers[s]
			resp, tries, err := sc.callShard(ctx, peer, req, s, sub)
			if err != nil {
				failures[s] = &ShardFailure{Shard: s, Peer: peer, Err: err.Error()}
				return
			}
			partials[s] = resp.Partials
			st := &ScatterShard{Shard: s, Peer: peer, Slots: len(sub), Retries: tries - 1, ElapsedNS: resp.ElapsedNS}
			for _, p := range resp.Partials {
				st.Evaluated += p.Evaluated
				st.Skipped += p.Skipped
			}
			shardStats[s] = st
		}(s, sub)
	}
	wg.Wait()

	var failed []ShardFailure
	for _, f := range failures {
		if f != nil {
			failed = append(failed, *f)
		}
	}
	if len(failed) > 0 {
		sc.refused.Add(1)
		return BatchResponse{}, &ShardUnavailableError{Corpus: req.Corpus, Total: plan.Shards(), Failed: failed}
	}

	mergeStart := time.Now()
	answers, err := plan.Merge(partials, cat.k)
	mergeNS := time.Since(mergeStart).Nanoseconds()
	sc.mergeNS.Add(mergeNS)
	if err != nil {
		return BatchResponse{}, fmt.Errorf("service: merging corpus %q: %w", req.Corpus, err)
	}

	info := ScatterInfo{MergeNS: mergeNS}
	for _, st := range shardStats {
		if st != nil {
			info.Shards++
			info.PerShard = append(info.PerShard, *st)
		}
	}
	resp := BatchResponse{
		Corpus:  Info{Name: req.Corpus, N: cat.totalLen, K: cat.k, Model: cat.model},
		Results: make([]QueryResult, len(answers)),
		Scatter: &info,
	}
	for i, a := range answers {
		qr := QueryResult{Stats: FromStats(a.Stats), Results: make([]Result, 0, len(a.Results))}
		switch {
		case planErrs[i] != nil:
			qr.Error = planErrs[i].Error()
		case a.Err != nil:
			qr.Error = a.Err.Error()
		}
		if planErrs[i] == nil {
			for _, r := range a.Results {
				qr.Results = append(qr.Results, FromResult(r, ""))
			}
		}
		resp.Results[i] = qr
	}
	return resp, nil
}

// callShard posts one shard's subplan to its peer, retrying failed
// attempts. It returns the response and how many attempts it took.
func (sc *Scatter) callShard(ctx context.Context, peer string, req BatchRequest, shard int, sub []sigsub.ShardQuery) (ShardExecResponse, int, error) {
	body, err := json.Marshal(ShardExecRequest{
		Corpus:  req.Corpus,
		Shard:   shard,
		Workers: req.Workers,
		Queries: sub,
	})
	if err != nil {
		return ShardExecResponse{}, 0, err
	}
	var lastErr error
	for attempt := 1; attempt <= sc.attempts(); attempt++ {
		if attempt > 1 {
			sc.retries.Add(1)
		}
		sc.shardCalls.Add(1)
		resp, retriable, err := sc.postShard(ctx, peer, body)
		if err == nil {
			return resp, attempt, nil
		}
		lastErr = err
		if !retriable || ctx.Err() != nil {
			return ShardExecResponse{}, attempt, lastErr
		}
	}
	return ShardExecResponse{}, sc.attempts(), lastErr
}

// postShard performs one shard-exec attempt. The second return reports
// whether a retry could help (network faults and 5xx yes; 4xx no — the
// subplan itself is wrong).
func (sc *Scatter) postShard(ctx context.Context, peer string, body []byte) (ShardExecResponse, bool, error) {
	callCtx, cancel := context.WithTimeout(ctx, sc.timeout())
	defer cancel()
	httpReq, err := http.NewRequestWithContext(callCtx, http.MethodPost,
		strings.TrimRight(peer, "/")+"/v1/shards/exec", bytes.NewReader(body))
	if err != nil {
		return ShardExecResponse{}, false, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := sc.client().Do(httpReq)
	if err != nil {
		return ShardExecResponse{}, true, err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(httpResp.Body, shardRespLimit))
	if err != nil {
		return ShardExecResponse{}, true, err
	}
	if httpResp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		retriable := httpResp.StatusCode >= 500 || httpResp.StatusCode == http.StatusTooManyRequests
		return ShardExecResponse{}, retriable, fmt.Errorf("peer returned %d: %s", httpResp.StatusCode, msg)
	}
	var resp ShardExecResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return ShardExecResponse{}, true, fmt.Errorf("bad peer response: %w", err)
	}
	return resp, false, nil
}

// corpusCatalog resolves the corpus's shard layout from the peers'
// advertised catalogs (with a small TTL cache). Every shard index
// 0..count−1 must be covered by some peer; gaps refuse with a typed
// ShardUnavailableError, and a corpus no peer knows returns ErrNotFound.
func (sc *Scatter) corpusCatalog(ctx context.Context, corpus string) (*shardCatalog, error) {
	sc.mu.Lock()
	if e, ok := sc.catalog[corpus]; ok && time.Since(e.fetched) < sc.catalogTTL() {
		cat := e.cat
		sc.mu.Unlock()
		return cat, nil
	}
	sc.mu.Unlock()

	type peerList struct {
		peer   string
		shards []ShardInfo
		err    error
	}
	lists := make([]peerList, len(sc.Peers))
	var wg sync.WaitGroup
	for i, peer := range sc.Peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			lists[i] = peerList{peer: peer}
			lists[i].shards, lists[i].err = sc.fetchShards(ctx, peer)
		}(i, peer)
	}
	wg.Wait()

	var entries []ShardInfo
	peerOf := map[int]string{}
	var fetchErrs []string
	for _, l := range lists {
		if l.err != nil {
			fetchErrs = append(fetchErrs, fmt.Sprintf("%s: %v", l.peer, l.err))
			continue
		}
		for _, si := range l.shards {
			if si.Corpus != corpus {
				continue
			}
			if _, dup := peerOf[si.Index]; dup {
				continue // first advertiser wins
			}
			peerOf[si.Index] = l.peer
			entries = append(entries, si)
		}
	}
	if len(entries) == 0 {
		if len(fetchErrs) == len(sc.Peers) && len(sc.Peers) > 0 {
			return nil, &ShardUnavailableError{Corpus: corpus, Total: len(sc.Peers),
				Failed: []ShardFailure{{Shard: -1, Err: "no peer catalog reachable: " + strings.Join(fetchErrs, "; ")}}}
		}
		return nil, fmt.Errorf("%w: %q (no peer advertises it)", ErrNotFound, corpus)
	}

	first := entries[0]
	cat := &shardCatalog{
		count:    first.Count,
		totalLen: first.TotalLen,
		k:        first.K,
		model:    first.Model,
		starts:   make([]int, first.Count),
		peers:    make([]string, first.Count),
	}
	seen := make([]bool, first.Count)
	for _, si := range entries {
		if si.Count != cat.count || si.TotalLen != cat.totalLen || si.K != cat.k {
			return nil, fmt.Errorf("service: corpus %q shard catalogs disagree: segment %d claims %d shards over %d symbols (k=%d), segment %d claims %d over %d (k=%d)",
				corpus, first.Index, cat.count, cat.totalLen, cat.k, si.Index, si.Count, si.TotalLen, si.K)
		}
		if si.Index < 0 || si.Index >= cat.count {
			return nil, fmt.Errorf("service: corpus %q advertises segment %d of %d", corpus, si.Index, cat.count)
		}
		seen[si.Index] = true
		cat.starts[si.Index] = si.Offset
		cat.peers[si.Index] = peerOf[si.Index]
	}
	var missing []ShardFailure
	for i, ok := range seen {
		if !ok {
			missing = append(missing, ShardFailure{Shard: i, Err: "no peer serves this segment"})
		}
	}
	if len(missing) > 0 {
		if len(fetchErrs) > 0 {
			missing = append(missing, ShardFailure{Shard: -1, Err: "unreachable catalogs: " + strings.Join(fetchErrs, "; ")})
		}
		return nil, &ShardUnavailableError{Corpus: corpus, Total: cat.count, Failed: missing}
	}

	sc.mu.Lock()
	if sc.catalog == nil {
		sc.catalog = make(map[string]*catalogEntry)
	}
	sc.catalog[corpus] = &catalogEntry{cat: cat, fetched: time.Now()}
	sc.mu.Unlock()
	return cat, nil
}

// fetchShards lists one peer's shard catalog.
func (sc *Scatter) fetchShards(ctx context.Context, peer string) ([]ShardInfo, error) {
	callCtx, cancel := context.WithTimeout(ctx, sc.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(callCtx, http.MethodGet, strings.TrimRight(peer, "/")+"/v1/shards", nil)
	if err != nil {
		return nil, err
	}
	resp, err := sc.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("catalog returned %d", resp.StatusCode)
	}
	var body struct {
		Shards []ShardInfo `json:"shards"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, shardExecBodyLimit)).Decode(&body); err != nil {
		return nil, fmt.Errorf("bad catalog response: %w", err)
	}
	return body.Shards, nil
}
