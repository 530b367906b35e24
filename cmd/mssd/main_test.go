package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	sigsub "repro"
	"repro/internal/service"
)

const demoText = "01011010111111111110010101"

// libResults answers q on the library scanner, failing the test on any
// error: the reference the daemon's answers are diffed against.
func libResults(t *testing.T, sc *sigsub.Scanner, q sigsub.Query) []sigsub.Result {
	t.Helper()
	qr, err := sc.Run(q)
	if err == nil {
		err = qr.Err
	}
	if err != nil {
		t.Fatal(err)
	}
	return qr.Results
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	return testServerConfig(t, serverConfig{cacheBytes: 1 << 20, maxQueries: 16, maxWorkers: 8, maxText: 1 << 16})
}

func testServerConfig(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// do issues a JSON request and decodes the response into out.
func do(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var raw bytes.Buffer
		raw.ReadFrom(resp.Body)
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, raw.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDaemonCorpusLifecycle(t *testing.T) {
	ts := testServer(t)

	var health struct {
		Status  string `json:"status"`
		Corpora int    `json:"corpora"`
	}
	do(t, "GET", ts.URL+"/v1/healthz", nil, http.StatusOK, &health)
	if health.Status != "ok" || health.Corpora != 0 {
		t.Fatalf("healthz: %+v", health)
	}

	var put struct {
		Corpus service.Info `json:"corpus"`
	}
	do(t, "PUT", ts.URL+"/v1/corpora/demo", map[string]any{"text": demoText}, http.StatusOK, &put)
	if put.Corpus.N != len(demoText) || put.Corpus.K != 2 {
		t.Fatalf("upload: %+v", put.Corpus)
	}

	var list struct {
		Corpora []service.Info `json:"corpora"`
	}
	do(t, "GET", ts.URL+"/v1/corpora", nil, http.StatusOK, &list)
	if len(list.Corpora) != 1 || list.Corpora[0].Name != "demo" {
		t.Fatalf("list: %+v", list)
	}

	do(t, "DELETE", ts.URL+"/v1/corpora/demo", nil, http.StatusOK, nil)
	do(t, "DELETE", ts.URL+"/v1/corpora/demo", nil, http.StatusNotFound, nil)
	do(t, "POST", ts.URL+"/v1/query", map[string]any{"corpus": "demo", "query": map[string]any{"kind": "mss"}}, http.StatusNotFound, nil)
}

func TestDaemonBadRequests(t *testing.T) {
	ts := testServer(t)
	do(t, "PUT", ts.URL+"/v1/corpora/x", map[string]any{"text": ""}, http.StatusBadRequest, nil)
	do(t, "PUT", ts.URL+"/v1/corpora/x", map[string]any{"text": demoText, "bogus": 1}, http.StatusBadRequest, nil)
	do(t, "PUT", ts.URL+"/v1/corpora/x", map[string]any{"text": strings.Repeat("01", 1<<16)}, http.StatusBadRequest, nil)
	do(t, "POST", ts.URL+"/v1/batch", map[string]any{"text": demoText}, http.StatusBadRequest, nil)
	do(t, "POST", ts.URL+"/v1/batch", map[string]any{
		"text": demoText, "workers": 99,
		"queries": []map[string]any{{"kind": "mss"}},
	}, http.StatusBadRequest, nil)
	// A negative limit (library-speak for "unlimited") must be refused.
	do(t, "POST", ts.URL+"/v1/query", map[string]any{
		"text":  demoText,
		"query": map[string]any{"kind": "threshold", "alpha": 0.001, "limit": -1},
	}, http.StatusOK, nil) // per-query error rides in the slot, not the status
	var neg struct {
		Result service.QueryResult `json:"result"`
	}
	do(t, "POST", ts.URL+"/v1/query", map[string]any{
		"text":  demoText,
		"query": map[string]any{"kind": "threshold", "alpha": 0.001, "limit": -1},
	}, http.StatusOK, &neg)
	if !strings.Contains(neg.Result.Error, "limit must be >= 0") || len(neg.Result.Results) != 0 {
		t.Errorf("negative limit slot: %+v", neg.Result)
	}
}

// TestDaemonRefusesWarmStart: the retired "warm_start" field gets a 400
// naming it on each scan endpoint, set true or false, where the same body
// without it answers 200 — no client is told its scan was seeded.
func TestDaemonRefusesWarmStart(t *testing.T) {
	ts := testServer(t)
	do(t, "PUT", ts.URL+"/v1/corpora/demo", map[string]any{"text": demoText}, http.StatusOK, nil)
	mss := map[string]any{"kind": "mss"}
	n := len(demoText)
	for path, body := range map[string]map[string]any{
		"/v1/batch":       {"corpus": "demo", "queries": []any{mss, map[string]any{"kind": "topt", "t": 3}}},
		"/v1/query":       {"corpus": "demo", "query": mss},
		"/v1/shards/exec": {"corpus": "demo", "shard": 0, "queries": []any{map[string]any{"kind": "mss", "lo": 0, "hi": n, "row_lo": 0, "row_hi": n - 1}}},
	} {
		do(t, "POST", ts.URL+path, body, http.StatusOK, nil)
		for _, warm := range []bool{true, false} {
			body["warm_start"] = warm
			var refused errorBody
			do(t, "POST", ts.URL+path, body, http.StatusBadRequest, &refused)
			if !strings.Contains(refused.Error, `unknown field "warm_start"`) {
				t.Errorf("%s with warm_start %v: error %q does not name the field", path, warm, refused.Error)
			}
		}
	}
}

// TestDaemonBodyLimitCoversEscaping: an upload the -max-text limit permits
// must decode even when JSON escaping inflates it severalfold on the wire.
func TestDaemonBodyLimitCoversEscaping(t *testing.T) {
	ts := testServer(t) // maxText 1<<16
	// 60000 text bytes of control characters, each 6 wire bytes (\u000X).
	raw := make([]byte, 60000)
	for i := range raw {
		raw[i] = byte(1 + i%2)
	}
	do(t, "PUT", ts.URL+"/v1/corpora/escaped", map[string]any{"text": string(raw)}, http.StatusOK, nil)
}

// TestDaemonBatchMatchesLibrary is the in-process form of the CI smoke
// check: a batch of three mixed queries must return exactly what the
// library returns.
func TestDaemonBatchMatchesLibrary(t *testing.T) {
	ts := testServer(t)
	do(t, "PUT", ts.URL+"/v1/corpora/demo", map[string]any{"text": demoText}, http.StatusOK, nil)

	var resp service.BatchResponse
	do(t, "POST", ts.URL+"/v1/batch", map[string]any{
		"corpus":       "demo",
		"include_text": true,
		"queries": []map[string]any{
			{"kind": "mss"},
			{"kind": "topt", "t": 3},
			{"kind": "threshold", "alpha": 8},
		},
	}, http.StatusOK, &resp)
	if len(resp.Results) != 3 {
		t.Fatalf("%d results", len(resp.Results))
	}

	codec, err := sigsub.NewTextCodecSorted(demoText)
	if err != nil {
		t.Fatal(err)
	}
	symbols, err := codec.Encode(demoText)
	if err != nil {
		t.Fatal(err)
	}
	model, err := codec.UniformModel()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sigsub.NewScanner(symbols, model)
	if err != nil {
		t.Fatal(err)
	}

	mss, err := sc.MSS()
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Results[0].Results[0]
	if got.Start != mss.Start || got.End != mss.End || got.X2 != mss.X2 {
		t.Errorf("daemon MSS %+v, library %+v", got, mss)
	}
	if got.Text != demoText[mss.Start:mss.End] {
		t.Errorf("snippet %q", got.Text)
	}
	top := libResults(t, sc, sigsub.TopTQuery(3))
	if len(resp.Results[1].Results) != 3 {
		t.Fatalf("top-t returned %d", len(resp.Results[1].Results))
	}
	for i := range top {
		if resp.Results[1].Results[i].X2 != top[i].X2 {
			t.Errorf("top-t %d: %v vs %v", i, resp.Results[1].Results[i].X2, top[i].X2)
		}
	}
	th := libResults(t, sc, sigsub.ThresholdQuery(8))
	if len(resp.Results[2].Results) != len(th) {
		t.Fatalf("threshold %d vs %d", len(resp.Results[2].Results), len(th))
	}
	for i := range th {
		r := resp.Results[2].Results[i]
		if r.Start != th[i].Start || r.End != th[i].End || r.X2 != th[i].X2 {
			t.Errorf("threshold %d diverges", i)
		}
	}
}

// TestDaemonInlineQueryAndModels covers the single-query endpoint with
// inline text and explicit models.
func TestDaemonInlineQueryAndModels(t *testing.T) {
	ts := testServer(t)
	var resp struct {
		Corpus service.Info        `json:"corpus"`
		Result service.QueryResult `json:"result"`
	}
	do(t, "POST", ts.URL+"/v1/query", map[string]any{
		"text":  demoText,
		"model": map[string]any{"mle": true},
		"query": map[string]any{"kind": "mss", "min_length": 5},
	}, http.StatusOK, &resp)
	if len(resp.Result.Results) != 1 {
		t.Fatalf("result: %+v", resp.Result)
	}
	if resp.Result.Results[0].Length < 5 {
		t.Errorf("min_length ignored: %+v", resp.Result.Results[0])
	}
	if resp.Corpus.Model == "" || resp.Corpus.K != 2 {
		t.Errorf("corpus info: %+v", resp.Corpus)
	}
	// Stats must account for the full candidate set of the min-length scan.
	n := int64(len(demoText))
	minLen := int64(5)
	rows := n - minLen + 1
	if got, want := resp.Result.Stats.Evaluated+resp.Result.Stats.Skipped, rows*(rows+1)/2; got != want {
		t.Errorf("stats account for %d candidates, want %d", got, want)
	}
}

// TestDaemonRestartPersistence is the in-process restart check: a daemon
// with -data-dir is torn down and rebuilt over the same directory, and the
// previously uploaded corpus must answer every query bit-identically with
// no re-upload, now served from an mmap'd snapshot.
func TestDaemonRestartPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := serverConfig{cacheBytes: 1 << 20, dataDir: dir, maxQueries: 16, maxWorkers: 8, maxText: 1 << 16}
	batch := map[string]any{
		"corpus":       "games",
		"include_text": true,
		"queries": []map[string]any{
			{"kind": "mss"},
			{"kind": "topt", "t": 5},
			{"kind": "threshold", "alpha": 8},
			{"kind": "mss", "min_length": 5},
		},
	}

	ts := testServerConfig(t, cfg)
	do(t, "PUT", ts.URL+"/v1/corpora/games", map[string]any{"text": demoText, "model": map[string]any{"mle": true}}, http.StatusOK, nil)
	var before service.BatchResponse
	do(t, "POST", ts.URL+"/v1/batch", batch, http.StatusOK, &before)
	ts.Close() // the "kill"

	ts2 := testServerConfig(t, cfg) // the restart: no re-upload
	var list struct {
		Corpora []service.Info `json:"corpora"`
	}
	do(t, "GET", ts2.URL+"/v1/corpora", nil, http.StatusOK, &list)
	if len(list.Corpora) != 1 || list.Corpora[0].Name != "games" {
		t.Fatalf("catalog after restart: %+v", list.Corpora)
	}
	if list.Corpora[0].MappedBytes == 0 {
		t.Error("restarted corpus is not mmap-served")
	}
	var after service.BatchResponse
	do(t, "POST", ts2.URL+"/v1/batch", batch, http.StatusOK, &after)
	b1, _ := json.Marshal(before.Results)
	b2, _ := json.Marshal(after.Results)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("post-restart answers differ:\n before %s\n after  %s", b1, b2)
	}
	if after.Corpus.Model != before.Corpus.Model {
		t.Fatalf("model drifted across restart: %q -> %q", before.Corpus.Model, after.Corpus.Model)
	}

	// healthz reports the mapped footprint and the data dir.
	var health struct {
		MappedBytes int64  `json:"mapped_bytes"`
		DataDir     string `json:"data_dir"`
	}
	do(t, "GET", ts2.URL+"/v1/healthz", nil, http.StatusOK, &health)
	if health.MappedBytes == 0 || health.DataDir != dir {
		t.Errorf("healthz: %+v", health)
	}

	// Delete tombstones the file: a third daemon sees nothing.
	do(t, "DELETE", ts2.URL+"/v1/corpora/games", nil, http.StatusOK, nil)
	ts2.Close()
	ts3 := testServerConfig(t, cfg)
	do(t, "GET", ts3.URL+"/v1/corpora", nil, http.StatusOK, &list)
	if len(list.Corpora) != 0 {
		t.Fatalf("deleted corpus resurrected: %+v", list.Corpora)
	}
}

// TestDaemonCacheMissReloadsFromDisk: a persisted corpus evicted by the
// byte budget must not 404 subsequent queries — the store reloads it.
func TestDaemonCacheMissReloadsFromDisk(t *testing.T) {
	dir := t.TempDir()
	// A 1-byte budget makes every corpus oversized: each upload evicts the
	// previous resident, forcing the named-corpus path through the store.
	ts := testServerConfig(t, serverConfig{cacheBytes: 1, dataDir: dir, maxQueries: 16, maxWorkers: 8, maxText: 1 << 16})
	do(t, "PUT", ts.URL+"/v1/corpora/a", map[string]any{"text": demoText}, http.StatusOK, nil)

	var one struct {
		Result service.QueryResult `json:"result"`
	}
	do(t, "POST", ts.URL+"/v1/query", map[string]any{"corpus": "a", "query": map[string]any{"kind": "mss"}}, http.StatusOK, &one)
	want := one.Result

	// Uploading b evicts a from the 1-byte cache; a must still answer.
	do(t, "PUT", ts.URL+"/v1/corpora/b", map[string]any{"text": demoText}, http.StatusOK, nil)

	// Oversized names cannot be persisted: 400, not a filesystem error.
	long := strings.Repeat("n", service.MaxStoredNameBytes+1)
	do(t, "PUT", ts.URL+"/v1/corpora/"+long, map[string]any{"text": demoText}, http.StatusBadRequest, nil)

	do(t, "POST", ts.URL+"/v1/query", map[string]any{"corpus": "a", "query": map[string]any{"kind": "mss"}}, http.StatusOK, &one)
	b1, _ := json.Marshal(want)
	b2, _ := json.Marshal(one.Result)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("reload drifted: %s vs %s", b1, b2)
	}
}

// TestDaemonConcurrentQueries hammers one corpus in parallel (race check).
func TestDaemonConcurrentQueries(t *testing.T) {
	ts := testServer(t)
	do(t, "PUT", ts.URL+"/v1/corpora/demo", map[string]any{"text": strings.Repeat(demoText, 8)}, http.StatusOK, nil)
	errc := make(chan error, 6)
	for g := 0; g < 6; g++ {
		go func(g int) {
			for i := 0; i < 4; i++ {
				var resp service.BatchResponse
				body, _ := json.Marshal(map[string]any{
					"corpus":  "demo",
					"workers": 1 + g%4,
					"queries": []map[string]any{{"kind": "mss"}, {"kind": "threshold", "alpha": 12}},
				})
				r, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				err = json.NewDecoder(r.Body).Decode(&resp)
				r.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if len(resp.Results) != 2 || len(resp.Results[0].Results) != 1 {
					errc <- fmt.Errorf("goroutine %d: unexpected response %+v", g, resp)
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < 6; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDaemonAppendLifecycle drives the live path end to end in-process:
// upload → appends (epoch/n advance, answers track the library) → kill →
// restart (full history replayed from base + WAL) → more appends → compact
// → restart again.
func TestDaemonAppendLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg := serverConfig{cacheBytes: 1 << 20, dataDir: dir, maxQueries: 16, maxWorkers: 8, maxText: 1 << 16}
	ts := testServerConfig(t, cfg)

	do(t, "PUT", ts.URL+"/v1/corpora/live", map[string]any{"text": demoText}, http.StatusOK, nil)

	full := demoText
	var appendResp struct {
		Corpus service.Info `json:"corpus"`
	}
	for i, chunk := range []string{"1111111111", "010101", "000000111"} {
		do(t, "POST", ts.URL+"/v1/corpora/live/append", map[string]any{"text": chunk}, http.StatusOK, &appendResp)
		full += chunk
		if appendResp.Corpus.N != len(full) || !appendResp.Corpus.Live || appendResp.Corpus.Epoch != uint64(i+1) {
			t.Fatalf("append %d: %+v, want n=%d live epoch=%d", i, appendResp.Corpus, len(full), i+1)
		}
	}

	// Ground truth over the concatenation.
	wantMSS := func(text string) sigsub.Result {
		t.Helper()
		codec, err := sigsub.NewTextCodecSorted(text)
		if err != nil {
			t.Fatal(err)
		}
		syms, err := codec.Encode(text)
		if err != nil {
			t.Fatal(err)
		}
		model, err := codec.UniformModel()
		if err != nil {
			t.Fatal(err)
		}
		sc, err := sigsub.NewScanner(syms, model)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sc.MSS()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var q struct {
		Result service.QueryResult `json:"result"`
	}
	do(t, "POST", ts.URL+"/v1/query", map[string]any{"corpus": "live", "query": map[string]any{"kind": "mss"}}, http.StatusOK, &q)
	if want := wantMSS(full); q.Result.Results[0].Start != want.Start || q.Result.Results[0].X2 != want.X2 {
		t.Fatalf("live MSS %+v, want %+v", q.Result.Results[0], want)
	}

	// Appending characters outside the upload alphabet is a 400 and does
	// not advance the epoch.
	do(t, "POST", ts.URL+"/v1/corpora/live/append", map[string]any{"text": "01x"}, http.StatusBadRequest, nil)
	var health struct {
		Epochs      map[string]uint64 `json:"epochs"`
		LiveCorpora int               `json:"live_corpora"`
	}
	do(t, "GET", ts.URL+"/v1/healthz", nil, http.StatusOK, &health)
	if health.LiveCorpora != 1 || health.Epochs["live"] != 3 {
		t.Fatalf("healthz live state: %+v", health)
	}

	// Kill and restart: the appended history replays without re-upload.
	ts.Close()
	ts2 := testServerConfig(t, cfg)
	do(t, "GET", ts2.URL+"/v1/healthz", nil, http.StatusOK, &health)
	if health.LiveCorpora != 1 || health.Epochs["live"] != 3 {
		t.Fatalf("healthz after restart: %+v", health)
	}
	do(t, "POST", ts2.URL+"/v1/query", map[string]any{"corpus": "live", "query": map[string]any{"kind": "mss"}}, http.StatusOK, &q)
	if want := wantMSS(full); q.Result.Results[0].Start != want.Start || q.Result.Results[0].X2 != want.X2 {
		t.Fatalf("post-restart MSS %+v, want %+v", q.Result.Results[0], want)
	}

	// Append more, compact, restart: still the full history.
	do(t, "POST", ts2.URL+"/v1/corpora/live/append", map[string]any{"text": "1101"}, http.StatusOK, nil)
	full += "1101"
	var compacted struct {
		Corpus service.Info `json:"corpus"`
	}
	do(t, "POST", ts2.URL+"/v1/corpora/live/compact", map[string]any{}, http.StatusOK, &compacted)
	if compacted.Corpus.N != len(full) {
		t.Fatalf("compacted info %+v, want n=%d", compacted.Corpus, len(full))
	}
	ts2.Close()
	ts3 := testServerConfig(t, cfg)
	do(t, "POST", ts3.URL+"/v1/query", map[string]any{"corpus": "live", "query": map[string]any{"kind": "mss"}}, http.StatusOK, &q)
	if want := wantMSS(full); q.Result.Results[0].Start != want.Start || q.Result.Results[0].X2 != want.X2 {
		t.Fatalf("post-compact restart MSS %+v, want %+v", q.Result.Results[0], want)
	}

	// The listing marks the corpus live with its epoch.
	var list struct {
		Corpora []service.Info `json:"corpora"`
	}
	do(t, "GET", ts3.URL+"/v1/corpora", nil, http.StatusOK, &list)
	if len(list.Corpora) != 1 || !list.Corpora[0].Live || list.Corpora[0].N != len(full) {
		t.Fatalf("live listing: %+v", list.Corpora)
	}
}

// TestDaemonAppendMemoryOnly: a daemon without -data-dir still supports
// appends (in-memory promotion); unknown corpora 404.
func TestDaemonAppendMemoryOnly(t *testing.T) {
	ts := testServer(t)
	do(t, "POST", ts.URL+"/v1/corpora/none/append", map[string]any{"text": "01"}, http.StatusNotFound, nil)
	do(t, "PUT", ts.URL+"/v1/corpora/mem", map[string]any{"text": demoText}, http.StatusOK, nil)
	var appendResp struct {
		Corpus service.Info `json:"corpus"`
	}
	do(t, "POST", ts.URL+"/v1/corpora/mem/append", map[string]any{"text": "111111"}, http.StatusOK, &appendResp)
	if appendResp.Corpus.N != len(demoText)+6 || !appendResp.Corpus.Live {
		t.Fatalf("memory-only append: %+v", appendResp.Corpus)
	}
	// No store → nothing to compact.
	do(t, "POST", ts.URL+"/v1/corpora/mem/compact", map[string]any{}, http.StatusBadRequest, nil)
	// The appended corpus answers queries at its new length.
	var q struct {
		Corpus service.Info `json:"corpus"`
	}
	do(t, "POST", ts.URL+"/v1/query", map[string]any{"corpus": "mem", "query": map[string]any{"kind": "mss"}}, http.StatusOK, &q)
	if q.Corpus.N != len(demoText)+6 {
		t.Fatalf("query after memory-only append: %+v", q.Corpus)
	}
}

// TestDaemonAppendConcurrentWithQueries floods a live corpus with appends
// while queries run against it — the epoch-published-view contract over
// HTTP.
func TestDaemonAppendConcurrentWithQueries(t *testing.T) {
	ts := testServer(t)
	do(t, "PUT", ts.URL+"/v1/corpora/hot", map[string]any{"text": demoText}, http.StatusOK, nil)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			do(t, "POST", ts.URL+"/v1/corpora/hot/append", map[string]any{"text": "0110101101"}, http.StatusOK, nil)
		}
	}()
	for {
		select {
		case <-done:
			var q struct {
				Corpus service.Info `json:"corpus"`
			}
			do(t, "POST", ts.URL+"/v1/query", map[string]any{"corpus": "hot", "query": map[string]any{"kind": "mss"}}, http.StatusOK, &q)
			if q.Corpus.N != len(demoText)+400 || q.Corpus.Epoch != 40 {
				t.Fatalf("final corpus %+v, want n=%d epoch=40", q.Corpus, len(demoText)+400)
			}
			return
		default:
			var resp struct {
				Corpus  service.Info          `json:"corpus"`
				Results []service.QueryResult `json:"results"`
			}
			do(t, "POST", ts.URL+"/v1/batch", map[string]any{
				"corpus":  "hot",
				"workers": 2,
				"queries": []map[string]any{{"kind": "mss"}, {"kind": "topt", "t": 3}},
			}, http.StatusOK, &resp)
			// Each answer is computed against one self-consistent epoch.
			if resp.Corpus.N < len(demoText) || len(resp.Results) != 2 {
				t.Fatalf("mid-append batch: %+v", resp.Corpus)
			}
		}
	}
}
