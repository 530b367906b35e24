package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// jsonBody encodes v as a JSON request body.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// rawPost issues a POST and returns the raw response, status unchecked.
func rawPost(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", jsonBody(t, body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestScanDeadline503: a scan that exceeds -scan-timeout is stopped
// cooperatively and reported as 503 with a Retry-After hint. A nanosecond
// deadline makes the outcome deterministic — the context expires before the
// engine takes its first step.
func TestScanDeadline503(t *testing.T) {
	ts := testServerConfig(t, serverConfig{
		cacheBytes: 1 << 20, maxQueries: 16, maxWorkers: 8, maxText: 1 << 16,
		scanTimeout: time.Nanosecond,
	})
	req := map[string]any{"text": demoText, "query": map[string]any{"kind": "mss"}}
	resp := rawPost(t, ts.URL+"/v1/query", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After hint")
	}
}

// TestOverloadShedding429: with every scan slot held, a request waits
// -scan-queue-wait and is then shed with 429 + Retry-After; releasing a slot
// lets the next request through unchanged.
func TestOverloadShedding429(t *testing.T) {
	srv, err := newServer(serverConfig{
		cacheBytes: 1 << 20, maxQueries: 16, maxWorkers: 8, maxText: 1 << 16,
		maxScans: 1, queueWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Occupy the only slot, as a stuck in-flight scan would.
	srv.scans <- struct{}{}
	req := map[string]any{"text": demoText, "query": map[string]any{"kind": "mss"}}
	resp := rawPost(t, ts.URL+"/v1/query", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}

	// Slot freed → same request succeeds.
	<-srv.scans
	resp = rawPost(t, ts.URL+"/v1/query", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after slot freed %d, want 200", resp.StatusCode)
	}
}

// TestRecoverEndpointValidation: recovery is defined only for live corpora;
// asking for anything else is a client error, not a crash.
func TestRecoverEndpointValidation(t *testing.T) {
	ts := testServer(t)
	do(t, "PUT", ts.URL+"/v1/corpora/demo", map[string]any{"text": demoText}, http.StatusOK, nil)
	// Cached but not live (no append store behind it).
	do(t, "POST", ts.URL+"/v1/corpora/demo/recover", nil, http.StatusBadRequest, nil)
	// Never uploaded.
	do(t, "POST", ts.URL+"/v1/corpora/ghost/recover", nil, http.StatusBadRequest, nil)
}

// TestOversizedBody413: a request body beyond the daemon's limit is cut off
// with 413 instead of being buffered.
func TestOversizedBody413(t *testing.T) {
	ts := testServerConfig(t, serverConfig{
		cacheBytes: 1 << 20, maxQueries: 16, maxWorkers: 8, maxText: 1 << 12,
	})
	huge := map[string]any{"text": strings.Repeat("0", 1<<17)}
	req, err := http.NewRequest("PUT", ts.URL+"/v1/corpora/big", jsonBody(t, huge))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestNonFiniteModelRejected: a model probability so small that Σ Y²/p
// overflows once got a 200 with an empty body — the scan's X² was not
// finite, the encoder failed after WriteHeader, and the error was dropped.
// Such models are now a 400 with a body, and a response that cannot be
// encoded is a typed 500 with a body.
func TestNonFiniteModelRejected(t *testing.T) {
	ts := testServer(t)
	for _, body := range []string{
		`{"text":"aabababbbaab","model":{"probs":[5e-324,0.9999999999999999]},"queries":[{"kind":"mss"}]}`,
		`{"text":"` + strings.Repeat("a", 14) + strings.Repeat("bc", 44) + `b","model":{"probs":[1e-306,0.5,0.5]},"queries":[{"kind":"mss"}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || eb.Error == "" {
			t.Errorf("%s: status %d, body error %q (%v); want 400 with an error", body, resp.StatusCode, eb.Error, err)
		}
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x2": math.Inf(1)})
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); rec.Code != http.StatusInternalServerError || err != nil || eb.Error == "" {
		t.Fatalf("unencodable response: status %d body %q (%v); want a 500 with an error", rec.Code, rec.Body, err)
	}
}
