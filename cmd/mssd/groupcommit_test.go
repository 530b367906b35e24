// Daemon-level group-commit tests: the durability field on the append
// endpoint and commit-pipeline stats in healthz and corpus listings.
package main

import (
	"net/http"
	"sync"
	"testing"

	"repro/internal/service"
)

// gcServerConfig is the durable test daemon (the wiring main() builds).
func gcServerConfig(t *testing.T, dir string) string {
	t.Helper()
	ts := testServerConfig(t, serverConfig{
		cacheBytes: 1 << 20,
		maxQueries: 16,
		maxWorkers: 8,
		maxText:    1 << 16,
		dataDir:    dir,
	})
	return ts.URL
}

func TestDaemonAppendDurabilityModes(t *testing.T) {
	url := gcServerConfig(t, t.TempDir())
	do(t, "PUT", url+"/v1/corpora/demo", map[string]any{"text": demoText}, http.StatusOK, nil)

	var app struct {
		Corpus service.Info `json:"corpus"`
	}
	// Default and explicit fsync durability.
	do(t, "POST", url+"/v1/corpora/demo/append", map[string]any{"text": "01"}, http.StatusOK, &app)
	do(t, "POST", url+"/v1/corpora/demo/append", map[string]any{"text": "10", "durability": "fsync"}, http.StatusOK, &app)
	if app.Corpus.Commit == nil {
		t.Fatalf("append response carries no commit stats: %+v", app.Corpus)
	}
	if app.Corpus.Commit.Records < 2 {
		t.Fatalf("commit stats after 2 fsync appends: %+v", app.Corpus.Commit)
	}
	// Relaxed durability: acked on write; concurrent relaxed appends are
	// amortized onto shared fsyncs.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(t, "POST", url+"/v1/corpora/demo/append", map[string]any{"text": "01", "durability": "relaxed"}, http.StatusOK, nil)
		}()
	}
	wg.Wait()
	// Relaxed acks land before their covering fsync; a trailing fsync-mode
	// append queues behind them, so once it returns they are durable too.
	do(t, "POST", url+"/v1/corpora/demo/append", map[string]any{"text": "10"}, http.StatusOK, nil)
	// A typo'd mode is a 400, not a silent default.
	do(t, "POST", url+"/v1/corpora/demo/append", map[string]any{"text": "01", "durability": "relaxd"}, http.StatusBadRequest, nil)

	// healthz reports the node-wide pipeline.
	var health struct {
		Status string               `json:"status"`
		Commit *service.CommitStats `json:"commit"`
		Fsync  int64                `json:"fsync_interval_ns"`
	}
	do(t, "GET", url+"/v1/healthz", nil, http.StatusOK, &health)
	if health.Status != "ok" || health.Commit == nil {
		t.Fatalf("healthz: %+v", health)
	}
	if health.Commit.Fsyncs == 0 || health.Commit.Records < 10 {
		t.Fatalf("healthz commit stats: %+v", *health.Commit)
	}
	if health.Fsync <= 0 {
		t.Fatalf("healthz fsync_interval_ns: %d", health.Fsync)
	}
}
