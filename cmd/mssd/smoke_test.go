package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	sigsub "repro"
	"repro/internal/service"
)

// TestMSSDSmoke is the end-to-end smoke check CI runs (MSSD_SMOKE=1): it
// builds the real mssd binary, starts it as a separate process, uploads a
// corpus over HTTP, POSTs a batch of three mixed queries, and asserts the
// answers match the library exactly. Without the env var the test is
// skipped, keeping ordinary `go test ./...` hermetic and fast.
func TestMSSDSmoke(t *testing.T) {
	if os.Getenv("MSSD_SMOKE") == "" {
		t.Skip("set MSSD_SMOKE=1 to run the daemon smoke test")
	}

	bin := filepath.Join(t.TempDir(), "mssd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build: %v", err)
	}

	// Pick a free port, then hand it to the daemon.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	daemon := exec.Command(bin, "-addr", addr)
	daemon.Stdout = os.Stderr
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		daemon.Process.Kill()
		daemon.Wait()
	})

	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	text := "01011010111111111110010101"
	body, _ := json.Marshal(map[string]any{"text": text})
	req, _ := http.NewRequest("PUT", base+"/v1/corpora/smoke", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}

	body, _ = json.Marshal(map[string]any{
		"corpus": "smoke",
		"queries": []map[string]any{
			{"kind": "mss"},
			{"kind": "topt", "t": 3},
			{"kind": "threshold", "alpha": 8},
		},
	})
	resp, err = http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var batch service.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("%d results", len(batch.Results))
	}

	// Library ground truth.
	codec, err := sigsub.NewTextCodecSorted(text)
	if err != nil {
		t.Fatal(err)
	}
	symbols, err := codec.Encode(text)
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
	top := libResults(t, sc, sigsub.TopTQuery(3))
	th := libResults(t, sc, sigsub.ThresholdQuery(8))

	if got := batch.Results[0].Results[0]; got.Start != mss.Start || got.End != mss.End || got.X2 != mss.X2 {
		t.Errorf("daemon MSS %+v, library %+v", got, mss)
	}
	if len(batch.Results[1].Results) != len(top) {
		t.Fatalf("top-t sizes %d vs %d", len(batch.Results[1].Results), len(top))
	}
	for i := range top {
		if batch.Results[1].Results[i].X2 != top[i].X2 {
			t.Errorf("top-t %d: %v vs %v", i, batch.Results[1].Results[i].X2, top[i].X2)
		}
	}
	if len(batch.Results[2].Results) != len(th) {
		t.Fatalf("threshold sizes %d vs %d", len(batch.Results[2].Results), len(th))
	}
	for i := range th {
		got := batch.Results[2].Results[i]
		if got.Start != th[i].Start || got.End != th[i].End || got.X2 != th[i].X2 {
			t.Errorf("threshold %d: %+v vs %+v", i, got, th[i])
		}
	}
	fmt.Println("mssd smoke: daemon answers match the library for 3 mixed queries")
}

// TestMSSDSnapshotSmoke is the snapshot-compatibility smoke check CI runs
// (MSSD_SMOKE=1): an offline index built by the real `mss -snapshot-out`
// binary is dropped into a -data-dir, a real `mssd` serves it over HTTP, the
// daemon is then KILLED and restarted — and both the offline corpus and one
// uploaded over HTTP must answer bit-identically to the library, with no
// re-upload after the restart.
func TestMSSDSnapshotSmoke(t *testing.T) {
	if os.Getenv("MSSD_SMOKE") == "" {
		t.Skip("set MSSD_SMOKE=1 to run the snapshot smoke test")
	}
	tmp := t.TempDir()
	mssdBin := filepath.Join(tmp, "mssd")
	mssBin := filepath.Join(tmp, "mss")
	for bin, dir := range map[string]string{mssdBin: ".", mssBin: "../mss"} {
		build := exec.Command("go", "build", "-o", bin, dir)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			t.Fatalf("build %s: %v", bin, err)
		}
	}

	// Offline build: mss -snapshot-out writes the snapshot under the file
	// name the daemon's store uses for the corpus name "offline".
	text := strings.Repeat("0101101011111111111001010100100111", 40)
	corpusFile := filepath.Join(tmp, "corpus.txt")
	if err := os.WriteFile(corpusFile, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(tmp, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	snapName := base64.RawURLEncoding.EncodeToString([]byte("offline")) + ".snap"
	build := exec.Command(mssBin, "-file", corpusFile, "-mle",
		"-snapshot-out", filepath.Join(dataDir, snapName), "-mode", "none")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("mss -snapshot-out: %v", err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	base := "http://" + addr

	startDaemon := func() *exec.Cmd {
		t.Helper()
		daemon := exec.Command(mssdBin, "-addr", addr, "-data-dir", dataDir)
		daemon.Stdout = os.Stderr
		daemon.Stderr = os.Stderr
		if err := daemon.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(base + "/v1/healthz")
			if err == nil {
				resp.Body.Close()
				return daemon
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon never became healthy: %v", err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	queryBatch := func(corpus string) service.BatchResponse {
		t.Helper()
		body, _ := json.Marshal(map[string]any{
			"corpus": corpus,
			"queries": []map[string]any{
				{"kind": "mss"},
				{"kind": "topt", "t": 5},
				{"kind": "threshold", "alpha": 10},
				{"kind": "mss", "min_length": 8},
			},
		})
		resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch against %q: status %d", corpus, resp.StatusCode)
		}
		var batch service.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
			t.Fatal(err)
		}
		return batch
	}

	daemon := startDaemon()
	kill := func() {
		daemon.Process.Kill()
		daemon.Wait()
	}
	defer kill()

	// Round 1: the offline snapshot serves immediately; upload a second
	// corpus over HTTP.
	first := queryBatch("offline")
	body, _ := json.Marshal(map[string]any{"text": text, "model": map[string]any{"mle": true}})
	req, _ := http.NewRequest("PUT", base+"/v1/corpora/live", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	liveFirst := queryBatch("live")

	// Kill hard and restart over the same directory.
	kill()
	daemon = startDaemon()

	second := queryBatch("offline")
	liveSecond := queryBatch("live")
	b1, _ := json.Marshal(first.Results)
	b2, _ := json.Marshal(second.Results)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("offline corpus drifted across restart:\n %s\n %s", b1, b2)
	}
	b1, _ = json.Marshal(liveFirst.Results)
	b2, _ = json.Marshal(liveSecond.Results)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("uploaded corpus drifted across restart:\n %s\n %s", b1, b2)
	}

	// Library ground truth for the offline corpus (MLE model, as built).
	codec, err := sigsub.NewTextCodecSorted(text)
	if err != nil {
		t.Fatal(err)
	}
	symbols, err := codec.Encode(text)
	if err != nil {
		t.Fatal(err)
	}
	model, err := sigsub.ModelFromSample(symbols, codec.K())
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
	if got := second.Results[0].Results[0]; got.Start != mss.Start || got.End != mss.End || got.X2 != mss.X2 {
		t.Errorf("post-restart MSS %+v, library %+v", got, mss)
	}
	top := libResults(t, sc, sigsub.TopTQuery(5))
	for i := range top {
		if second.Results[1].Results[i].X2 != top[i].X2 {
			t.Errorf("post-restart top-t %d: %v vs %v", i, second.Results[1].Results[i].X2, top[i].X2)
		}
	}
	fmt.Println("mssd snapshot smoke: offline snapshot + uploaded corpus survive a kill-and-restart bit-identically")
}

// TestMSSDAppendSmoke is the live-corpus smoke check CI runs (MSSD_SMOKE=1):
// a real mssd with a -data-dir takes an upload plus a stream of appends, is
// KILLED mid-flight, restarted over the same directory — and must serve the
// complete appended history, answering bit-identically to the library over
// the full concatenated string, with no re-upload.
func TestMSSDAppendSmoke(t *testing.T) {
	if os.Getenv("MSSD_SMOKE") == "" {
		t.Skip("set MSSD_SMOKE=1 to run the append smoke test")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "mssd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build: %v", err)
	}
	dataDir := filepath.Join(tmp, "data")

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	base := "http://" + addr

	startDaemon := func() *exec.Cmd {
		t.Helper()
		daemon := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
		daemon.Stdout = os.Stderr
		daemon.Stderr = os.Stderr
		if err := daemon.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(base + "/v1/healthz")
			if err == nil {
				resp.Body.Close()
				return daemon
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon never became healthy: %v", err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	post := func(path string, body map[string]any, out any) {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var raw bytes.Buffer
			raw.ReadFrom(resp.Body)
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, raw.String())
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}

	daemon := startDaemon()
	kill := func() {
		daemon.Process.Kill()
		daemon.Wait()
	}
	defer kill()

	text := "0101101011111111111001010100100111"
	body, _ := json.Marshal(map[string]any{"text": text})
	req, _ := http.NewRequest("PUT", base+"/v1/corpora/stream", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}

	// Stream of appends (N batches of varying shape).
	full := text
	chunks := []string{"1111111111", "0101010101", "1", "0011001100110011", "000000", "1011011101111", "01", "1110001110"}
	for _, chunk := range chunks {
		post("/v1/corpora/stream/append", map[string]any{"text": chunk}, nil)
		full += chunk
	}

	// Kill hard, restart over the same directory.
	kill()
	daemon = startDaemon()

	var health struct {
		Epochs map[string]uint64 `json:"epochs"`
	}
	hresp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Epochs["stream"] != uint64(len(chunks)) {
		t.Fatalf("post-restart epoch %d, want %d", health.Epochs["stream"], len(chunks))
	}

	var batch service.BatchResponse
	post("/v1/batch", map[string]any{
		"corpus": "stream",
		"queries": []map[string]any{
			{"kind": "mss"},
			{"kind": "topt", "t": 5},
			{"kind": "threshold", "alpha": 10},
			{"kind": "mss", "min_length": 8},
		},
	}, &batch)

	// Library ground truth over the full concatenated string.
	codec, err := sigsub.NewTextCodecSorted(full)
	if err != nil {
		t.Fatal(err)
	}
	symbols, err := codec.Encode(full)
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
	if got := batch.Results[0].Results[0]; got.Start != mss.Start || got.End != mss.End || got.X2 != mss.X2 {
		t.Errorf("post-restart MSS %+v, library %+v", got, mss)
	}
	top := libResults(t, sc, sigsub.TopTQuery(5))
	for i := range top {
		if batch.Results[1].Results[i].X2 != top[i].X2 {
			t.Errorf("post-restart top-t %d: %v vs %v", i, batch.Results[1].Results[i].X2, top[i].X2)
		}
	}
	th := libResults(t, sc, sigsub.ThresholdQuery(10))
	if len(batch.Results[2].Results) != len(th) {
		t.Fatalf("threshold sizes %d vs %d", len(batch.Results[2].Results), len(th))
	}
	for i := range th {
		got := batch.Results[2].Results[i]
		if got.Start != th[i].Start || got.End != th[i].End || got.X2 != th[i].X2 {
			t.Errorf("threshold %d: %+v vs %+v", i, got, th[i])
		}
	}
	mssMin := libResults(t, sc, sigsub.MSSQuery().WithMinLength(8))[0]
	if got := batch.Results[3].Results[0]; got.Start != mssMin.Start || got.End != mssMin.End || got.X2 != mssMin.X2 {
		t.Errorf("post-restart min-length MSS %+v, library %+v", got, mssMin)
	}
	fmt.Println("mssd append smoke: appended history survives a kill-and-restart and matches the library over the full string")
}
