package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func runErr(t *testing.T, args ...string) error {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	if err == nil {
		t.Fatalf("run(%v): expected error, got output %q", args, buf.String())
	}
	return err
}

func TestMSSModeFindsPlantedRun(t *testing.T) {
	out := runOK(t, "-text", "0101011111111111110101001", "-mode", "mss", "-stats")
	if !strings.Contains(out, "X²=") {
		t.Errorf("missing result line: %s", out)
	}
	if !strings.Contains(out, "evaluated") {
		t.Errorf("missing stats line: %s", out)
	}
	// The run of 1s should be the MSS content.
	if !strings.Contains(out, "111111111111") {
		t.Errorf("MSS content not the planted run: %s", out)
	}
}

func TestFileInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.txt")
	if err := os.WriteFile(path, []byte("0101\n0111111110\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "-file", path, "-mode", "mss")
	if !strings.Contains(out, "n=14") {
		t.Errorf("whitespace not stripped: %s", out)
	}
}

func TestToptAndDisjointModes(t *testing.T) {
	out := runOK(t, "-text", "00000111110000011111", "-mode", "topt", "-t", "3")
	if strings.Count(out, "X²=") != 3 {
		t.Errorf("want 3 results: %s", out)
	}
	out = runOK(t, "-text", "00000111110000011111", "-mode", "disjoint", "-t", "2", "-minlen", "3")
	if strings.Count(out, "X²=") != 2 {
		t.Errorf("want 2 disjoint results: %s", out)
	}
}

func TestThresholdMode(t *testing.T) {
	out := runOK(t, "-text", "0000000000111111111101010101", "-mode", "threshold", "-alpha", "5")
	if !strings.Contains(out, "substrings with X² > 5") {
		t.Errorf("missing count line: %s", out)
	}
}

func TestMinlenMode(t *testing.T) {
	out := runOK(t, "-text", "000001111100000", "-mode", "minlen", "-gamma", "8")
	if !strings.Contains(out, "len=") {
		t.Errorf("missing result: %s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "len=") {
			// len=N must be > 8
			fields := strings.Fields(line)
			for _, f := range fields {
				if strings.HasPrefix(f, "len=") {
					if f <= "len=8" && len(f) == 5 {
						t.Errorf("result too short: %s", line)
					}
				}
			}
		}
	}
}

func TestAlgorithmSelection(t *testing.T) {
	for _, alg := range []string{"exact", "trivial", "trivial-incremental", "heap-pruned", "arlm", "agmm"} {
		out := runOK(t, "-text", "000001111100000", "-alg", alg)
		if !strings.Contains(out, "X²=") {
			t.Errorf("alg %s: no result: %s", alg, out)
		}
	}
	runErr(t, "-text", "0101", "-alg", "bogus")
}

func TestModelFlags(t *testing.T) {
	// Explicit probabilities (sorted order: '0' then '1').
	out := runOK(t, "-text", "0001110001", "-probs", "0.7,0.3")
	if !strings.Contains(out, "model={0.7, 0.3}") {
		t.Errorf("probs not applied: %s", out)
	}
	// MLE.
	out = runOK(t, "-text", "0001110001", "-mle")
	if !strings.Contains(out, "model={0.6, 0.4}") {
		t.Errorf("mle not applied: %s", out)
	}
	// Mismatched -probs length.
	runErr(t, "-text", "012", "-probs", "0.5,0.5")
	// Invalid probability value.
	runErr(t, "-text", "0101", "-probs", "0.5,x")
}

func TestCalibrateFlag(t *testing.T) {
	out := runOK(t, "-text", "01011111111111111111010100101001", "-calibrate", "19")
	if !strings.Contains(out, "calibrated max p-value") {
		t.Errorf("missing calibration line: %s", out)
	}
	if !strings.Contains(out, "19 simulations") {
		t.Errorf("wrong simulation count: %s", out)
	}
}

func TestInputErrors(t *testing.T) {
	runErr(t) // no input
	runErr(t, "-text", "0000")
	runErr(t, "-file", "/nonexistent/file.txt")
	runErr(t, "-text", "0101", "-mode", "bogus")
	runErr(t, "-text", "0101", "-format", "yaml")
}

// TestSnapshotOutIn: build a snapshot offline, rescan from it, and compare
// the JSON answers against the direct scan — they must match exactly,
// snippets included (the codec rides in the snapshot).
func TestSnapshotOutIn(t *testing.T) {
	const text = "0101011111111111110101001"
	snap := filepath.Join(t.TempDir(), "c.snap")

	direct := runOK(t, "-text", text, "-mle", "-mode", "topt", "-t", "3", "-format", "json")
	if out := runOK(t, "-text", text, "-mle", "-snapshot-out", snap, "-mode", "none"); out != "" {
		t.Errorf("-mode none emitted output: %q", out)
	}
	if st, err := os.Stat(snap); err != nil || st.Size() == 0 {
		t.Fatalf("snapshot not written: %v", err)
	}
	fromSnap := runOK(t, "-snapshot-in", snap, "-mode", "topt", "-t", "3", "-format", "json")
	if direct != fromSnap {
		t.Fatalf("snapshot scan diverged:\n direct %s\n snap   %s", direct, fromSnap)
	}

	// Flag conflicts and bad inputs are errors, not silent fallbacks.
	runErr(t, "-snapshot-in", snap, "-text", "01")
	runErr(t, "-snapshot-in", snap, "-mle")
	runErr(t, "-text", "01", "-mode", "none")
	runErr(t, "-snapshot-in", filepath.Join(t.TempDir(), "absent.snap"))

	// A truncated snapshot is rejected with an error.
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc.snap")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	runErr(t, "-snapshot-in", trunc)
}

func TestJSONFormat(t *testing.T) {
	text := "01011010111111111110010101"
	out := runOK(t, "-text", text, "-mode", "mss", "-stats", "-format", "json")
	var doc struct {
		Input struct {
			N     int    `json:"n"`
			K     int    `json:"k"`
			Model string `json:"model"`
		} `json:"input"`
		Mode    string `json:"mode"`
		Results []struct {
			Start  int     `json:"start"`
			End    int     `json:"end"`
			Length int     `json:"length"`
			X2     float64 `json:"x2"`
			PValue float64 `json:"p_value"`
			Text   string  `json:"text"`
		} `json:"results"`
		Stats *struct {
			Evaluated int64 `json:"evaluated"`
			Skipped   int64 `json:"skipped"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if doc.Input.N != len(text) || doc.Input.K != 2 || doc.Mode != "mss" {
		t.Errorf("header: %+v", doc.Input)
	}
	if len(doc.Results) != 1 {
		t.Fatalf("results: %+v", doc.Results)
	}
	r := doc.Results[0]
	if r.Start != 8 || r.End != 19 || r.X2 != 11 || r.Text != "11111111111" {
		t.Errorf("MSS result: %+v", r)
	}
	if doc.Stats == nil || doc.Stats.Evaluated+doc.Stats.Skipped != int64(len(text)*(len(text)+1)/2) {
		t.Errorf("stats: %+v", doc.Stats)
	}

	// Threshold mode emits all qualifying windows (no 20-line truncation).
	out = runOK(t, "-text", text, "-mode", "threshold", "-alpha", "8", "-format", "json")
	var th struct {
		Results []struct {
			X2 float64 `json:"x2"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(out), &th); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(th.Results) != 13 {
		t.Errorf("threshold results: %d, want 13", len(th.Results))
	}
	for _, r := range th.Results {
		if r.X2 <= 8 {
			t.Errorf("result below threshold: %+v", r)
		}
	}

	// Calibration summary rides along in JSON.
	out = runOK(t, "-text", text, "-calibrate", "7", "-format", "json")
	var cal struct {
		Calibration *struct {
			Samples int `json:"samples"`
		} `json:"calibration"`
	}
	if err := json.Unmarshal([]byte(out), &cal); err != nil {
		t.Fatal(err)
	}
	if cal.Calibration == nil || cal.Calibration.Samples != 7 {
		t.Errorf("calibration: %+v", cal.Calibration)
	}
}
