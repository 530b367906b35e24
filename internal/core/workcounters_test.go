package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/counts"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// workCounterGolden pins the scan's work counters and answers: one line per
// query with its spec, its one-worker Stats (Evaluated, Skipped, Starts),
// and its results as Float64bits. The chain-cover step must evaluate
// exactly the same windows whatever its implementation, so a change to the
// per-window arithmetic (sums, guard bands, roots, step-down) that moves a
// single skip shows up here as a changed line. The file changes only
// through an explicit `go test -run TestWorkCountersGolden -update`.
const workCounterGolden = "testdata/workcounters.golden"

// workCounterModel returns the uniform model or a fixed skewed one, p_c ∝
// c+1 — distinct probabilities, so the non-uniform solver sweeps every
// symbol.
func workCounterModel(t *testing.T, k int, skewed bool) *alphabet.Model {
	t.Helper()
	if !skewed {
		return alphabet.MustUniform(k)
	}
	probs := make([]float64, k)
	tot := float64(k*(k+1)) / 2
	for c := range probs {
		probs[c] = float64(c+1) / tot
	}
	m, err := alphabet.NewModel(probs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// workCounterText draws n symbols uniformly, with a planted stretch where
// symbol 0 is three times as likely, so both null-model skips and the
// shorter skips near an anomaly are exercised.
func workCounterText(rng *rand.Rand, n, k int) []byte {
	s := make([]byte, n)
	for i := range s {
		if i > n/3 && i < n/3+n/8 && rng.Intn(3) > 0 {
			continue // symbol 0
		}
		s[i] = byte(rng.Intn(k))
	}
	return s
}

// formatResults renders a result list compactly: MSS and top-t list every
// interval with its X² bits; threshold results (possibly hundreds) are a
// count plus an FNV-64 of every (start, end, bits).
func formatResults(kind Kind, rs []Scored) string {
	if kind == KindThreshold {
		h := fnv.New64a()
		for _, r := range rs {
			fmt.Fprintf(h, "%d,%d,%x;", r.Start, r.End, math.Float64bits(r.X2))
		}
		return fmt.Sprintf("hits=%d fnv=%016x", len(rs), h.Sum64())
	}
	var b bytes.Buffer
	for i, r := range rs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "[%d,%d)%016x", r.Start, r.End, math.Float64bits(r.X2))
	}
	return b.String()
}

// workCounterLines runs the golden sweep: k ∈ {2, 4, 8, 11, 16} × {uniform,
// skewed} × min length {1, 7, 50} × MSS/top-t/threshold, each query solo
// and as one batch of all three on one range, on a contiguous index and on
// a live epoch view whose final block is a relocated tail.
func workCounterLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	e := Engine{Workers: 1}
	for _, k := range []int{2, 4, 8, 11, 16} {
		rng := rand.New(rand.NewSource(int64(100 + k)))
		const n = 600
		s := workCounterText(rng, n, k)
		ap, err := counts.NewAppender(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < n; lo += 53 {
			if err := ap.Append(s[lo:min(lo+53, n)]); err != nil {
				t.Fatal(err)
			}
		}
		epoch := ap.Snapshot()
		if _, relocated := epoch.RelocatedTailStart(); !relocated {
			t.Fatalf("k=%d: appender epoch has no relocated tail", k)
		}
		if err := ap.Append(s); err != nil { // the appender moves on
			t.Fatal(err)
		}
		for _, skewed := range []bool{false, true} {
			m := workCounterModel(t, k, skewed)
			model := "uniform"
			if skewed {
				model = "skewed"
			}
			plain, err := NewScanner(s, m)
			if err != nil {
				t.Fatal(err)
			}
			live, err := NewScannerFromIndex(s, m, epoch)
			if err != nil {
				t.Fatal(err)
			}
			for _, ix := range []struct {
				name string
				sc   *Scanner
			}{{"b16", plain}, {"epoch", live}} {
				for _, minLen := range []int{1, 7, 50} {
					// Two ranges: the whole string, and a window ending at
					// the corpus end (so rows land in the relocated tail).
					for _, r := range [][2]int{{0, n}, {n / 2, n}} {
						mss := Query{Kind: KindMSS, MinLen: minLen, Lo: r[0], Hi: r[1]}
						// A cutoff at 70% of the range's best keeps the
						// hit list short and the threshold skips long.
						alpha := math.Round(0.7 * ix.sc.RunQuery(e, mss).Best().X2)
						qs := []Query{
							mss,
							{Kind: KindTopT, T: 7, MinLen: minLen, Lo: r[0], Hi: r[1]},
							{Kind: KindThreshold, Alpha: alpha, MinLen: minLen, Lo: r[0], Hi: r[1]},
						}
						spec := fmt.Sprintf("k=%d model=%s index=%s minlen=%d range=[%d,%d) alpha=%g", k, model, ix.name, minLen, r[0], r[1], alpha)
						for _, q := range qs {
							res := ix.sc.RunQuery(e, q)
							if res.Err != nil {
								t.Fatalf("%s %v: %v", spec, q.Kind, res.Err)
							}
							lines = append(lines, fmt.Sprintf("%s solo %v | eval=%d skip=%d starts=%d | %s",
								spec, q.Kind, res.Stats.Evaluated, res.Stats.Skipped, res.Stats.Starts, formatResults(q.Kind, res.Results)))
						}
						for qi, res := range ix.sc.RunBatch(e, qs) {
							if res.Err != nil {
								t.Fatalf("%s batch %v: %v", spec, qs[qi].Kind, res.Err)
							}
							lines = append(lines, fmt.Sprintf("%s batch %v | eval=%d skip=%d starts=%d | %s",
								spec, qs[qi].Kind, res.Stats.Evaluated, res.Stats.Skipped, res.Stats.Starts, formatResults(qs[qi].Kind, res.Results)))
						}
					}
				}
			}
		}
	}
	return lines
}

// TestWorkCountersGolden checks the sweep against the checked-in golden
// file, line by line.
func TestWorkCountersGolden(t *testing.T) {
	lines := workCounterLines(t)
	var got bytes.Buffer
	for _, l := range lines {
		got.WriteString(l)
		got.WriteByte('\n')
	}
	path := filepath.FromSlash(workCounterGolden)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(lines), path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	wantLines := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d lines, sweep produced %d", len(wantLines), len(lines))
	}
	bad := 0
	for i, l := range lines {
		if string(wantLines[i]) != l {
			bad++
			if bad <= 5 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, l, wantLines[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d lines differ", bad, len(lines))
	}
}
