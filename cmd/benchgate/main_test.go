package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// gate runs the comparison of two saved outputs under testdata.
func gate(t *testing.T, base, head string) (bad []string, report string) {
	t.Helper()
	b, _, err := readFile("testdata/" + base)
	if err != nil {
		t.Fatal(err)
	}
	h, order, err := readFile("testdata/" + head)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	bad = compare(&out, b, h, order)
	return bad, out.String()
}

// TestGateFailsPlantedRegression: every sample of one row made 15% slower
// (its MB/s 15% lower) fails the gate, naming that row and no other.
func TestGateFailsPlantedRegression(t *testing.T) {
	bad, report := gate(t, "base.txt", "head_regress.txt")
	want := []string{"repro/internal/chisq.BenchmarkRowScan/uniform/k=2-2"}
	if !slices.Equal(bad, want) {
		t.Fatalf("regressions %v, want %v\n%s", bad, want, report)
	}
}

// TestGatePassesImprovement: a B/s improvement (and the sec/op drop that
// comes with it) passes.
func TestGatePassesImprovement(t *testing.T) {
	if bad, report := gate(t, "base.txt", "head_improve.txt"); len(bad) > 0 {
		t.Fatalf("an improvement failed the gate: %v\n%s", bad, report)
	}
}

// TestGateSkipsOverlapAndMissingRows: a +15% median whose fastest head run
// overlaps the base runs is noise, not a regression, and rows present on
// one side only are skipped rather than compared.
func TestGateSkipsOverlapAndMissingRows(t *testing.T) {
	bad, report := gate(t, "base.txt", "head_noisy.txt")
	if len(bad) > 0 {
		t.Fatalf("overlapping samples failed the gate: %v\n%s", bad, report)
	}
	if !strings.Contains(report, "BenchmarkRowScan/uniform/k=4-2") {
		t.Fatalf("the shared row is missing from the report:\n%s", report)
	}
	if strings.Contains(report, "ReconstructKernel") {
		t.Fatalf("a row missing from head was compared:\n%s", report)
	}
}

// TestExitStatus pins the status CI acts on: 1 for the planted regression,
// 0 for an improvement, 2 for a bad invocation or a missing file.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"testdata/base.txt", "testdata/head_regress.txt"}, 1},
		{[]string{"testdata/base.txt", "testdata/head_improve.txt"}, 0},
		{[]string{"testdata/base.txt", "testdata/head_noisy.txt"}, 0},
		{[]string{"testdata/base.txt"}, 2},
		{[]string{"testdata/base.txt", "testdata/missing.txt"}, 2},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("benchgate %v exited %d, want %d\n%s%s", tc.args, got, tc.want, stdout.String(), stderr.String())
		}
	}
}

// TestParse reads names, packages, units and every sample, and ignores
// non-result lines that start with "Benchmark".
func TestParse(t *testing.T) {
	in := "pkg: a/b\nBenchmarkX-2 \t 10\t 5.5 ns/op\t 3.0 MB/s\t 16 B/op\nBenchmarkX-2 10 6.5 ns/op 2.0 MB/s 16 B/op\nBenchmarkX starting up\n"
	s, order, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a/b\tBenchmarkX-2\tns/op", "a/b\tBenchmarkX-2\tMB/s", "a/b\tBenchmarkX-2\tB/op"}; !slices.Equal(order, want) {
		t.Fatalf("rows %q, want %q", order, want)
	}
	if got := s["a/b\tBenchmarkX-2\tns/op"]; !slices.Equal(got, []float64{5.5, 6.5}) {
		t.Fatalf("ns/op samples %v", got)
	}
}
