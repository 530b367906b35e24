// Command benchgate compares two `go test -bench` outputs and fails on a
// time regression. It reads the standard benchmark text format with the Go
// standard library only, so the gate runs offline.
//
//	go test -run NONE -bench . -count 6 ./pkg > base.txt   # on the base commit
//	go test -run NONE -bench . -count 6 ./pkg > head.txt   # on the change
//	benchgate base.txt head.txt
//
// Rows are keyed by package and benchmark name; each -count run adds one
// sample. A sec/op row (ns/op in the text) regresses when every head sample
// is slower than every base sample and the median slowdown is over 10%.
// With 6 samples a side, complete separation by chance has probability
// 1/462 when nothing changed. Rows missing from either side are skipped, and
// other units (B/s, B/op, allocs/op, custom metrics) are printed but never
// gate. The exit status is 1 when any row regresses, 2 on a usage or read
// error.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// maxSlowdown is the median slowdown a completely separated sec/op row may
// show before the gate fails.
const maxSlowdown = 0.10

// samples maps "pkg\tname\tunit" to the values of every run of that row.
type samples map[string][]float64

// parse reads `go test -bench` output: "pkg:" lines set the package, and
// each "Benchmark…" result line is a name, an iteration count, and then
// value–unit pairs.
func parse(r io.Reader) (samples, []string, error) {
	out := make(samples)
	var order []string
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			continue // a benchmark's own log line, not a result
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			key := pkg + "\t" + f[0] + "\t" + f[i+1]
			if _, seen := out[key]; !seen {
				order = append(order, key)
			}
			out[key] = append(out[key], v)
		}
	}
	return out, order, sc.Err()
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// compare writes one line per row present on both sides and returns the
// regressed sec/op rows.
func compare(w io.Writer, base, head samples, order []string) []string {
	var bad []string
	for _, key := range order {
		b, h := base[key], head[key]
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		f := strings.Split(key, "\t")
		name, unit := f[1], f[2]
		if f[0] != "" {
			name = f[0] + "." + f[1]
		}
		mb, mh := median(b), median(h)
		delta := 0.0
		if mb != 0 {
			delta = mh/mb - 1
		}
		verdict := ""
		if unit == "ns/op" {
			separated := slices.Min(h) > slices.Max(b)
			if separated && delta > maxSlowdown {
				verdict = "  REGRESSION"
				bad = append(bad, name)
			}
		}
		fmt.Fprintf(w, "%-70s %-10s %14.4g %14.4g %+7.1f%%%s\n", name, unit, mb, mh, 100*delta, verdict)
	}
	return bad
}

func readFile(path string) (samples, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return parse(f)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main, returning its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchgate base.txt head.txt")
		return 2
	}
	base, _, err := readFile(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	head, order, err := readFile(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-70s %-10s %14s %14s %8s\n", "benchmark", "unit", "base median", "head median", "delta")
	if bad := compare(stdout, base, head, order); len(bad) > 0 {
		fmt.Fprintf(stdout, "%d sec/op regression(s) over %.0f%%: %s\n", len(bad), 100*maxSlowdown, strings.Join(bad, ", "))
		return 1
	}
	return 0
}
