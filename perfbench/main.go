// Command perfbench is the repository benchmark. It runs one seeded
// workload against the real mssd binary over loopback (serve, ingest),
// checks the answers outside the timed window, and prints one JSON result
// as the last line of standard output: the end-to-end metrics for an
// untraced run (-trace 0) or the per-layer metrics for a traced run
// (-trace 1). METHOD.md documents the workloads and every metric.
//
// Run it through run.sh from the repository root, which builds mssd, mss
// and this command into .bench_build first:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	sigsub "repro"
)

// maxProcs caps the generator's parallelism: the host has 2 vCPUs, and the
// system under test needs them more than the load generator does.
const maxProcs = 2

// setupRounds is how many times a run performs its set-up; setup_s is the
// median, so a few slow process starts or page-fault storms do not decide
// the metric.
const setupRounds = 15

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload execution fills in.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding mssd and mss
	dir      string // per-run scratch directory (removed at exit)
	out      string // where spans and reports are written

	tr *tracer // nil in untraced runs

	mu                sync.Mutex // guards failed and mismatches: replays run on the load goroutines
	attempted, failed int64
	mismatches        []string

	e2e    map[string]metric
	layer  map[string]metric
	report map[string]any // seed, fingerprint, sample counts, counters with bases

	dmu     sync.Mutex // guards daemons: an interrupt stops them from another goroutine
	daemons []*daemon

	// Go runtime deltas summed around the in-process ops of a traced run;
	// goMu serializes those ops so concurrent clients' deltas do not mix.
	goMu          sync.Mutex
	goAlloc, goGC uint64
	goOps         int

	// Work counters and time of the core calls a traced run repeated.
	coreMu                          sync.Mutex
	coreQueries, coreEval, coreSkip int64
	coreStarts                      int64
	coreTime                        time.Duration
}

// e2eMetrics is the end-to-end list, in BENCHMARK.json order; every
// workload reports each of them from its untraced runs. op_p50_ms is the
// latency of the workload's primary op as its user sees it: the append
// ack (from its due time) on ingest, the query everywhere else — where it
// equals query_p50_ms.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"query_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

func (r *run) setE2E(name string, v float64)   { r.e2e[name] = metric{v, unitOf(e2eMetrics, name)} }
func (r *run) setLayer(name string, v float64) { r.layer[name] = metric{v, unitOf(layerMetrics, name)} }

// unitOf looks a metric's unit up; an unknown name is a bug in the
// benchmark, not a measurement.
func unitOf(list []metricDef, name string) string {
	for _, m := range list {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// note records a detail of the run (a base, a sample count, a counter) in
// the report printed before the result line.
func (r *run) note(key string, v any) { r.report[key] = v }

// mismatch records a failed verification; each counts as a failed op.
func (r *run) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// verified counts one verified op toward attempted.
func (r *run) verified() { r.attempted++ }

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"serve":  runServe,
	"ingest": runIngest,
}

func main() {
	var (
		workload = flag.String("workload", "", "serve | ingest")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same corpora and op schedule")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		traceArg = flag.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the mssd and mss binaries")
		work     = flag.String("work", ".bench_build", "directory for daemon data, spans and reports")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload serve|ingest, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traceArg == 1,
		bin: *bin, out: *work,
		e2e: map[string]metric{}, layer: map[string]metric{}, report: map[string]any{},
	}
	if r.trace {
		r.tr = newTracer()
	}
	os.Exit(r.execute(fn))
}

// execute runs the workload and prints the result; it returns the exit
// code. Every daemon the workload started is stopped before it returns, on
// every path, including an interrupt.
func (r *run) execute(fn func(*run) error) int {
	dir, err := os.MkdirTemp(mkdirAll(filepath.Join(r.out, "run")), r.workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	r.dir = dir
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		r.stopDaemons()
		os.RemoveAll(r.dir)
		os.Exit(1)
	}()
	steal := hostSteal()
	err = fn(r)
	r.note("host_steal_s", (hostSteal() - steal).Seconds())
	r.stopDaemons()
	os.RemoveAll(r.dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", r.workload, err)
		return 1
	}
	return r.print()
}

// print writes the report line and the result line; it returns the exit
// code (non-zero only if the report cannot be encoded).
func (r *run) print() int {
	r.note("workload", r.workload)
	r.note("seed", r.seed)
	r.note("seconds", r.seconds)
	r.note("trace", r.trace)
	r.note("env", environment())
	if len(r.mismatches) > 0 {
		r.note("mismatches", r.mismatches)
	}
	metrics := r.e2e
	if r.trace {
		r.fillLayers()
		metrics = r.layer
		if err := r.tr.write(filepath.Join(mkdirAll(filepath.Join(r.out, "spans")),
			fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	for _, m := range e2eMetrics {
		if _, ok := r.e2e[m.name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", r.workload, m.name)
			return 1
		}
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) { // a metric without samples is never printed
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value\n", name)
			return 1
		}
	}
	rep, err := json.Marshal(map[string]any{"report": r.report})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	name := fmt.Sprintf("%s-seed%d-trace0.json", r.workload, r.seed)
	if r.trace {
		name = fmt.Sprintf("%s-seed%d-trace1.json", r.workload, r.seed)
	}
	if err := os.WriteFile(filepath.Join(mkdirAll(filepath.Join(r.out, "reports")), name), rep, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing report: %v\n", err)
	}
	fmt.Println(string(rep))
	res := result{
		Correct:   r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	host, _ := os.Hostname()
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"go":          runtime.Version(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"kernel_tier": sigsub.ActiveKernel().String(),
		"cpu":         sigsub.CPUFeatures(),
		"os_kernel":   strings.TrimSpace(string(kernel)),
		"host":        host,
	}
}

func mkdirAll(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}

// fingerprint hashes the generated inputs so a report names exactly what
// was measured.
func fingerprint(parts ...[]byte) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// --- sample statistics ---

// samples collects one latency population (milliseconds), each sample
// stamped with when it completed and, for scheduled ops, the op's position
// in the schedule (-1 otherwise).
type samples struct {
	xs  []float64
	at  []time.Time
	seq []int
}

func (s *samples) add(d time.Duration)                 { s.addOp(-1, time.Now(), d) }
func (s *samples) addAt(at time.Time, d time.Duration) { s.addOp(-1, at, d) }
func (s *samples) addOp(seq int, at time.Time, d time.Duration) {
	s.xs = append(s.xs, float64(d)/1e6)
	s.at = append(s.at, at)
	s.seq = append(s.seq, seq)
}

// addMS adds a value that has no completion time of its own (a ratio, a
// time the daemon reported); sliced statistics do not apply to it.
func (s *samples) addMS(v float64) { s.addOp(-1, time.Time{}, time.Duration(v*1e6)) }
func (s *samples) n() int          { return len(s.xs) }

// q returns the q-quantile (linear interpolation between order statistics);
// NaN for an empty population.
func (s *samples) q(q float64) float64 { return quantile(s.xs, q) }

// blocks groups the samples of scheduled ops into complete blocks of size
// consecutive schedule positions (block b holds positions [b·size,
// (b+1)·size)); a block missing any position is dropped. A schedule whose
// mix repeats every size positions gives every block the same mix.
func (s *samples) blocks(size int) [][]int {
	by := map[int][]int{}
	for i, q := range s.seq {
		if q >= 0 {
			by[q/size] = append(by[q/size], i)
		}
	}
	var keys []int
	for b, idx := range by {
		if len(idx) == size {
			keys = append(keys, b)
		}
	}
	sort.Ints(keys)
	out := make([][]int, len(keys))
	for i, b := range keys {
		out[i] = by[b]
	}
	return out
}

// blockedQ is the median over complete blocks of each block's q-quantile.
func (s *samples) blockedQ(size int, q float64) float64 { return median(s.perBlock(size, q)) }

// perBlock returns each complete block's q-quantile, in schedule order.
func (s *samples) perBlock(size int, q float64) []float64 {
	var out []float64
	for _, idx := range s.blocks(size) {
		xs := make([]float64, len(idx))
		for i, k := range idx {
			xs[i] = s.xs[k]
		}
		out = append(out, quantile(xs, q))
	}
	return out
}

// blockedRate is size over the median block span: the time from the first
// op of a block starting to its last op completing.
func (s *samples) blockedRate(size int) float64 {
	var spans []float64
	for _, idx := range s.blocks(size) {
		first, last := s.at[idx[0]], s.at[idx[0]]
		for _, k := range idx {
			start := s.at[k].Add(-time.Duration(s.xs[k] * 1e6))
			if start.Before(first) {
				first = start
			}
			if s.at[k].After(last) {
				last = s.at[k]
			}
		}
		spans = append(spans, last.Sub(first).Seconds())
	}
	return float64(size) / median(spans)
}

// slices is how many equal parts a measured window of uniform ops (the
// ingest workload's appends and tail reads) is cut into. A run reports the
// median over the parts of each part's statistic, so a burst of CPU steal
// on the shared host that covers less than half the window does not move
// the run's figure. Workloads with a mixed schedule use blocks instead.
const slices = 10

// slicedQ is the median over the window's slices of each slice's
// q-quantile; the window is [t0, t0+d).
func (s *samples) slicedQ(t0 time.Time, d time.Duration, q float64) float64 {
	return median(s.perSlice(t0, d, q))
}

// perSlice returns each non-empty slice's q-quantile, in time order.
func (s *samples) perSlice(t0 time.Time, d time.Duration, q float64) []float64 {
	parts := make([][]float64, slices)
	for i, at := range s.at {
		k := min(max(int(float64(at.Sub(t0))/float64(d)*slices), 0), slices-1)
		parts[k] = append(parts[k], s.xs[i])
	}
	var per []float64
	for _, p := range parts {
		if len(p) > 0 {
			per = append(per, quantile(p, q))
		}
	}
	return per
}

// slicedRate is the median over the window's slices of completions per
// second.
func (s *samples) slicedRate(t0 time.Time, d time.Duration) float64 {
	counts := make([]float64, slices)
	for _, at := range s.at {
		k := int(float64(at.Sub(t0)) / float64(d) * slices)
		counts[min(max(k, 0), slices-1)]++
	}
	for i := range counts {
		counts[i] /= d.Seconds() / slices
	}
	return median(counts)
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	pos := q * float64(len(ys)-1)
	lo := int(pos)
	if lo >= len(ys)-1 {
		return ys[len(ys)-1]
	}
	frac := pos - float64(lo)
	return ys[lo] + frac*(ys[lo+1]-ys[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is the report form of a population: its count and quantiles.
func (s *samples) summary() map[string]any {
	if s.n() == 0 {
		return map[string]any{"n": 0}
	}
	return map[string]any{"n": s.n(), "p10": s.q(0.1), "p25": s.q(0.25), "p50": s.q(0.5), "p75": s.q(0.75),
		"p90": s.q(0.9), "p99": s.q(0.99), "max": s.q(1)}
}

// p99OrZero returns the p99 over the given populations together when at
// least ten samples lie beyond it (1000 samples), else 0; the report
// carries the sample counts either way.
func p99OrZero(parts ...*samples) float64 {
	var xs []float64
	for _, p := range parts {
		xs = append(xs, p.xs...)
	}
	if len(xs) < 1000 {
		return 0
	}
	return quantile(xs, 0.99)
}
