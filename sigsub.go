// Package sigsub mines statistically significant substrings using the
// Pearson chi-square statistic, implementing Sachan & Bhattacharya,
// "Mining Statistically Significant Substrings using the Chi-Square
// Statistic", PVLDB 5(10), 2012.
//
// Given a string over a finite alphabet whose characters are assumed drawn
// i.i.d. from a fixed multinomial distribution (the null model), the package
// finds the substrings whose empirical character distribution deviates most
// from that model:
//
//   - the Most Significant Substring (MSS — Problem 1),
//   - the top-t substrings by chi-square value (Problem 2),
//   - all substrings above a chi-square threshold (Problem 3),
//   - the MSS among substrings longer than a minimum length (Problem 4).
//
// Every problem variant is a Query — MSSQuery, TopTQuery, ThresholdQuery or
// DisjointQuery, narrowed by WithMinLength, WithRange and WithResultLimit —
// that Scanner.Run executes on the paper's chain-cover skip scan, which runs
// in O(k·n^{3/2}) time with high probability while remaining exact.
// Scanner.RunBatch answers many Queries on the same engine, the queries on
// one range and length floor sharing one pass. The trivial O(k·n²) scans, the heap-pruned
// scan and the ARLM/AGMM heuristics of prior work are available for
// comparison on Problem 1 via Scanner.MSS and WithAlgorithm.
//
// Quick start:
//
//	model, _ := sigsub.UniformModel(2)
//	s := []byte{0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1}
//	res, _ := sigsub.FindMSS(s, model)
//	fmt.Printf("most deviant window [%d, %d) X²=%.2f p=%.4f\n",
//		res.Start, res.End, res.X2, res.PValue)
package sigsub

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/counts"
	"repro/internal/cpufeat"
	"repro/internal/dist"
)

// errNilModel is the shared nil-model validation error.
var errNilModel = errors.New("sigsub: nil model")

// Model is a multinomial null model over an alphabet of k symbols: symbol i
// occurs with probability Probs()[i] under the null hypothesis.
type Model struct {
	m *alphabet.Model
}

// NewModel builds a model from symbol probabilities. The probabilities must
// be strictly inside (0, 1) and sum to 1; at least two symbols are required.
func NewModel(probs []float64) (*Model, error) {
	m, err := alphabet.NewModel(probs)
	if err != nil {
		return nil, err
	}
	return &Model{m: m}, nil
}

// UniformModel returns the uniform null model over k symbols.
func UniformModel(k int) (*Model, error) {
	m, err := alphabet.Uniform(k)
	if err != nil {
		return nil, err
	}
	return &Model{m: m}, nil
}

// ModelFromSample estimates the model from observed data by maximum
// likelihood (with Laplace smoothing if some symbol never occurs). This is
// how the paper derives models for real datasets, e.g. the probability of an
// up-day as the fraction of up-days.
func ModelFromSample(s []byte, k int) (*Model, error) {
	m, err := alphabet.MLE(s, k)
	if err != nil {
		return nil, err
	}
	return &Model{m: m}, nil
}

// K returns the alphabet size.
func (m *Model) K() int { return m.m.K() }

// Probs returns a copy of the probability vector.
func (m *Model) Probs() []float64 { return m.m.CopyProbs() }

// String renders the model's probabilities.
func (m *Model) String() string { return m.m.String() }

// Result is a scored substring: the half-open window [Start, End) of the
// scanned string, its chi-square value, and the p-value of that value under
// the asymptotic χ²(k−1) law (paper Theorem 3). Smaller p-values are more
// significant.
type Result struct {
	Start  int
	End    int
	Length int
	X2     float64
	PValue float64
}

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("[%d, %d) len=%d X²=%.4f p=%.3g", r.Start, r.End, r.Length, r.X2, r.PValue)
}

// Stats reports how much work a scan performed. Evaluated counts substrings
// whose X² was computed (the paper's "iterations"); Skipped counts
// substrings excluded wholesale by the chain-cover bound; Starts counts the
// start positions visited. The counters are exact under parallel execution
// (per-worker counters merged at the end of the scan), so Evaluated+Skipped
// always accounts for every candidate substring.
type Stats struct {
	Evaluated int64
	Skipped   int64
	Starts    int64
}

// Algorithm selects the scanning strategy.
type Algorithm int

const (
	// AlgoExact is the paper's chain-cover skip algorithm: exact,
	// O(k·n^{3/2}) with high probability. The default.
	AlgoExact Algorithm = iota
	// AlgoTrivial is the exhaustive O(k·n²) scan.
	AlgoTrivial
	// AlgoTrivialIncremental is the exhaustive scan with O(1) incremental
	// X² updates (the constant-factor baseline attributed to prior work).
	AlgoTrivialIncremental
	// AlgoHeapPruned is the exact best-first baseline: starts are processed
	// in decreasing upper-bound order and pruned against the best answer.
	AlgoHeapPruned
	// AlgoARLM is the all-local-extrema heuristic of Dutta & Bhattacharya
	// (PAKDD 2010): near-exact in practice, no guarantee, O(n²) worst case.
	AlgoARLM
	// AlgoAGMM is the global-extrema heuristic of the same work: O(n·k)
	// time, no approximation guarantee.
	AlgoAGMM
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoExact:
		return "exact"
	case AlgoTrivial:
		return "trivial"
	case AlgoTrivialIncremental:
		return "trivial-incremental"
	case AlgoHeapPruned:
		return "heap-pruned"
	case AlgoARLM:
		return "arlm"
	case AlgoAGMM:
		return "agmm"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// ParseAlgorithm resolves an algorithm name as printed by String.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range []Algorithm{AlgoExact, AlgoTrivial, AlgoTrivialIncremental, AlgoHeapPruned, AlgoARLM, AlgoAGMM} {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("sigsub: unknown algorithm %q", name)
}

// options collects the functional options of a scan.
type options struct {
	algo    Algorithm
	stats   *Stats
	workers int
}

// engine translates the options into a core engine configuration.
func (o options) engine() core.Engine {
	return core.Engine{Workers: o.workers}
}

// Option configures a scan.
type Option func(*options)

// WithAlgorithm selects the scanning strategy of Scanner.MSS (default
// AlgoExact). Run, RunBatch and the shard paths always use the exact
// engine.
func WithAlgorithm(a Algorithm) Option {
	return func(o *options) { o.algo = a }
}

// WithStats records work counters into st.
func WithStats(st *Stats) Option {
	return func(o *options) { o.stats = st }
}

// WithWorkers shards the exact scans across n parallel workers (default 1:
// sequential; 0 or negative: one per available CPU). Start positions are
// partitioned into chunks claimed dynamically; workers share one atomic
// best-X² skip budget, so a tight bound found by any worker enlarges every
// other worker's chain-cover skips. MSS-style scans return the identical
// interval and X² as the sequential scan; top-t scans return the identical
// X² value multiset, though intervals exactly tied at the t-th-best value
// may resolve differently (as the problem statement permits); threshold
// scans return the identical result set in the identical order. The
// Evaluated+Skipped total is always exact, and the heuristic algorithms
// (which are already cheap) ignore the option.
func WithWorkers(n int) Option {
	return func(o *options) {
		if n <= 0 {
			n = 0 // resolves to GOMAXPROCS inside the engine
		}
		o.workers = n
	}
}

func buildOptions(opts []Option) options {
	o := options{algo: AlgoExact, workers: 1}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// KernelTier names a reconstruct-kernel implementation of the scan hot
// path: the data-parallel rebuild of a window's count vector from the
// checkpointed index's nibble groups. The tier is chosen by build tag and
// CPUID alone; every tier computes exact integer arithmetic, so results are
// bit-identical — tiers differ only in speed.
type KernelTier int

const (
	// KernelScalar is the unrolled scalar reference implementation —
	// available everywhere (and the only tier of -tags noasm builds), and
	// the automatic fallback for alphabets whose nibble group cannot be
	// fetched as a single machine word.
	KernelScalar KernelTier = KernelTier(counts.TierScalar)
	// KernelAVX2 is the assembly tier for amd64 CPUs with AVX2 (and binaries
	// built without the noasm tag): whole-group nibble unpacking and fused
	// statistics in a handful of vector instructions.
	KernelAVX2 KernelTier = KernelTier(counts.TierAVX2)
)

// String names the tier.
func (t KernelTier) String() string { return counts.Tier(t).String() }

// ActiveKernel reports the kernel tier scans run on: the fastest tier this
// build and CPU support.
func ActiveKernel() KernelTier { return KernelTier(counts.ActiveTier()) }

// CPUFeatures renders the detected CPU features the kernel dispatcher
// considered, e.g. "sse4.2,avx,avx2" — surfaced by mss -version and the
// daemon's healthz endpoint.
func CPUFeatures() string { return cpufeat.Summary() }

// Scanner binds a symbol string to a model for repeated queries. Building a
// Scanner costs O(n·k) time to build the checkpointed count index; every
// scan then reuses it. After construction a Scanner is read-only, so any
// number of scans — including batches — may run on it concurrently; the
// mssd daemon serves simultaneous requests from one cached Scanner this
// way.
type Scanner struct {
	sc *core.Scanner
	k  int
	// pin keeps the backing storage of a snapshot-served scanner reachable:
	// the symbol string and count index may alias an mmap'd file, which must
	// not be unmapped while this Scanner can still probe it.
	pin any
}

// NewScanner validates the string against the model (every symbol must be
// < model.K()) and builds the count index.
func NewScanner(s []byte, m *Model) (*Scanner, error) {
	if m == nil {
		return nil, errNilModel
	}
	sc, err := core.NewScanner(s, m.m)
	if err != nil {
		return nil, err
	}
	return &Scanner{sc: sc, k: m.K()}, nil
}

// Kernel reports the reconstruct-kernel tier this scanner's scans run on:
// the tier its count index resolved when it was built (scalar for alphabets
// the group-fetch kernels cannot serve).
func (s *Scanner) Kernel() KernelTier { return KernelTier(s.sc.Kernel()) }

// IndexBytes returns the resident size of the scanner's count index in
// bytes — what the daemon's byte-budgeted corpus cache charges a corpus
// for, alongside its text.
func (s *Scanner) IndexBytes() int { return s.sc.IndexBytes() }

// Len returns the length of the scanned string.
func (s *Scanner) Len() int { return s.sc.Len() }

// Symbols returns the scanned symbol string (shared storage — possibly an
// mmap'd snapshot section; do not modify).
func (s *Scanner) Symbols() []byte { return s.sc.Symbols() }

// X2 returns the chi-square value of the window [i, j). Indices must satisfy
// 0 ≤ i < j ≤ Len().
func (s *Scanner) X2(i, j int) (float64, error) {
	if i < 0 || j > s.sc.Len() || i >= j {
		return 0, fmt.Errorf("sigsub: invalid window [%d, %d) of string of length %d", i, j, s.sc.Len())
	}
	return s.sc.X2(i, j), nil
}

// result converts a core interval to a public Result with its p-value.
func (s *Scanner) result(r core.Scored) Result {
	return Result{
		Start:  r.Start,
		End:    r.End,
		Length: r.Len(),
		X2:     r.X2,
		PValue: PValue(r.X2, s.k),
	}
}

func (s *Scanner) results(rs []core.Scored) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = s.result(r)
	}
	return out
}

func record(o options, st core.Stats) {
	if o.stats != nil {
		o.stats.Evaluated = st.Evaluated
		o.stats.Skipped = st.Skipped
		o.stats.Starts = st.Starts
	}
}

// toStats converts core work counters to the public Stats value.
func toStats(st core.Stats) Stats {
	return Stats{Evaluated: st.Evaluated, Skipped: st.Skipped, Starts: st.Starts}
}

// QueryKind selects the problem variant of a Query.
type QueryKind int

const (
	// QueryMSS asks for the single most significant substring (Problem 1;
	// combined with MinLength it is Problem 4, with a range the segment
	// scan).
	QueryMSS QueryKind = iota
	// QueryTopT asks for the T largest-X² substrings (Problem 2).
	QueryTopT
	// QueryThreshold asks for every substring with X² > Alpha (Problem 3).
	QueryThreshold
	// QueryDisjoint asks for up to T pairwise non-overlapping substrings in
	// decreasing X² order, greedily: the MSS first, then the best in the
	// remaining segments. It is how "top periods" tables are produced from
	// temporal data.
	QueryDisjoint
)

// String names the kind as accepted by ParseQueryKind.
func (k QueryKind) String() string {
	switch k {
	case QueryMSS:
		return "mss"
	case QueryTopT:
		return "topt"
	case QueryThreshold:
		return "threshold"
	case QueryDisjoint:
		return "disjoint"
	default:
		return fmt.Sprintf("querykind(%d)", int(k))
	}
}

// ParseQueryKind resolves a kind name as printed by String.
func ParseQueryKind(name string) (QueryKind, error) {
	for _, k := range []QueryKind{QueryMSS, QueryTopT, QueryThreshold, QueryDisjoint} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sigsub: unknown query kind %q", name)
}

// Query is the plan every problem variant is asked as: one kind plus the
// knobs that compose with it, so every combination (top-t within a range,
// threshold above a length floor, …) is one value. Run executes one Query,
// RunBatch many.
type Query struct {
	// Kind selects the problem variant.
	Kind QueryKind
	// T is the result capacity for QueryTopT and QueryDisjoint.
	T int
	// Alpha is the X² cutoff (strictly above) for QueryThreshold.
	Alpha float64
	// MinLength restricts candidates to substrings of length ≥ MinLength
	// (0 and 1 are equivalent: no floor). Problem 4's "strictly longer
	// than γ" is MinLength: γ+1.
	MinLength int
	// Lo, Hi restrict candidates to the segment [Lo, Hi) of the scanned
	// string. The zero value Hi == 0 means Len() — the whole string — so
	// the zero Query scans everything; out-of-range bounds are clamped and
	// a range smaller than MinLength yields zero results, not an error.
	Lo, Hi int
	// Limit caps the collected results of a QueryThreshold (0 means
	// 1,000,000; negative means unlimited), since low thresholds can produce
	// O(n²) results. Exceeding it returns the first Limit results plus an
	// error in QueryResult.Err.
	Limit int
}

// MSSQuery plans Problem 1: the most significant substring.
func MSSQuery() Query { return Query{Kind: QueryMSS} }

// TopTQuery plans Problem 2: the t most significant substrings.
func TopTQuery(t int) Query { return Query{Kind: QueryTopT, T: t} }

// ThresholdQuery plans Problem 3: every substring with X² > alpha.
func ThresholdQuery(alpha float64) Query { return Query{Kind: QueryThreshold, Alpha: alpha} }

// DisjointQuery plans the greedy disjoint top-t peel.
func DisjointQuery(t int) Query { return Query{Kind: QueryDisjoint, T: t} }

// WithMinLength returns the query restricted to substrings of length ≥ n.
func (q Query) WithMinLength(n int) Query { q.MinLength = n; return q }

// WithRange returns the query restricted to the segment [lo, hi).
func (q Query) WithRange(lo, hi int) Query { q.Lo, q.Hi = lo, hi; return q }

// WithResultLimit returns the query with its threshold result cap set.
func (q Query) WithResultLimit(n int) Query { q.Limit = n; return q }

// QueryResult answers one Query: the scored substrings (one for QueryMSS,
// descending X² for QueryTopT/QueryDisjoint, scan order for
// QueryThreshold), the exact work counters of the scan that served it, and
// the per-query error — in a batch, a failed query occupies its slot
// without poisoning its neighbours.
type QueryResult struct {
	Results []Result
	Stats   Stats
	Err     error
}

// defaultThresholdLimit is the result cap of a QueryThreshold whose Limit
// is 0.
const defaultThresholdLimit = 1_000_000

// lowerQuery translates a public Query to its core plan over an n-symbol
// corpus, resolving the Hi == 0 sentinel and the default threshold limit.
// It needs only n, so a shard coordinator can lower queries without holding
// any symbols locally.
func lowerQuery(q Query, n int) (core.Query, error) {
	kind, err := q.Kind.core()
	if err != nil {
		return core.Query{}, err
	}
	hi := q.Hi
	if hi == 0 {
		hi = n
	}
	limit := q.Limit
	if q.Kind == QueryThreshold && limit == 0 {
		limit = defaultThresholdLimit
	}
	return core.Query{
		Kind:   kind,
		T:      q.T,
		Alpha:  q.Alpha,
		MinLen: q.MinLength,
		Lo:     q.Lo,
		Hi:     hi,
		Limit:  limit,
	}, nil
}

// lowerBatch lowers every query of a batch. A query that fails to lower
// gets a sentinel kind core rejects, and its public error in errs[i], which
// wins over core's error for that slot.
func lowerBatch(qs []Query, n int) (cqs []core.Query, errs []error) {
	cqs = make([]core.Query, len(qs))
	errs = make([]error, len(qs))
	for i, q := range qs {
		cq, err := lowerQuery(q, n)
		if err != nil {
			errs[i] = err
			cq = core.Query{Kind: core.Kind(-1)}
		}
		cqs[i] = cq
	}
	return cqs, errs
}

// core maps the public kind to its core counterpart.
func (k QueryKind) core() (core.Kind, error) {
	switch k {
	case QueryMSS:
		return core.KindMSS, nil
	case QueryTopT:
		return core.KindTopT, nil
	case QueryThreshold:
		return core.KindThreshold, nil
	case QueryDisjoint:
		return core.KindDisjoint, nil
	default:
		return 0, fmt.Errorf("sigsub: unknown query kind %v", k)
	}
}

// queryResult converts a core result to the public shape.
func (s *Scanner) queryResult(r core.QueryResult) QueryResult {
	return QueryResult{Results: s.results(r.Results), Stats: toStats(r.Stats), Err: r.Err}
}

// Run executes one Query on the exact engine. Validation problems (unknown
// kind, t < 1) are returned as the error; scan-level problems that still
// produce partial output (a threshold limit overflow) are reported in
// QueryResult.Err alongside the partial Results. WithWorkers and WithStats
// configure the scan.
func (s *Scanner) Run(q Query, opts ...Option) (QueryResult, error) {
	return s.RunContext(context.Background(), q, opts...)
}

// RunBatch executes a batch of Queries in as few chain-cover passes as
// possible, all over the Scanner's one set of prefix counts: the MSS, top-t
// and threshold queries over the same range and length floor share one
// pass, pruned at the lowest of their skip budgets (the running best X²,
// the t-th best seen so far, the cutoff α), and the passes run one after
// another. Each query keeps its own answer, limit and error; its Stats are
// those of the pass it rode, so Evaluated + Skipped accounts for its full
// candidate set, and a query alone in its pass reports exactly what Run
// would. Disjoint queries follow as individual passes. The returned slice
// is parallel to qs; per-query failures are reported in the slot's Err.
// WithStats records the sum of the slots' counters, which counts a shared
// pass once per query riding it; WithWorkers parallelizes each pass.
//
// Result equivalence with Run: MSS-kind and threshold-kind queries return
// bit-identical results; top-t queries return the identical X² value
// multiset (intervals exactly tied at the t-th-best value may resolve
// differently, as the problem statement permits).
func (s *Scanner) RunBatch(qs []Query, opts ...Option) ([]QueryResult, error) {
	return s.RunBatchContext(context.Background(), qs, opts...)
}

// MSS solves Problem 1: the substring with the maximum chi-square value,
// under the algorithm WithAlgorithm selects. It is the entry point of the
// baseline and heuristic algorithms; with the default AlgoExact it answers
// Run(MSSQuery()). An empty string yields an error.
func (s *Scanner) MSS(opts ...Option) (Result, error) {
	if s.sc.Len() == 0 {
		return Result{}, errors.New("sigsub: cannot scan an empty string")
	}
	o := buildOptions(opts)
	var best core.Scored
	var st core.Stats
	switch o.algo {
	case AlgoExact:
		qr, err := s.Run(MSSQuery(), opts...)
		if err != nil {
			return Result{}, err
		}
		return qr.Results[0], nil
	case AlgoTrivial:
		best, st = s.sc.Trivial()
	case AlgoTrivialIncremental:
		best, st = s.sc.TrivialIncremental()
	case AlgoHeapPruned:
		best, st = s.sc.HeapPruned()
	case AlgoARLM:
		best, st = s.sc.ARLM()
	case AlgoAGMM:
		best, st = s.sc.AGMM()
	default:
		return Result{}, fmt.Errorf("sigsub: unknown algorithm %v", o.algo)
	}
	record(o, st)
	return s.result(best), nil
}

// FindMSS is the one-shot form of Scanner.MSS.
func FindMSS(s []byte, m *Model, opts ...Option) (Result, error) {
	sc, err := NewScanner(s, m)
	if err != nil {
		return Result{}, err
	}
	return sc.MSS(opts...)
}

// ChiSquare returns the chi-square statistic of the whole string under the
// model (Eq. 5 of the paper).
func ChiSquare(s []byte, m *Model) (float64, error) {
	if m == nil {
		return 0, errNilModel
	}
	if len(s) == 0 {
		return 0, errors.New("sigsub: empty string")
	}
	if err := alphabet.Validate(s, m.K()); err != nil {
		return 0, err
	}
	counts := make([]int, m.K())
	for _, c := range s {
		counts[c]++
	}
	sum := 0.0
	l := float64(len(s))
	for i, y := range counts {
		fy := float64(y)
		sum += fy * fy / m.m.Prob(i)
	}
	return sum/l - l, nil
}

// PValue converts a chi-square value over a k-symbol alphabet to its p-value
// under the asymptotic χ²(k−1) distribution: the probability that a null
// substring attains a statistic at least this extreme. Invalid inputs
// (k < 2) yield NaN-free conservative 1.
func PValue(x2 float64, k int) float64 {
	if k < 2 || x2 <= 0 {
		return 1
	}
	c := dist.ChiSquare{Nu: float64(k - 1)}
	return c.Survival(x2)
}

// CriticalValue returns the chi-square threshold at significance level
// alpha for a k-symbol alphabet: substrings with X² above it have p-value
// below alpha. Typical use: sc.Run(ThresholdQuery(cv)) with
// cv = CriticalValue(0.001, k).
func CriticalValue(alpha float64, k int) (float64, error) {
	if k < 2 {
		return 0, fmt.Errorf("sigsub: alphabet size must be at least 2, got %d", k)
	}
	if !(alpha > 0 && alpha < 1) {
		return 0, fmt.Errorf("sigsub: significance level must lie in (0,1), got %g", alpha)
	}
	c := dist.ChiSquare{Nu: float64(k - 1)}
	return c.Quantile(1 - alpha)
}
