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
// The default algorithm is the paper's chain-cover skip scan, which runs in
// O(k·n^{3/2}) time with high probability while remaining exact; the trivial
// O(k·n²) scan and the ARLM/AGMM heuristics of prior work are available for
// comparison via WithAlgorithm.
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

// options collects the functional options of the Find functions.
type options struct {
	algo    Algorithm
	stats   *Stats
	limit   int
	workers int
	warm    bool
}

// engine translates the options into a core engine configuration.
func (o options) engine() core.Engine {
	return core.Engine{Workers: o.workers, WarmStart: o.warm}
}

// Option configures a scan.
type Option func(*options)

// WithAlgorithm selects the scanning strategy (default AlgoExact). The
// heuristic algorithms apply only to MSS-style scans; top-t, threshold, and
// min-length scans always use the exact machinery.
func WithAlgorithm(a Algorithm) Option {
	return func(o *options) { o.algo = a }
}

// WithStats records work counters into st.
func WithStats(st *Stats) Option {
	return func(o *options) { o.stats = st }
}

// WithLimit caps the number of results a threshold scan may collect
// (default 1,000,000). Exceeding the cap returns an error, since low
// thresholds can produce O(n²) results.
func WithLimit(n int) Option {
	return func(o *options) { o.limit = n }
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

// WithWarmStart seeds the exact MSS-style scans' skip budget with the best
// X² found by the O(nk) global-extrema heuristic before the exact scan
// begins. The seed is the X² of an actual candidate substring, hence a
// lower bound on the answer: the exact scan stays exact and returns the
// identical result, it merely starts skipping sooner. The seeding pass's
// own evaluations are excluded from Stats, which keep accounting for the
// exact scan alone (Evaluated+Skipped still equals the number of candidate
// substrings). Top-t and threshold scans ignore the option (their budgets —
// the running t-th best and the fixed α — cannot soundly start from a
// single heuristic value).
func WithWarmStart(enabled bool) Option {
	return func(o *options) { o.warm = enabled }
}

func buildOptions(opts []Option) options {
	o := options{algo: AlgoExact, limit: 1_000_000, workers: 1}
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
	// decreasing X² order (the greedy peel behind DisjointTopT).
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

// Query is the unified plan every problem variant lowers to: one kind plus
// the knobs that compose with it. The legacy methods (MSS, TopT, Threshold,
// MSSMinLength, …) are thin constructors over Run with the matching Query;
// building Queries directly unlocks the combinations the methods do not
// enumerate (top-t within a range, threshold above a length floor, …) and
// batch execution via RunBatch.
type Query struct {
	// Kind selects the problem variant.
	Kind QueryKind
	// T is the result capacity for QueryTopT and QueryDisjoint.
	T int
	// Alpha is the X² cutoff (strictly above) for QueryThreshold.
	Alpha float64
	// MinLength restricts candidates to substrings of length ≥ MinLength
	// (0 and 1 are equivalent: no floor). Problem 4's "strictly longer
	// than γ" is MinLength: γ+1, which is what MSSMinLength passes.
	MinLength int
	// Lo, Hi restrict candidates to the segment [Lo, Hi) of the scanned
	// string. The zero value Hi == 0 means Len() — the whole string — so
	// the zero Query scans everything; out-of-range bounds are clamped and
	// a range smaller than MinLength yields zero results, not an error.
	Lo, Hi int
	// Limit caps the collected results of a QueryThreshold (0 means the
	// scan option's limit, default 1,000,000; negative means unlimited).
	// Exceeding it returns the first Limit results plus an error.
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

// lower translates a public Query to its core plan, resolving the Hi == 0
// sentinel and the option-level threshold limit.
func (s *Scanner) lower(q Query, o options) (core.Query, error) {
	return lowerQuery(q, s.sc.Len(), o)
}

// lowerQuery is the scanner-free form of lower: it resolves the Hi == 0
// sentinel against an explicit corpus length, so a shard coordinator can
// lower queries knowing only n (the catalog's corpus length), without
// holding any symbols locally.
func lowerQuery(q Query, n int, o options) (core.Query, error) {
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
		limit = o.limit
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
// QueryResult.Err alongside the partial Results. Options configure the
// engine exactly as they do for the legacy methods.
func (s *Scanner) Run(q Query, opts ...Option) (QueryResult, error) {
	if s.sc.Len() == 0 {
		return QueryResult{}, errors.New("sigsub: cannot scan an empty string")
	}
	o := buildOptions(opts)
	cq, err := s.lower(q, o)
	if err != nil {
		return QueryResult{}, err
	}
	r := s.sc.RunQuery(o.engine(), cq)
	if r.Err != nil && len(r.Results) == 0 {
		return QueryResult{}, r.Err
	}
	record(o, r.Stats)
	return s.queryResult(r), nil
}

// RunBatch executes a batch of Queries in as few engine passes as possible:
// every MSS, top-t, and threshold query shares ONE chain-cover traversal of
// the Scanner's prefix counts — the count vector and X² of each evaluated
// window are computed once and served to every query that needs them, while
// each query keeps its own skip budget, sink, and exact Stats (Evaluated +
// Skipped still accounts for the query's full candidate set). Disjoint
// queries follow as individual passes over the same shared counts. The
// returned slice is parallel to qs; per-query failures are reported in the
// slot's Err. WithStats records the summed counters of the whole batch;
// WithWorkers parallelizes the shared traversal itself.
//
// Result equivalence with the individual methods: MSS-kind and
// threshold-kind queries return bit-identical results; top-t queries return
// the identical X² value multiset (intervals exactly tied at the t-th-best
// value may resolve differently, as the problem statement permits).
func (s *Scanner) RunBatch(qs []Query, opts ...Option) ([]QueryResult, error) {
	if s.sc.Len() == 0 {
		return nil, errors.New("sigsub: cannot scan an empty string")
	}
	o := buildOptions(opts)
	cqs := make([]core.Query, len(qs))
	lowerErrs := make([]error, len(qs))
	for i, q := range qs {
		cq, err := s.lower(q, o)
		if err != nil {
			// Mark the slot invalid; core rejects the sentinel kind again,
			// but the clearer public error wins below.
			lowerErrs[i] = err
			cq = core.Query{Kind: core.Kind(-1)}
		}
		cqs[i] = cq
	}
	rs := s.sc.RunBatch(o.engine(), cqs)
	out := make([]QueryResult, len(rs))
	var sum core.Stats
	for i, r := range rs {
		out[i] = s.queryResult(r)
		if lowerErrs[i] != nil {
			out[i].Err = lowerErrs[i]
		}
		sum.Evaluated += r.Stats.Evaluated
		sum.Skipped += r.Stats.Skipped
		sum.Starts += r.Stats.Starts
	}
	record(o, sum)
	return out, nil
}

// MSS solves Problem 1: the substring with the maximum chi-square value.
// An empty string yields an error. With the default AlgoExact the call is a
// thin constructor over Run(MSSQuery()); the baseline and heuristic
// algorithms keep their dedicated scanners.
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
		return firstOr(qr), nil
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

// firstOr unwraps an MSS-style QueryResult: its single result, or the zero
// Result (with the conservative p-value 1) when the candidate set was
// empty.
func firstOr(qr QueryResult) Result {
	if len(qr.Results) > 0 {
		return qr.Results[0]
	}
	return Result{PValue: 1}
}

// TopT solves Problem 2: the t substrings with the largest chi-square
// values, in descending order. Fewer than t results are returned only when
// the string has fewer than t substrings.
func (s *Scanner) TopT(t int, opts ...Option) ([]Result, error) {
	if s.sc.Len() == 0 {
		return nil, errors.New("sigsub: cannot scan an empty string")
	}
	o := buildOptions(opts)
	if o.algo != AlgoExact && o.algo != AlgoTrivial {
		return nil, fmt.Errorf("sigsub: top-t supports the exact and trivial algorithms, not %v", o.algo)
	}
	if o.algo == AlgoTrivial {
		rs, st, err := s.sc.TrivialTopT(t)
		if err != nil {
			return nil, err
		}
		record(o, st)
		return s.results(rs), nil
	}
	qr, err := s.Run(TopTQuery(t), opts...)
	if err != nil {
		return nil, err
	}
	return qr.Results, nil
}

// DisjointTopT returns up to t pairwise non-overlapping substrings in
// decreasing X² order (greedy peeling: MSS first, then the best in the
// remaining segments). minLen ≥ 1 restricts candidates to that length or
// longer; it is how "top periods" tables are produced from temporal data.
func (s *Scanner) DisjointTopT(t, minLen int, opts ...Option) ([]Result, error) {
	if s.sc.Len() == 0 {
		return nil, errors.New("sigsub: cannot scan an empty string")
	}
	qr, err := s.Run(DisjointQuery(t).WithMinLength(minLen), opts...)
	if err != nil {
		return nil, err
	}
	return qr.Results, nil
}

// Threshold solves Problem 3: every substring with X² strictly above alpha,
// in (start, end) scan order. The result set is capped by WithLimit.
func (s *Scanner) Threshold(alpha float64, opts ...Option) ([]Result, error) {
	if s.sc.Len() == 0 {
		return nil, errors.New("sigsub: cannot scan an empty string")
	}
	qr, err := s.Run(ThresholdQuery(alpha), opts...)
	if err != nil {
		return nil, err
	}
	if qr.Err != nil {
		return nil, qr.Err
	}
	return qr.Results, nil
}

// ThresholdFunc streams every substring with X² > alpha to visit without
// materializing the result set. Streaming requires the sequential scan:
// with WithWorkers above 1 the qualifying substrings are buffered per chunk
// (potentially O(n²) of them for a low alpha — WithLimit does not apply
// here) and replayed in order only after the scan finishes; keep the
// default workers, or use Threshold whose limit also bounds the parallel
// buffering.
func (s *Scanner) ThresholdFunc(alpha float64, visit func(Result), opts ...Option) error {
	if s.sc.Len() == 0 {
		return errors.New("sigsub: cannot scan an empty string")
	}
	o := buildOptions(opts)
	cq, err := s.lower(ThresholdQuery(alpha), o)
	if err != nil {
		return err
	}
	cq.Limit = 0 // streaming delivery: the collect limit does not apply
	cq.Visit = func(r core.Scored) { visit(s.result(r)) }
	r := s.sc.RunQuery(o.engine(), cq)
	record(o, r.Stats)
	return r.Err
}

// TopTMinLength combines Problems 2 and 4: the t largest-X² substrings
// among substrings of length strictly greater than gamma.
func (s *Scanner) TopTMinLength(t, gamma int, opts ...Option) ([]Result, error) {
	if s.sc.Len() == 0 {
		return nil, errors.New("sigsub: cannot scan an empty string")
	}
	if gamma < 0 {
		gamma = 0
	}
	qr, err := s.Run(TopTQuery(t).WithMinLength(gamma+1), opts...)
	if err != nil {
		return nil, err
	}
	return qr.Results, nil
}

// ThresholdMinLength combines Problems 3 and 4: every substring longer than
// gamma with X² strictly above alpha.
func (s *Scanner) ThresholdMinLength(alpha float64, gamma int, opts ...Option) ([]Result, error) {
	if s.sc.Len() == 0 {
		return nil, errors.New("sigsub: cannot scan an empty string")
	}
	if gamma < 0 {
		gamma = 0
	}
	o := buildOptions(opts)
	qr, err := s.Run(ThresholdQuery(alpha).WithMinLength(gamma+1), opts...)
	if err != nil {
		return nil, err
	}
	if qr.Err != nil {
		return qr.Results, fmt.Errorf("sigsub: more than %d substrings exceed threshold %g", o.limit, alpha)
	}
	return qr.Results, nil
}

// MSSRange finds the maximum-X² substring confined to [lo, hi) with length
// ≥ minLen — useful when natural boundaries (sessions, seasons,
// chromosomes) delimit the search.
func (s *Scanner) MSSRange(lo, hi, minLen int, opts ...Option) (Result, error) {
	if s.sc.Len() == 0 {
		return Result{}, errors.New("sigsub: cannot scan an empty string")
	}
	if hi <= 0 {
		// An explicitly empty (or inverted) range has no candidates; handle
		// it here because a Query's Hi == 0 means "to the end".
		o := buildOptions(opts)
		record(o, core.Stats{})
		return Result{PValue: 1}, nil
	}
	qr, err := s.Run(MSSQuery().WithRange(lo, hi).WithMinLength(minLen), opts...)
	if err != nil {
		return Result{}, err
	}
	return firstOr(qr), nil
}

// MSSMinLength solves Problem 4: the maximum-X² substring among substrings
// of length strictly greater than gamma.
func (s *Scanner) MSSMinLength(gamma int, opts ...Option) (Result, error) {
	if s.sc.Len() == 0 {
		return Result{}, errors.New("sigsub: cannot scan an empty string")
	}
	if gamma >= s.sc.Len() {
		return Result{}, fmt.Errorf("sigsub: no substring of length > %d in a string of length %d", gamma, s.sc.Len())
	}
	if gamma < 0 {
		gamma = 0
	}
	qr, err := s.Run(MSSQuery().WithMinLength(gamma+1), opts...)
	if err != nil {
		return Result{}, err
	}
	return firstOr(qr), nil
}

// FindMSS is the one-shot form of Scanner.MSS.
func FindMSS(s []byte, m *Model, opts ...Option) (Result, error) {
	sc, err := NewScanner(s, m)
	if err != nil {
		return Result{}, err
	}
	return sc.MSS(opts...)
}

// FindTopT is the one-shot form of Scanner.TopT.
func FindTopT(s []byte, m *Model, t int, opts ...Option) ([]Result, error) {
	sc, err := NewScanner(s, m)
	if err != nil {
		return nil, err
	}
	return sc.TopT(t, opts...)
}

// FindAboveThreshold is the one-shot form of Scanner.Threshold.
func FindAboveThreshold(s []byte, m *Model, alpha float64, opts ...Option) ([]Result, error) {
	sc, err := NewScanner(s, m)
	if err != nil {
		return nil, err
	}
	return sc.Threshold(alpha, opts...)
}

// FindMSSMinLength is the one-shot form of Scanner.MSSMinLength.
func FindMSSMinLength(s []byte, m *Model, gamma int, opts ...Option) (Result, error) {
	sc, err := NewScanner(s, m)
	if err != nil {
		return Result{}, err
	}
	return sc.MSSMinLength(gamma, opts...)
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
// below alpha. Typical use: FindAboveThreshold(s, m, CriticalValue(0.001, k)).
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
