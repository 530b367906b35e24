package core

import "fmt"

// Kind enumerates the problem variants a Query can ask for. The paper's
// Problems 1–4 all lower to these three scan kinds plus the composite
// disjoint peel: Problem 4 (min-length) is not a kind of its own but the
// MinLen field, which composes with every kind, exactly as §6.3 observes
// that a length floor only shrinks the scanned range.
type Kind int

const (
	// KindMSS asks for the single maximum-X² substring (Problem 1; with
	// MinLen > 1 it is Problem 4, with a range it is the segment scan).
	KindMSS Kind = iota
	// KindTopT asks for the T largest-X² substrings (Problem 2).
	KindTopT
	// KindThreshold asks for every substring with X² > Alpha (Problem 3).
	KindThreshold
	// KindDisjoint asks for up to T pairwise non-overlapping substrings in
	// decreasing X² order (the greedy peel of disjointRange). It is a
	// composite of KindMSS sub-queries rather than a single engine pass.
	KindDisjoint
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindMSS:
		return "mss"
	case KindTopT:
		return "topt"
	case KindThreshold:
		return "threshold"
	case KindDisjoint:
		return "disjoint"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Query is the plan RunQuery and RunBatch execute: one problem kind plus
// the knobs that compose with it. The zero values of the knobs
// mean "unrestricted" except for Lo/Hi, which are literal — callers that
// want the whole string pass Lo: 0, Hi: Len() (the public API's sentinel
// translation happens above this layer, so core semantics stay exact).
type Query struct {
	// Kind selects the problem variant.
	Kind Kind
	// T is the result capacity for KindTopT and KindDisjoint.
	T int
	// Alpha is the X² cutoff (strictly above) for KindThreshold.
	Alpha float64
	// MinLen restricts candidates to length ≥ MinLen; values < 1 normalize
	// to 1. Problem 4's "length strictly greater than γ" lowers to
	// MinLen = γ+1.
	MinLen int
	// Lo, Hi restrict candidates to the segment s[Lo:Hi). Lo is clamped to
	// 0 and Hi to Len(); Hi < Lo yields an empty candidate set, not an
	// error.
	Lo, Hi int
	// Limit caps the collected result count for KindThreshold (≤ 0 means
	// unlimited). Exceeding it sets QueryResult.Err while still returning
	// the first Limit results.
	Limit int
	// Visit, when non-nil on a KindThreshold query, streams each
	// qualifying substring instead of collecting into Results. Limit is
	// ignored in that case. Other kinds ignore Visit. Visit is always
	// invoked from the calling goroutine in the sequential scan's (start
	// desc, end asc) order; under parallelism the qualifying substrings are
	// buffered per chunk and replayed in order after the workers finish, so
	// visitors that need streaming delivery (or scans whose result sets are
	// too large to buffer) should use Workers: 1 or collect with a Limit,
	// which also bounds the parallel buffering.
	Visit func(Scored)
}

// QueryResult is the outcome of one planned query: the scored intervals (a
// single element for KindMSS, descending X² for KindTopT/KindDisjoint, scan
// order for KindThreshold), the exact work counters of the scan that served
// it, and the per-query error, so one failing query cannot poison a batch.
type QueryResult struct {
	Results []Scored
	Stats   Stats
	Err     error
}

// Best returns the first result, or the zero Scored when there is none —
// the shape MSS-style callers expect.
func (r QueryResult) Best() Scored {
	if len(r.Results) > 0 {
		return r.Results[0]
	}
	return Scored{}
}

// normalize validates the query and clamps its range against the scanned
// string, returning the canonical plan the engine executes.
func (sc *Scanner) normalize(q Query) (Query, error) {
	return normalizeQuery(q, len(sc.s))
}

// normalizeQuery validates a query and clamps its range against a corpus of
// n symbols — the scanner-free form the planner uses, so a coordinator can
// cut shard subplans knowing only the corpus length.
func normalizeQuery(q Query, n int) (Query, error) {
	switch q.Kind {
	case KindMSS, KindThreshold:
	case KindTopT, KindDisjoint:
		if err := validateT(q.T); err != nil {
			return q, err
		}
	default:
		return q, fmt.Errorf("core: unknown query kind %v", q.Kind)
	}
	if q.Lo < 0 {
		q.Lo = 0
	}
	if q.Hi > n {
		q.Hi = n
	}
	if q.Hi < q.Lo {
		q.Hi = q.Lo
	}
	if q.MinLen < 1 {
		q.MinLen = 1
	}
	return q, nil
}

// candidates returns the number of substrings in the query's candidate set
// — the machine-independent work total a scan of this query must account
// for: QueryResult.Stats.Total() equals it for every engine configuration.
func (q Query) candidates() int64 {
	span := q.Hi - q.Lo
	rows := span - q.MinLen + 1
	if rows <= 0 {
		return 0
	}
	r := int64(rows)
	// Row starting at Lo+i (0-indexed) holds span−i−MinLen+1 candidates:
	// the sum is rows·(rows+1)/2.
	return r * (r + 1) / 2
}

// RunQuery plans q onto the chain-cover engine: the single-query dispatch
// path behind every problem variant. Invalid queries report their error
// in QueryResult.Err; valid queries with empty candidate sets (range
// smaller than the length floor) return empty Results and zero Stats.
func (sc *Scanner) RunQuery(e Engine, q Query) QueryResult {
	nq, err := sc.normalize(q)
	if err != nil {
		return QueryResult{Err: err}
	}
	q = nq
	// A solo query scans every start row of its range.
	rowLo, rowHi := q.Lo, q.Hi-q.MinLen
	switch q.Kind {
	case KindMSS:
		best, st := sc.engineMSSRange(e, q.Lo, q.Hi, q.MinLen, rowLo, rowHi)
		res := QueryResult{Stats: st}
		if best.End > best.Start {
			res.Results = []Scored{best}
		}
		return res
	case KindTopT:
		rs, st, err := sc.engineTopT(e, q.T, q.Hi, q.MinLen, rowLo, rowHi)
		return QueryResult{Results: rs, Stats: st, Err: err}
	case KindThreshold:
		if q.Visit != nil {
			st := sc.engineThreshold(e, []sink{{alpha: q.Alpha}}, q.Hi, q.MinLen, rowLo, rowHi, func(_ int, s Scored) { q.Visit(s) })
			return QueryResult{Stats: st}
		}
		rs, st, err := sc.thresholdCollect(e, q.Alpha, q.Hi, q.MinLen, rowLo, rowHi, q.Limit)
		return QueryResult{Results: rs, Stats: st, Err: err}
	case KindDisjoint:
		rs, st, err := sc.disjointRange(e, q.T, q.Lo, q.Hi, q.MinLen)
		return QueryResult{Results: rs, Stats: st, Err: err}
	}
	return QueryResult{Err: fmt.Errorf("core: unknown query kind %v", q.Kind)}
}
