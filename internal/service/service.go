// Package service implements the request model, validation, and corpus
// cache behind the long-lived query daemon (cmd/mssd). It owns the wire
// types — the JSON encodings of queries, results, and stats — which
// cmd/mss's -format json output shares, so the CLI and the daemon speak the
// same schema.
//
// The daemon's value proposition is amortization: a corpus uploaded once is
// encoded and prefix-counted once (an O(n·k) Scanner build), and every
// subsequent query — or batch of queries — reuses it. Scanners are
// read-only after construction, so the cache serves concurrent requests
// against one corpus without locking around the scans themselves.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	sigsub "repro"
	"repro/internal/snapshot"
)

// ErrNotFound reports a corpus name absent from the cache.
var ErrNotFound = errors.New("service: corpus not found")

// ValidationError marks client mistakes (HTTP 400s) apart from server
// faults.
type ValidationError struct{ msg string }

func (e *ValidationError) Error() string { return e.msg }

// badRequest builds a ValidationError.
func badRequest(format string, args ...any) error {
	return &ValidationError{msg: fmt.Sprintf(format, args...)}
}

// IsValidation reports whether err is a client-side validation failure.
func IsValidation(err error) bool {
	var v *ValidationError
	return errors.As(err, &v)
}

// UnavailableError marks a resource that exists but cannot serve the
// operation right now (HTTP 503) — a degraded live corpus mid-recovery, a
// daemon draining for shutdown. RetryAfter hints when trying again is
// worthwhile.
type UnavailableError struct {
	Message    string
	RetryAfter time.Duration
}

func (e *UnavailableError) Error() string { return e.Message }

// IsUnavailable unwraps an UnavailableError, reporting whether err is one.
func IsUnavailable(err error) (*UnavailableError, bool) {
	var u *UnavailableError
	if errors.As(err, &u) {
		return u, true
	}
	return nil, false
}

// --- Wire types ---

// Query is the wire form of a sigsub.Query. Kind is one of "mss", "topt",
// "threshold", "disjoint"; the remaining knobs compose exactly as in the
// library (MinLength is a ≥ floor, Lo/Hi restrict the segment with Hi 0
// meaning the corpus end, Limit caps threshold results).
type Query struct {
	Kind      string  `json:"kind"`
	T         int     `json:"t,omitempty"`
	Alpha     float64 `json:"alpha,omitempty"`
	MinLength int     `json:"min_length,omitempty"`
	Lo        int     `json:"lo,omitempty"`
	Hi        int     `json:"hi,omitempty"`
	Limit     int     `json:"limit,omitempty"`
}

// Plan validates the wire query and lowers it to the library plan.
func (q Query) Plan() (sigsub.Query, error) {
	kind, err := sigsub.ParseQueryKind(q.Kind)
	if err != nil {
		return sigsub.Query{}, badRequest("unknown query kind %q (want mss|topt|threshold|disjoint)", q.Kind)
	}
	switch kind {
	case sigsub.QueryTopT, sigsub.QueryDisjoint:
		if q.T < 1 {
			return sigsub.Query{}, badRequest("%s query requires t >= 1, got %d", q.Kind, q.T)
		}
	case sigsub.QueryThreshold:
		if q.Alpha < 0 {
			return sigsub.Query{}, badRequest("threshold query requires alpha >= 0, got %g", q.Alpha)
		}
	}
	if q.MinLength < 0 {
		return sigsub.Query{}, badRequest("min_length must be >= 0, got %d", q.MinLength)
	}
	if q.Lo < 0 || q.Hi < 0 {
		return sigsub.Query{}, badRequest("lo/hi must be >= 0, got [%d, %d)", q.Lo, q.Hi)
	}
	if q.Limit < 0 {
		// The library treats a negative limit as "unlimited"; a shared
		// daemon never grants that (low alphas produce O(n²) results).
		return sigsub.Query{}, badRequest("limit must be >= 0, got %d (0 means the server default)", q.Limit)
	}
	return sigsub.Query{
		Kind:      kind,
		T:         q.T,
		Alpha:     q.Alpha,
		MinLength: q.MinLength,
		Lo:        q.Lo,
		Hi:        q.Hi,
		Limit:     q.Limit,
	}, nil
}

// Result is the JSON encoding of one scored substring.
type Result struct {
	Start  int     `json:"start"`
	End    int     `json:"end"`
	Length int     `json:"length"`
	X2     float64 `json:"x2"`
	PValue float64 `json:"p_value"`
	// Text is the decoded substring, included on request (and truncated to
	// snippetCap characters).
	Text string `json:"text,omitempty"`
}

// snippetCap bounds the decoded text echoed per result.
const snippetCap = 200

// Stats is the JSON encoding of the exact work counters.
type Stats struct {
	Evaluated int64 `json:"evaluated"`
	Skipped   int64 `json:"skipped"`
	Starts    int64 `json:"starts"`
}

// QueryResult is the wire form of one query's answer.
type QueryResult struct {
	Results []Result `json:"results"`
	Stats   Stats    `json:"stats"`
	Error   string   `json:"error,omitempty"`
}

// FromResult converts a library result; text is the optional decoded
// substring (pass "" to omit), truncated to snippetCap characters on a
// rune boundary so multi-byte alphabets never yield invalid UTF-8.
func FromResult(r sigsub.Result, text string) Result {
	return Result{Start: r.Start, End: r.End, Length: r.Length, X2: r.X2, PValue: r.PValue, Text: truncateRunes(text, snippetCap)}
}

// truncateRunes cuts s to at most max runes without splitting a rune.
func truncateRunes(s string, max int) string {
	if len(s) <= max {
		return s // ≤ max bytes implies ≤ max runes
	}
	n := 0
	for i := range s {
		if n == max {
			return s[:i]
		}
		n++
	}
	return s
}

// FromStats converts library stats.
func FromStats(st sigsub.Stats) Stats {
	return Stats{Evaluated: st.Evaluated, Skipped: st.Skipped, Starts: st.Starts}
}

// ModelSpec selects the null model of a corpus: explicit probabilities, a
// maximum-likelihood fit of the corpus itself, or (the zero value) the
// uniform model over the corpus alphabet.
type ModelSpec struct {
	Probs []float64 `json:"probs,omitempty"`
	MLE   bool      `json:"mle,omitempty"`
}

// --- Corpus cache ---

// Corpus is a cached, query-ready text: the codec mapping characters to
// symbols, the null model, and the prefix-counted scanner. All fields are
// read-only after construction.
//
// A corpus is either heap-built (BuildCorpus: the index and symbols live on
// the Go heap) or mmap-backed (the Store loads it from a snapshot file and
// the index and symbols are served straight from the page cache). The
// distinction matters only for accounting: the cache budget charges
// resident heap bytes, while mapped bytes are reported separately.
type Corpus struct {
	Name    string
	Codec   *sigsub.TextCodec
	Model   *sigsub.Model
	Scanner *sigsub.Scanner
	symbols []byte

	// Segment, when non-nil, marks this corpus as one suffix segment of a
	// larger sharded corpus (loaded from the snapshot's .segment.json
	// sidecar): the scanner holds symbols [Segment.Offset, Segment.TotalLen)
	// and shard-exec requests translate absolute coordinates through it.
	Segment *snapshot.SegmentMeta

	// snap pins the snapshot mapping for mmap-backed corpora: the Scanner
	// and symbols alias the mapped file, which stays valid exactly as long
	// as the Corpus (and hence snap) is reachable.
	snap *sigsub.Snapshot

	// epoch and live describe a frozen view of a live (appendable) corpus:
	// epoch is the append epoch the Scanner is pinned to, live marks the
	// corpus as appendable (LiveCorpus.Freeze sets both). degraded carries
	// the live corpus's failure state at freeze time (nil when healthy).
	epoch    uint64
	live     bool
	degraded *DegradedInfo
	// generation is the live corpus's WAL generation at freeze time (0 for
	// frozen corpora); replica marks a read-only follower corpus.
	generation int
	replica    bool
	// commit carries the live corpus's commit-pipeline counters at freeze
	// time (nil when the corpus has no group-commit pipeline).
	commit *CommitStats
	// modelStr memoizes Model.String() for corpora whose Info is built per
	// append (LiveCorpus.Freeze); empty means render on demand.
	modelStr string
}

// Bytes returns the corpus's resident heap footprint — what the
// byte-budgeted cache charges for admission. Heap-built corpora charge the
// count index plus the encoded symbol string (snippets decode from the
// symbols, so no raw text is kept); mmap-backed corpora charge only their
// small heap overhead, since their index and symbols live in the page
// cache and are evictable by the kernel.
func (c *Corpus) Bytes() int64 {
	if c.snap != nil {
		return c.snap.HeapBytes()
	}
	return int64(c.Scanner.IndexBytes()) + int64(len(c.symbols))
}

// MappedBytes returns the file-backed bytes an mmap-backed corpus is served
// from (0 for heap-built corpora).
func (c *Corpus) MappedBytes() int64 {
	if c.snap != nil {
		return c.snap.MappedBytes()
	}
	return 0
}

// Info summarizes a corpus for listings and responses.
type Info struct {
	Name  string `json:"name"`
	N     int    `json:"n"`
	K     int    `json:"k"`
	Model string `json:"model"`
	// Bytes is the corpus's resident heap footprint charged against the
	// cache byte budget.
	Bytes int64 `json:"bytes"`
	// MappedBytes is the file-backed footprint of an mmap-served corpus
	// (0 when the corpus was built on the heap). Mapped bytes are paged in
	// and out by the kernel and are not charged against the cache budget.
	MappedBytes int64 `json:"mapped_bytes,omitempty"`
	// Live marks an appendable corpus; Epoch is its append epoch (appends
	// applied since this daemon process opened it — WAL records replayed at
	// startup count, so a restart resumes at the persisted history's epoch).
	Live  bool   `json:"live,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
	// Generation is a durable live corpus's WAL generation — the epoch half
	// of the replication cursor; compaction bumps it.
	Generation int `json:"generation"`
	// Replica marks a read-only follower corpus: scans serve, local writes
	// return 409 until the corpus is promoted.
	Replica bool `json:"replica,omitempty"`
	// Degraded, when present, reports a live corpus serving reads but
	// refusing appends after an unrecovered log failure.
	Degraded *DegradedInfo `json:"degraded,omitempty"`
	// Commit, when present, reports the corpus's group-commit pipeline
	// counters (appends per fsync, fsyncs issued, max batch, max ticket
	// wait, pending records, relaxed records lost).
	Commit *CommitStats `json:"commit,omitempty"`
	// Segment, when present, marks the corpus as one suffix segment of a
	// sharded parent corpus (see the shard catalog endpoints).
	Segment *SegmentInfo `json:"segment,omitempty"`
}

// Info returns the corpus summary.
func (c *Corpus) Info() Info {
	model := c.modelStr
	if model == "" {
		model = c.Model.String()
	}
	info := Info{
		Name:        c.Name,
		N:           c.Scanner.Len(),
		K:           c.Model.K(),
		Model:       model,
		Bytes:       c.Bytes(),
		MappedBytes: c.MappedBytes(),
		Live:        c.live,
		Epoch:       c.epoch,
		Generation:  c.generation,
		Replica:     c.replica,
		Degraded:    c.degraded,
		Commit:      c.commit,
	}
	if c.Segment != nil {
		info.Segment = &SegmentInfo{
			Index:    c.Segment.Index,
			Count:    c.Segment.Count,
			Offset:   c.Segment.Offset,
			TotalLen: c.Segment.TotalLen,
		}
	}
	return info
}

// Snippet decodes the corpus characters of [start, end), for result
// echoing.
func (c *Corpus) Snippet(start, end int) string {
	if start < 0 || end > len(c.symbols) || start >= end {
		return ""
	}
	if end-start > snippetCap {
		end = start + snippetCap
	}
	text, err := c.Codec.Decode(c.symbols[start:end])
	if err != nil {
		return ""
	}
	return text
}

// BuildCorpus encodes text (alphabet = its distinct characters in sorted
// order), resolves the model spec against that alphabet, and prefix-counts
// a scanner.
func BuildCorpus(name, text string, spec ModelSpec) (*Corpus, error) {
	if text == "" {
		return nil, badRequest("empty corpus text")
	}
	codec, err := sigsub.NewTextCodecSorted(text)
	if err != nil {
		return nil, badRequest("corpus text: %v", err)
	}
	symbols, err := codec.Encode(text)
	if err != nil {
		return nil, badRequest("corpus text: %v", err)
	}
	var model *sigsub.Model
	switch {
	case len(spec.Probs) > 0:
		if len(spec.Probs) != codec.K() {
			return nil, badRequest("model has %d probabilities but the corpus uses %d distinct characters", len(spec.Probs), codec.K())
		}
		model, err = sigsub.NewModel(spec.Probs)
	case spec.MLE:
		model, err = sigsub.ModelFromSample(symbols, codec.K())
	default:
		model, err = codec.UniformModel()
	}
	if err != nil {
		return nil, badRequest("model: %v", err)
	}
	sc, err := sigsub.NewScanner(symbols, model)
	if err != nil {
		return nil, badRequest("scanner: %v", err)
	}
	return &Corpus{Name: name, Codec: codec, Model: model, Scanner: sc, symbols: symbols}, nil
}

// DefaultCacheBytes is the default corpus-cache byte budget (256 MiB).
const DefaultCacheBytes = 256 << 20

// cacheEntry is one resident corpus threaded on the intrusive LRU list.
// prev points toward the least-recently-used head, next toward the
// most-recently-used tail.
type cacheEntry struct {
	corpus     *Corpus
	prev, next *cacheEntry
}

// Cache is a byte-budgeted LRU map of named corpora: capacity is measured
// in resident bytes (Corpus.Bytes), not entries, so the budget translates
// directly to the daemon's memory ceiling — a checkpointed count index
// costs n·(4k/B + k/2) bytes, and mmap-backed corpora charge only their
// small heap overhead. All
// methods are safe for concurrent use; the corpora themselves are
// immutable, so a Get result stays valid (and scannable) even after
// eviction.
//
// Recency is an intrusive doubly-linked list over the map entries, so the
// hot-path touch on every Get/Put is O(1) regardless of how many corpora
// are resident (the previous order-slice scan made a busy daemon's lookup
// path quadratic in the corpus count).
type Cache struct {
	mu   sync.Mutex
	max  int64
	used int64
	m    map[string]*cacheEntry
	// head is the least recently used entry, tail the most recent; both nil
	// iff the cache is empty.
	head, tail *cacheEntry
}

// NewCache builds a cache with the given byte budget (maxBytes < 1 selects
// DefaultCacheBytes). A corpus larger than the whole budget is still
// admitted — alone — so a legal upload never becomes uncacheable.
func NewCache(maxBytes int64) *Cache {
	if maxBytes < 1 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache{max: maxBytes, m: make(map[string]*cacheEntry)}
}

// unlink removes e from the recency list. Callers hold mu.
func (c *Cache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushTail appends e at the most-recently-used tail. Callers hold mu.
func (c *Cache) pushTail(e *cacheEntry) {
	e.prev = c.tail
	e.next = nil
	if c.tail != nil {
		c.tail.next = e
	} else {
		c.head = e
	}
	c.tail = e
}

// touch moves e to the most-recently-used tail in O(1). Callers hold mu.
func (c *Cache) touch(e *cacheEntry) {
	if c.tail == e {
		return
	}
	c.unlink(e)
	c.pushTail(e)
}

// Put stores the corpus under its name, evicting least-recently-used
// entries until the byte budget holds (the new corpus itself is never
// evicted). It returns the evicted names, oldest first.
func (c *Cache) Put(corpus *Corpus) (evicted []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[corpus.Name]
	if ok {
		c.used -= e.corpus.Bytes()
		e.corpus = corpus
		c.touch(e)
	} else {
		e = &cacheEntry{corpus: corpus}
		c.m[corpus.Name] = e
		c.pushTail(e)
	}
	c.used += corpus.Bytes()
	for c.used > c.max && c.head != c.tail {
		victim := c.head
		if victim.corpus.Name == corpus.Name {
			break
		}
		c.unlink(victim)
		c.used -= victim.corpus.Bytes()
		delete(c.m, victim.corpus.Name)
		evicted = append(evicted, victim.corpus.Name)
	}
	return evicted
}

// UsedBytes returns the bytes currently charged against the budget.
func (c *Cache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// MappedBytes returns the file-backed (mmap-served) bytes of the resident
// corpora. They are not charged against the budget — the kernel pages them
// in and out on demand — but operators watching /v1/healthz want both
// numbers.
func (c *Cache) MappedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for e := c.head; e != nil; e = e.next {
		total += e.corpus.MappedBytes()
	}
	return total
}

// MaxBytes returns the cache byte budget.
func (c *Cache) MaxBytes() int64 { return c.max }

// Get fetches a corpus and marks it recently used.
func (c *Cache) Get(name string) (*Corpus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[name]
	if !ok {
		return nil, false
	}
	c.touch(e)
	return e.corpus, true
}

// Delete removes a corpus, reporting whether it was present.
func (c *Cache) Delete(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[name]
	if !ok {
		return false
	}
	c.used -= e.corpus.Bytes()
	c.unlink(e)
	delete(c.m, name)
	return true
}

// List returns the cached corpora, least recently used first.
func (c *Cache) List() []Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Info, 0, len(c.m))
	for e := c.head; e != nil; e = e.next {
		out = append(out, e.corpus.Info())
	}
	return out
}

// Len returns the number of cached corpora.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// --- Execution ---

// BatchRequest asks for a batch of queries against one corpus: either a
// cached one (Corpus) or an inline text (Text + Model) scanned for this
// request only.
type BatchRequest struct {
	Corpus      string    `json:"corpus,omitempty"`
	Text        string    `json:"text,omitempty"`
	Model       ModelSpec `json:"model,omitempty"`
	Queries     []Query   `json:"queries"`
	Workers     int       `json:"workers,omitempty"`
	IncludeText bool      `json:"include_text,omitempty"`
}

// SingleRequest asks for one query; it is sugar for a one-element batch.
type SingleRequest struct {
	Corpus      string    `json:"corpus,omitempty"`
	Text        string    `json:"text,omitempty"`
	Model       ModelSpec `json:"model,omitempty"`
	Query       Query     `json:"query"`
	Workers     int       `json:"workers,omitempty"`
	IncludeText bool      `json:"include_text,omitempty"`
}

// Batch lowers the single request to its batch form.
func (r SingleRequest) Batch() BatchRequest {
	return BatchRequest{
		Corpus:      r.Corpus,
		Text:        r.Text,
		Model:       r.Model,
		Queries:     []Query{r.Query},
		Workers:     r.Workers,
		IncludeText: r.IncludeText,
	}
}

// BatchResponse carries the per-query answers plus the corpus identity they
// were computed against.
type BatchResponse struct {
	Corpus  Info          `json:"corpus"`
	Results []QueryResult `json:"results"`
	// Scatter, when present, reports how the request was fanned out across
	// shard peers (coordinator nodes only; local execution leaves it nil).
	Scatter *ScatterInfo `json:"scatter,omitempty"`
}

// Executor validates and runs requests against a cache. The limits guard a
// shared daemon against oversized requests; zero values mean defaults.
type Executor struct {
	Cache *Cache
	// Store, when non-nil, is the durable corpus layer behind the cache:
	// uploads persist to it, cache misses reload from it (mmap-served)
	// instead of returning not-found, and deletes remove the file.
	Store *Store
	// storeMu serializes store mutations against cache admission: without
	// it, a cache-miss reload racing a DELETE could re-admit the corpus
	// after its file is gone, resurrecting a deleted corpus until the next
	// eviction. Queries against cached corpora never take it.
	storeMu sync.Mutex
	// liveMu guards the live-corpus registry. Live corpora are pinned here
	// rather than living in the LRU cache: eviction-and-reload of an
	// appendable corpus could put two writers on one WAL. Appends
	// themselves serialize on each LiveCorpus's own mutex, so holding
	// liveMu is only ever a map operation — one corpus's slow append never
	// blocks another's.
	liveMu sync.Mutex
	live   map[string]*LiveCorpus
	// Commit is the node-wide group-commit pipeline every durable live
	// corpus commits through (one covering fsync per batch of concurrent
	// appends). Left nil on an executor with a Store, one is started at
	// DefaultFsyncInterval on the first durable live open. Close stops it
	// either way.
	Commit *Committer
	// commitMu guards the lazy start of Commit.
	commitMu sync.Mutex
	// AutoCompactWALBytes, when positive, auto-compacts a live corpus in the
	// background once its acknowledged WAL passes this many bytes, bounding
	// restart-replay time and log disk without an operator in the loop.
	// Zero keeps compaction manual (the compact endpoint).
	AutoCompactWALBytes int64
	// MaxQueries bounds the queries per batch (default 64).
	MaxQueries int
	// MaxWorkers bounds the per-request engine parallelism (default 16).
	MaxWorkers int
	// MaxTextLen bounds inline corpus text bytes (default 1 << 20).
	MaxTextLen int
}

func (e *Executor) maxQueries() int {
	if e.MaxQueries > 0 {
		return e.MaxQueries
	}
	return 64
}

func (e *Executor) maxWorkers() int {
	if e.MaxWorkers > 0 {
		return e.MaxWorkers
	}
	return 16
}

func (e *Executor) maxTextLen() int {
	if e.MaxTextLen > 0 {
		return e.MaxTextLen
	}
	return 1 << 20
}

// TextLimit is the effective corpus/inline text byte limit (the configured
// MaxTextLen or its default), for transports that enforce it up front.
func (e *Executor) TextLimit() int { return e.maxTextLen() }

// BodyLimit is the request-body byte budget a transport should allow for a
// request carrying TextLimit text: JSON escaping inflates a text byte to at
// most 6 wire bytes (\u00XX), plus slack for the rest of the envelope.
func (e *Executor) BodyLimit() int64 { return int64(e.maxTextLen())*6 + 1<<16 }

// resolve finds or builds the corpus a request addresses.
func (e *Executor) resolve(corpusName, text string, spec ModelSpec) (*Corpus, error) {
	switch {
	case corpusName != "" && text != "":
		return nil, badRequest("request names corpus %q and carries inline text; use one", corpusName)
	case corpusName != "":
		if len(spec.Probs) > 0 || spec.MLE {
			// Silently dropping the spec would hand back answers under a
			// different null model than the client asked for.
			return nil, badRequest("request names corpus %q and a model spec; a cached corpus's model is fixed at upload time", corpusName)
		}
		return e.lookup(corpusName)
	case text != "":
		if len(text) > e.maxTextLen() {
			return nil, badRequest("inline text of %d bytes exceeds the %d byte limit; upload it as a corpus", len(text), e.maxTextLen())
		}
		return BuildCorpus("", text, spec)
	default:
		return nil, badRequest("request must name a corpus or carry inline text")
	}
}

// lookup resolves a named corpus: the live registry first (a frozen view of
// the current epoch), then the cache, then — when a store is configured — a
// reload from disk, which re-admits the mmap-served corpus to the cache so
// the next request hits.
func (e *Executor) lookup(name string) (*Corpus, error) {
	if lc := e.liveGet(name); lc != nil {
		return lc.Freeze(), nil
	}
	if corpus, ok := e.Cache.Get(name); ok {
		return corpus, nil
	}
	if e.Store == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	// Load-and-admit runs under storeMu so a concurrent DeleteCorpus
	// cannot interleave between the file read and the cache put.
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	if lc := e.liveGet(name); lc != nil {
		return lc.Freeze(), nil
	}
	if corpus, ok := e.Cache.Get(name); ok {
		return corpus, nil
	}
	if e.Store.IsLive(name) {
		lc, err := e.Store.OpenLive(name, e.committer())
		if err != nil {
			return nil, err
		}
		e.liveAdd(lc)
		return lc.Freeze(), nil
	}
	corpus, err := e.Store.Load(name)
	if err != nil {
		return nil, err
	}
	e.Cache.Put(corpus)
	return corpus, nil
}

// liveGet fetches a pinned live corpus.
func (e *Executor) liveGet(name string) *LiveCorpus {
	e.liveMu.Lock()
	defer e.liveMu.Unlock()
	return e.live[name]
}

// committer returns the node's commit pipeline, starting one the first
// time a durable live corpus opens on an executor configured without one.
func (e *Executor) committer() *Committer {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	if e.Commit == nil {
		e.Commit = NewCommitter(DefaultFsyncInterval)
	}
	return e.Commit
}

// liveAdd pins a live corpus (and drops any stale frozen cache entry: the
// registry is now authoritative for the name).
func (e *Executor) liveAdd(lc *LiveCorpus) {
	lc.autoCompactBytes = e.AutoCompactWALBytes
	e.liveMu.Lock()
	if e.live == nil {
		e.live = make(map[string]*LiveCorpus)
	}
	e.live[lc.Name()] = lc
	e.liveMu.Unlock()
	e.Cache.Delete(lc.Name())
}

// LiveInfos summarizes the pinned live corpora (for listings and healthz).
func (e *Executor) LiveInfos() []Info {
	e.liveMu.Lock()
	lcs := make([]*LiveCorpus, 0, len(e.live))
	for _, lc := range e.live {
		lcs = append(lcs, lc)
	}
	e.liveMu.Unlock()
	infos := make([]Info, 0, len(lcs))
	for _, lc := range lcs {
		infos = append(infos, lc.Freeze().Info())
	}
	return infos
}

// Append extends a corpus with text, promoting it to live on its first
// append: with a store, the frozen snapshot becomes a sealed base plus a
// WAL (the record's covering fsync completes before the append is applied
// or acknowledged); without one, the corpus is adopted into appendable
// memory. The corpus keeps answering queries from previously published
// epochs throughout — an append never blocks an in-flight scan. It returns
// the post-append corpus info (new length and epoch).
func (e *Executor) Append(name, text string) (Info, error) {
	return e.AppendMode(name, text, DurabilityFsync)
}

// AppendMode is Append with an explicit durability contract: fsync (acked
// ⇒ durable, the default) or relaxed (acked once queued, fsynced within
// the committer's interval floor).
func (e *Executor) AppendMode(name, text string, mode Durability) (Info, error) {
	lc := e.liveGet(name)
	if lc == nil {
		var err error
		lc, err = e.promote(name)
		if err != nil {
			return Info{}, err
		}
	}
	if _, err := lc.AppendMode(text, mode); err != nil {
		return Info{}, err
	}
	// The acknowledged append may have pushed the WAL past the
	// auto-compaction threshold; the kick is async, so the ack never waits
	// on a compaction.
	lc.maybeAutoCompact()
	return lc.Freeze().Info(), nil
}

// Compact folds a live corpus's WAL into a fresh sealed base snapshot
// (single-file format). Only durable live corpora compact; anything else is
// a validation error.
func (e *Executor) Compact(name string) (Info, error) {
	lc := e.liveGet(name)
	if lc == nil {
		return Info{}, badRequest("corpus %q is not live; only appended-to corpora have a log to compact", name)
	}
	if err := lc.Compact(); err != nil {
		return Info{}, err
	}
	return lc.Freeze().Info(), nil
}

// Recover asks a degraded live corpus to heal immediately, bypassing the
// automatic-recovery backoff — the handler behind
// POST /v1/corpora/{name}/recover. A corpus that is not live is a
// validation error; a healthy live corpus recovers trivially. On success
// the returned info reflects the healed state.
func (e *Executor) Recover(name string) (Info, error) {
	lc := e.liveGet(name)
	if lc == nil {
		return Info{}, badRequest("corpus %q is not live; only live corpora degrade or recover", name)
	}
	if err := lc.Recover(); err != nil {
		return Info{}, err
	}
	return lc.Freeze().Info(), nil
}

// Close fsyncs and closes every pinned live corpus — the graceful-shutdown
// path, run after in-flight scans drain so an acknowledged append is on
// stable storage before the process exits. The first error is returned;
// every corpus is closed regardless.
func (e *Executor) Close() error {
	e.liveMu.Lock()
	lcs := make([]*LiveCorpus, 0, len(e.live))
	for _, lc := range e.live {
		lcs = append(lcs, lc)
	}
	e.liveMu.Unlock()
	var first error
	for _, lc := range lcs {
		if err := lc.Close(); err != nil && first == nil {
			first = fmt.Errorf("service: closing corpus %q: %w", lc.Name(), err)
		}
	}
	// Corpora drain their commit queues in Close, so by here the pipeline
	// has nothing left to cover; stop its scheduler.
	e.commitMu.Lock()
	c := e.Commit
	e.commitMu.Unlock()
	if c != nil {
		c.Stop()
	}
	return first
}

// promote turns a known corpus into a live one, exactly once per name.
func (e *Executor) promote(name string) (*LiveCorpus, error) {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	if lc := e.liveGet(name); lc != nil {
		return lc, nil
	}
	var lc *LiveCorpus
	var err error
	switch {
	case e.Store != nil && e.Store.IsLive(name):
		lc, err = e.Store.OpenLive(name, e.committer())
	case e.Store != nil:
		lc, err = e.Store.UpgradeToLive(name, e.committer())
	default:
		corpus, ok := e.Cache.Get(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		lc, err = NewLiveCorpus(corpus)
	}
	if err != nil {
		return nil, err
	}
	e.liveAdd(lc)
	return lc, nil
}

// AddCorpus builds a corpus from text, persists it when a store is
// configured, and admits it to the cache. It returns the names the
// admission evicted from the cache (they remain on disk and reload on
// demand).
func (e *Executor) AddCorpus(name, text string, spec ModelSpec) (*Corpus, []string, error) {
	if e.Store != nil {
		if err := checkName(name); err != nil {
			return nil, nil, err
		}
	}
	corpus, err := BuildCorpus(name, text, spec)
	if err != nil {
		return nil, nil, err
	}
	// storeMu is held even without a store: it is the corpus-replacement
	// mutex — a concurrent promote (first append) also holds it, so it can
	// never read the old corpus from the cache, build a live version of it,
	// and then clobber the fresh upload's cache entry via liveAdd.
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	// A re-upload over a live corpus retires its history first: live
	// directories outrank plain snapshots at recovery, so the old live
	// state must be gone before the new snapshot lands (a crash in between
	// loses only the not-yet-acknowledged PUT).
	e.retireLive(name)
	if e.Store != nil {
		// Persist before caching — an upload the daemon acknowledged must
		// survive a crash-restart — so a concurrent delete removes either
		// the old corpus or this one, never a torn half.
		if _, err := e.Store.deleteLive(name); err != nil {
			return nil, nil, err
		}
		if err := e.Store.Save(corpus); err != nil {
			return nil, nil, err
		}
	}
	evicted := e.Cache.Put(corpus)
	return corpus, evicted, nil
}

// retireLive unpins and closes a live corpus (removing its on-disk log
// when a store is configured). Callers replacing or deleting the name hold
// storeMu when a store is configured.
func (e *Executor) retireLive(name string) bool {
	e.liveMu.Lock()
	lc := e.live[name]
	delete(e.live, name)
	e.liveMu.Unlock()
	if lc == nil {
		return false
	}
	lc.Close()
	return true
}

// DeleteCorpus removes a corpus — live registry, cache, and (when a store
// is configured) both its snapshot file and its live directory; it reports
// whether anything existed under the name.
func (e *Executor) DeleteCorpus(name string) (bool, error) {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	lived := e.retireLive(name)
	cached := e.Cache.Delete(name)
	if e.Store == nil {
		return lived || cached, nil
	}
	stored, err := e.Store.Delete(name)
	return lived || cached || stored, err
}

// LoadCatalog reopens every persisted corpus and admits it to the cache —
// the startup path that makes a daemon restart transparent to clients.
// Corpora are mmap-served, so the catalog's resident cost is per-corpus
// overhead, not corpus bytes. Unloadable files are reported through logf
// and skipped; the daemon still serves everything else. It first removes
// the temp files of writes a crash cut short, so it runs before the
// executor takes any write.
func (e *Executor) LoadCatalog(logf func(format string, args ...any)) int {
	if e.Store == nil {
		return 0
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := e.Store.sweepTemps(); err != nil {
		logf("corpus catalog: %v", err)
	}
	// Live corpora first: their directory outranks any stale snapshot file
	// a crash mid-upgrade may have left under the same name.
	liveNames := map[string]bool{}
	if names, err := e.Store.ListLive(); err != nil {
		logf("corpus catalog: %v", err)
	} else {
		for _, name := range names {
			liveNames[name] = true
		}
	}
	loaded := 0
	for name := range liveNames {
		lc, err := e.Store.OpenLive(name, e.committer())
		if err != nil {
			logf("corpus catalog: skipping live %q: %v", name, err)
			continue
		}
		e.liveAdd(lc)
		loaded++
	}
	names, err := e.Store.List()
	if err != nil {
		logf("corpus catalog: %v", err)
		return loaded
	}
	for _, name := range names {
		if liveNames[name] {
			continue
		}
		corpus, err := e.Store.Load(name)
		if err != nil {
			logf("corpus catalog: skipping %q: %v", name, err)
			continue
		}
		e.Cache.Put(corpus)
		loaded++
	}
	return loaded
}

// Execute runs a batch request: every query is validated and lowered to the
// library's Query plan, and the whole batch executes over the corpus
// scanner's shared prefix counts (sigsub.Scanner.RunBatch). Per-query failures surface in their result
// slot; only request-level problems return an error.
func (e *Executor) Execute(req BatchRequest) (BatchResponse, error) {
	return e.ExecuteContext(context.Background(), req)
}

// ExecuteContext is Execute with cooperative cancellation: the engine polls
// ctx at chain-cover-start granularity, so a client disconnect or deadline
// stops the scan within one preemption quantum per worker instead of burning
// the rest of the traversal. On cancellation the context's error is returned
// as the request-level error (partial results are discarded).
func (e *Executor) ExecuteContext(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	if len(req.Queries) == 0 {
		return BatchResponse{}, badRequest("request carries no queries")
	}
	if len(req.Queries) > e.maxQueries() {
		return BatchResponse{}, badRequest("%d queries exceed the %d per-batch limit", len(req.Queries), e.maxQueries())
	}
	if req.Workers < 0 || req.Workers > e.maxWorkers() {
		return BatchResponse{}, badRequest("workers must lie in [0, %d], got %d", e.maxWorkers(), req.Workers)
	}
	corpus, err := e.resolve(req.Corpus, req.Text, req.Model)
	if err != nil {
		return BatchResponse{}, err
	}

	plans := make([]sigsub.Query, len(req.Queries))
	planErrs := make([]error, len(req.Queries))
	for i, q := range req.Queries {
		plans[i], planErrs[i] = q.Plan()
		if planErrs[i] != nil {
			// Keep the slot; a guaranteed-invalid kind keeps indices aligned
			// and the clearer wire-level error wins below.
			plans[i] = sigsub.Query{Kind: sigsub.QueryKind(-1)}
		}
	}
	workers := req.Workers
	if workers == 0 {
		workers = 1
	}
	answers, err := corpus.Scanner.RunBatchContext(ctx, plans, sigsub.WithWorkers(workers))
	if err != nil {
		return BatchResponse{}, err
	}

	resp := BatchResponse{Corpus: corpus.Info(), Results: make([]QueryResult, len(answers))}
	for i, a := range answers {
		qr := QueryResult{Stats: FromStats(a.Stats), Results: make([]Result, 0, len(a.Results))}
		switch {
		case planErrs[i] != nil:
			qr.Error = planErrs[i].Error()
		case a.Err != nil:
			qr.Error = a.Err.Error()
		}
		if planErrs[i] == nil {
			for _, r := range a.Results {
				text := ""
				if req.IncludeText {
					text = corpus.Snippet(r.Start, r.End)
				}
				qr.Results = append(qr.Results, FromResult(r, text))
			}
		}
		resp.Results[i] = qr
	}
	return resp, nil
}
