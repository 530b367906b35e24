// Command mssd is a long-lived HTTP/JSON daemon serving chi-square
// substring-significance queries. It caches corpora — each upload pays the
// O(n·k) encode + prefix-count cost once — and answers single or batched
// queries against them; a batch runs the queries on one range and length
// floor as one chain-cover pass over the corpus's prefix counts.
//
// Endpoints:
//
//	GET    /v1/healthz                  liveness probe (+ per-corpus epochs, degraded corpora)
//	GET    /v1/corpora                  list cached + live corpora
//	PUT    /v1/corpora/{name}           upload {"text": "...", "model": {"mle": true}}
//	POST   /v1/corpora/{name}/append    append {"text": "..."} to a live corpus
//	POST   /v1/corpora/{name}/compact   fold a live corpus's log into a sealed base
//	POST   /v1/corpora/{name}/recover   heal a degraded live corpus now (skip the backoff)
//	POST   /v1/corpora/{name}/promote   seal a replica into a writable primary (failover)
//	DELETE /v1/corpora/{name}           evict a corpus
//	POST   /v1/query                    one query: {"corpus": "x", "query": {"kind": "mss"}}
//	POST   /v1/batch                    many queries: {"corpus": "x", "queries": [...]}
//	GET    /v1/shards                   this node's shard catalog (segments + full corpora)
//	POST   /v1/shards/exec              execute one shard subplan (coordinator-internal)
//
// A corpus cut into suffix segments with `mss -segments N` can be served by
// N daemons (each started with -shard-of i/N on its own -data-dir); a
// coordinator daemon started with -peers scatters corpus-named queries
// across their catalogs and merges the partials deterministically — the
// answer is bit-identical to one node holding the whole corpus, or a typed
// 503 partial-refusal when a shard stays unreachable after retries. See the
// README's "Sharded scans & cluster topology" section.
//
// Durable nodes also serve the replication endpoints followers tail
// (GET /v1/replica/corpora, .../{name}/snapshot, .../{name}/wal); a daemon
// started with -replicate-from mirrors the primary's live corpora as
// read-only replicas (local writes return 409 until promote) and reports
// per-corpus replication lag in healthz. See the README's "Replication &
// failover" section.
//
// Query objects take {"kind": "mss"|"topt"|"threshold"|"disjoint"} plus the
// knobs t, alpha, min_length, lo, hi, limit. Requests may carry inline
// "text" instead of a corpus name for one-shot scans. See the README's
// daemon section for curl examples.
//
// With -data-dir the daemon is durable: uploads persist as checksummed
// snapshot files, a restart reloads the whole catalog (mmap-served, so
// startup cost is per-corpus overhead rather than corpus bytes), cache
// misses reopen from disk instead of returning 404, and DELETE removes the
// file. Without it the daemon is purely in-memory, as before.
//
// The first append to a corpus makes it LIVE: with -data-dir its snapshot
// becomes a sealed base plus a write-ahead log (the appended batch is
// fsynced to the log before the append is acknowledged; a kill-and-restart
// replays the full appended history bit-identically), without -data-dir it
// becomes appendable in memory. Appends are serialized per corpus but never
// block in-flight scans — every query runs on the immutable epoch published
// by the last completed append; corpus info reports the epoch it answered
// from.
//
// Durable appends ride a group-commit pipeline: records are framed into an
// in-memory group buffer, and one write + one fsync covers every record
// that arrived while the previous fsync was in flight, so N concurrent
// appenders cost ~1 fsync per batch instead of N. By default an append
// returns only after its covering fsync. A request may opt into
// {"durability": "relaxed"} to be acknowledged on enqueue instead, with the
// fsync following within -fsync-interval: 10-100x cheaper under load,
// losing at most that unfsynced window on a crash. healthz and
// corpus info report the pipeline's counters (appends per fsync, max batch,
// max ticket wait, pending, relaxed records lost).
//
// Fault tolerance (see the README's operations section): scans carry the
// request context, so a client disconnect or the -scan-timeout deadline
// stops the engine within one chain-cover row per worker; at most
// -max-scans scans run concurrently, with excess requests queueing up to
// -scan-queue-wait before 429 + Retry-After; a live corpus whose log fails
// degrades (reads keep serving, appends return 503 + Retry-After) and heals
// itself in process, or immediately via the recover endpoint; SIGINT/SIGTERM
// drains in-flight scans, then fsyncs and closes every live-corpus log.
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unicode/utf8"

	"repro/internal/replica"
	"repro/internal/service"
)

func main() {
	fs := flag.NewFlagSet("mssd", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8765", "listen address")
		cacheBytes  = fs.Int64("cache-bytes", service.DefaultCacheBytes, "corpus cache byte budget (LRU eviction; counts index + symbols)")
		dataDir     = fs.String("data-dir", "", "snapshot directory for durable corpora: uploads persist, restarts reload the catalog, cache misses reopen from disk (mmap-served); empty keeps the daemon purely in-memory")
		maxQueries  = fs.Int("max-queries", 64, "maximum queries per batch request")
		maxWorkers  = fs.Int("max-workers", 16, "maximum engine workers a request may ask for")
		maxText     = fs.Int("max-text", 1<<20, "maximum corpus/inline text bytes")
		scanTimeout = fs.Duration("scan-timeout", defaultScanTimeout, "per-request scan deadline: the engine stops cooperatively (one chain-cover row per worker) and the request gets 503; 0 disables")
		maxScans    = fs.Int("max-scans", 0, "maximum concurrent scan requests (query/batch); 0 means twice the CPU count")
		queueWait   = fs.Duration("scan-queue-wait", defaultQueueWait, "how long a scan request may wait for a slot before 429 + Retry-After")
		readTimeout = fs.Duration("read-timeout", defaultReadTimeout, "maximum time to read a request (headers + body); uploads up to -max-text must fit")
		writeTO     = fs.Duration("write-timeout", 0, "maximum time to write a response; 0 means -scan-timeout plus slack (a response can only start after its scan)")
		idleTimeout = fs.Duration("idle-timeout", defaultIdleTimeout, "how long an idle keep-alive connection is held open")
		pprofOn     = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (profiling; keep off in production)")
		fsyncEvery  = fs.Duration("fsync-interval", service.DefaultFsyncInterval, "group-commit idle flush floor: the longest a relaxed-durability append waits for its covering fsync (also the relaxed-mode crash-loss window)")
		replFrom    = fs.String("replicate-from", "", "run as a follower of the primary at this base URL (e.g. http://primary:8765): its live corpora are mirrored here as read-only replicas via WAL shipping; requires -data-dir")
		autoCompact = fs.Int64("auto-compact-wal-bytes", 0, "auto-compact a live corpus in the background once its WAL passes this many bytes, bounding restart-replay time and log disk; 0 keeps compaction manual (the compact endpoint)")
		shardOf     = fs.String("shard-of", "", "declare this node a segment server, e.g. 1/3 (segment index/count): startup fails if any loaded segment corpus disagrees, and healthz reports the claim")
		peers       = fs.String("peers", "", "comma-separated base URLs of segment-serving peers (e.g. http://a:8765,http://b:8765): corpus-named queries scatter across their shard catalogs and merge deterministically, falling back to local corpora the peers don't advertise")
		advertise   = fs.String("advertise", "", "externally reachable base URL of this node, reported in healthz so operators can point followers (and failover tooling) at it")
		retryJitter = fs.Duration("retry-jitter", 2*time.Second, "random extra delay added to every Retry-After the daemon emits (429/503/degraded), spreading a shed herd's retries over the window; 0 disables")
	)
	fs.Parse(os.Args[1:])

	cfg := serverConfig{
		cacheBytes:    *cacheBytes,
		dataDir:       *dataDir,
		maxQueries:    *maxQueries,
		maxWorkers:    *maxWorkers,
		maxText:       *maxText,
		scanTimeout:   *scanTimeout,
		maxScans:      *maxScans,
		queueWait:     *queueWait,
		pprof:         *pprofOn,
		fsyncInterval: *fsyncEvery,
		replicateFrom: *replFrom,
		advertise:     *advertise,
		retryJitter:   *retryJitter,
		shardOf:       *shardOf,
		peers:         splitPeers(*peers),
		autoCompact:   *autoCompact,
	}
	srv, err := newServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	writeTimeout := *writeTO
	if writeTimeout <= 0 {
		// The response body is written after the scan finishes, so the write
		// deadline must outlast the scan deadline (plus slack for a large
		// result set over a slow link). A disabled scan timeout disables it.
		if *scanTimeout > 0 {
			writeTimeout = *scanTimeout + 15*time.Second
		}
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	replDone := make(chan struct{})
	if srv.mgr != nil {
		log.Printf("mssd replicating from %s", cfg.replicateFrom)
		go func() {
			defer close(replDone)
			srv.mgr.Run(ctx)
		}()
	} else {
		close(replDone)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Drain in-flight scans before exiting: every scan ends within
		// -scan-timeout by construction, so the drain deadline matches it
		// (plus slack); with the timeout disabled, fall back to a minute.
		drain := *scanTimeout + 5*time.Second
		if *scanTimeout <= 0 {
			drain = time.Minute
		}
		log.Printf("mssd draining in-flight requests (up to %s)", drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("mssd shutdown: %v", err)
		}
	}()

	log.Printf("mssd listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
	// Replication sessions stop with the signal context; wait for them so no
	// frame is mid-apply when the logs close.
	<-replDone
	// With the listener closed and scans drained, seal the durable state:
	// fsync and close every live-corpus log.
	if err := srv.exec.Close(); err != nil {
		log.Printf("mssd closing live corpora: %v", err)
	}
	log.Print("mssd stopped")
}

// Scan-latency-aware timeout defaults: a worst-case exact scan on a
// maximum-size corpus runs well under a minute on one core, so 60s bounds
// scans without clipping legitimate work; reads must admit a -max-text
// upload over a slow link; idle keep-alives are cheap.
const (
	defaultScanTimeout = 60 * time.Second
	defaultQueueWait   = 2 * time.Second
	defaultReadTimeout = 30 * time.Second
	defaultIdleTimeout = 120 * time.Second
)

// serverConfig carries the daemon's limits.
type serverConfig struct {
	cacheBytes int64
	dataDir    string
	maxQueries int
	maxWorkers int
	maxText    int
	// scanTimeout bounds each scan request (0: no deadline); maxScans bounds
	// concurrent scans (0: twice the CPU count); queueWait bounds how long an
	// excess scan waits for a slot before 429 (0: default).
	scanTimeout time.Duration
	maxScans    int
	queueWait   time.Duration
	pprof       bool
	// fsyncInterval is the group-commit pipeline's idle flush floor (0: the
	// default).
	fsyncInterval time.Duration
	// replicateFrom, when set, runs the daemon as a follower of the primary
	// at that base URL (requires a data dir); advertise is this node's own
	// externally reachable URL, echoed in healthz; retryJitter spreads every
	// Retry-After the daemon emits over a random window.
	replicateFrom string
	advertise     string
	retryJitter   time.Duration
	// shardOf declares this node a segment server ("index/count"); peers are
	// the base URLs the scatter coordinator fans corpus queries out to.
	shardOf string
	peers   []string
	// autoCompact triggers background live-corpus compaction past this WAL
	// size (0: off).
	autoCompact int64
}

// splitPeers parses the -peers flag into trimmed, non-empty base URLs.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// server routes HTTP requests onto the service executor.
type server struct {
	mux  *http.ServeMux
	exec *service.Executor
	// scans is the admission semaphore for query/batch requests: a slot per
	// concurrently running scan, so a burst degrades into brief queueing and
	// clean 429s instead of a thundering herd of goroutines each spawning
	// engine workers.
	scans       chan struct{}
	scanTimeout time.Duration
	queueWait   time.Duration
	// retryJitter is the random window added to every Retry-After header.
	retryJitter time.Duration
	// advertise is this node's externally reachable URL (healthz only).
	advertise string
	// replicateFrom and mgr are set in follower mode: the manager mirrors
	// the primary's live corpora into this node's executor.
	replicateFrom string
	mgr           *replica.Manager
	// shardOf is this node's declared segment position ("index/count", "" for
	// unsharded nodes); scatter is the coordinator fanning corpus queries out
	// to -peers (nil when no peers are configured).
	shardOf string
	scatter *service.Scatter
}

// newServer wires the routes; it is the unit the tests drive via httptest.
func newServer(cfg serverConfig) (*server, error) {
	var store *service.Store
	if cfg.dataDir != "" {
		var err error
		store, err = service.NewStore(cfg.dataDir)
		if err != nil {
			return nil, err
		}
	}
	maxScans := cfg.maxScans
	if maxScans <= 0 {
		maxScans = 2 * runtime.GOMAXPROCS(0)
	}
	queueWait := cfg.queueWait
	if queueWait <= 0 {
		queueWait = defaultQueueWait
	}
	var committer *service.Committer
	if store != nil {
		// Memory-only daemons have no WAL to batch; the pipeline only runs
		// when there is a log to fsync.
		committer = service.NewCommitter(cfg.fsyncInterval)
	}
	s := &server{
		mux: http.NewServeMux(),
		exec: &service.Executor{
			Cache:               service.NewCache(cfg.cacheBytes),
			Store:               store,
			Commit:              committer,
			AutoCompactWALBytes: cfg.autoCompact,
			MaxQueries:          cfg.maxQueries,
			MaxWorkers:          cfg.maxWorkers,
			MaxTextLen:          cfg.maxText,
		},
		scans:         make(chan struct{}, maxScans),
		scanTimeout:   cfg.scanTimeout,
		queueWait:     queueWait,
		retryJitter:   cfg.retryJitter,
		advertise:     cfg.advertise,
		replicateFrom: cfg.replicateFrom,
		shardOf:       cfg.shardOf,
	}
	if len(cfg.peers) > 0 {
		s.scatter = &service.Scatter{
			Peers:   cfg.peers,
			Timeout: cfg.scanTimeout,
			Retries: 1,
		}
	}
	if cfg.replicateFrom != "" {
		if store == nil {
			return nil, errors.New("mssd: -replicate-from requires -data-dir (a follower holds durable replicas)")
		}
		s.mgr = &replica.Manager{
			Exec: s.exec,
			Src:  &replica.HTTPSource{Base: strings.TrimRight(cfg.replicateFrom, "/")},
		}
	}
	if cfg.pprof {
		// Opt-in profiling endpoints; see the README's profiling section.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/corpora", s.handleListCorpora)
	s.mux.HandleFunc("PUT /v1/corpora/{name}", s.handlePutCorpus)
	s.mux.HandleFunc("POST /v1/corpora/{name}/append", s.handleAppendCorpus)
	s.mux.HandleFunc("POST /v1/corpora/{name}/compact", s.handleCompactCorpus)
	s.mux.HandleFunc("POST /v1/corpora/{name}/recover", s.handleRecoverCorpus)
	s.mux.HandleFunc("POST /v1/corpora/{name}/promote", s.handlePromoteCorpus)
	s.mux.HandleFunc("DELETE /v1/corpora/{name}", s.handleDeleteCorpus)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	// Every node serves its shard catalog and executes subplans — full
	// corpora advertise as single-shard entries, so a coordinator can mix
	// sharded and unsharded peers.
	(&service.ShardAPI{
		Exec:    s.exec,
		Timeout: cfg.scanTimeout,
		Gate:    s.acquireScanCtx,
	}).Routes(s.mux)
	if store != nil {
		// Any durable node can serve as a replication primary: mount the
		// WAL-shipping endpoints (corpus listing, base snapshots, frame
		// streams) that followers tail.
		(&replica.Server{Exec: s.exec}).Routes(s.mux)
		// Replay the persisted catalog so a restart is transparent to
		// clients: every previously uploaded corpus answers queries again,
		// mmap-served, with no re-upload.
		loaded := s.exec.LoadCatalog(log.Printf)
		log.Printf("mssd loaded %d persisted corpora from %s", loaded, store.Dir())
	}
	if cfg.shardOf != "" {
		if err := s.checkShardOf(cfg.shardOf); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// checkShardOf validates the -shard-of claim ("index/count") against every
// segment corpus this node loaded: serving a segment from the wrong
// position would translate shard coordinates against the wrong cut, so the
// daemon refuses to start instead.
func (s *server) checkShardOf(claim string) error {
	var idx, count int
	if n, err := fmt.Sscanf(claim, "%d/%d", &idx, &count); n != 2 || err != nil {
		return fmt.Errorf("mssd: -shard-of must look like 1/3 (segment index/count), got %q", claim)
	}
	if count < 1 || idx < 0 || idx >= count {
		return fmt.Errorf("mssd: -shard-of %q is out of range (need 0 <= index < count)", claim)
	}
	for _, si := range s.exec.ShardInfos() {
		if si.Count == 1 {
			continue // full corpora serve from any position
		}
		if si.Index != idx || si.Count != count {
			return fmt.Errorf("mssd: -shard-of %s but corpus %q is segment %d of %d", claim, si.Corpus, si.Index, si.Count)
		}
	}
	return nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON encodes v with the given status. It encodes into a buffer
// before writing the header, so a value that cannot be encoded (a
// non-finite float, say) gets a typed 500 with a body rather than the
// status already sent and an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		buf.Reset()
		json.NewEncoder(&buf).Encode(errorBody{Error: fmt.Sprintf("encoding the response: %v", err)})
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// errOverloaded reports an admission-queue timeout: every scan slot stayed
// busy for the whole queue wait.
var errOverloaded = errors.New("mssd: all scan slots busy")

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// rounded up, at least 1 — clients treat 0 as "immediately", which defeats
// the point of shedding).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// retryAfter renders base plus a random slice of the jitter window. Every
// shed client gets its own delay, so a burst that was rejected together does
// not come back together and re-create the overload it was shed for.
func (s *server) retryAfter(base time.Duration) string {
	if s.retryJitter > 0 {
		base += rand.N(s.retryJitter)
	}
	return retryAfterSeconds(base)
}

// writeError maps service errors onto HTTP statuses.
func (s *server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, service.ErrNotFound):
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
	case service.IsValidation(err):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	case errors.Is(err, errOverloaded):
		w.Header().Set("Retry-After", s.retryAfter(time.Second))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "server is at its concurrent-scan limit; retry shortly"})
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", s.retryAfter(time.Second))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "scan exceeded the server's deadline; narrow the query or retry when the server is less loaded"})
	default:
		if su, ok := service.IsShardUnavailable(err); ok {
			// The typed partial-refusal: some shard stayed unreachable after
			// retries, so the request is refused whole rather than answered
			// from a subset. The failed shard list rides the body so clients
			// (and the cluster smoke test) see which legs died.
			w.Header().Set("Retry-After", s.retryAfter(time.Second))
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error":         su.Error(),
				"shards_total":  su.Total,
				"shards_failed": su.Failed,
			})
			return
		}
		if _, ok := service.IsReadOnly(err); ok {
			// A replica refuses local writes until promoted; 409 tells the
			// client this is a topology fact, not a transient failure.
			writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
			return
		}
		if u, ok := service.IsUnavailable(err); ok {
			w.Header().Set("Retry-After", s.retryAfter(u.RetryAfter))
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// decodeBody strictly decodes a JSON request body into v, a pointer to a
// request struct whose "text" member is *text. The body budget accounts
// for JSON escaping of a maximum-size corpus text (up to 6 wire bytes per
// text byte), so every upload the text limit permits decodes.
// MaxBytesReader (unlike a plain LimitReader) also closes the connection on
// overrun, so an oversized upload cannot keep streaming into a dead request.
// The body is read in full before it is decoded: a body over the budget is
// a 413 even when its first JSON value ends early, and the read buffer
// grows with the bytes received, never with a declared Content-Length.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any, text *string) bool {
	body := http.MaxBytesReader(w, r.Body, s.exec.BodyLimit())
	defer body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(body)
	if err == nil {
		err = decodeJSON(buf.Bytes(), v, text)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
				Error: fmt.Sprintf("request body exceeds the %d byte limit", tooLarge.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return false
	}
	return true
}

// decodeJSON decodes data into v exactly as a json.Decoder with
// DisallowUnknownFields does — first JSON value only, later members
// overriding earlier ones, trailing bytes ignored — with one shortcut: a
// body that opens with a text member whose literal needs no unescaping
// (leadingText) has the literal's bytes stored to *text directly, and the
// decoder sees only the rest of the object, reopened with "{". Bulk
// uploads and appends are exactly {"text":"…"}, so the decoder never walks
// their text byte by byte.
func decodeJSON(data []byte, v any, text *string) error {
	if lit, rest, ok := leadingText(data); ok {
		*text = string(lit)
		data = append([]byte{'{'}, rest...)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// leadingText splits a body that opens with {"text":" into the string
// literal's contents and the object's remaining members. ok is false — the
// body needs the full decoder — unless the literal decodes to its own
// bytes (no backslash, no byte below 0x20, valid UTF-8: the cases
// encoding/json unquotes, rejects or replaces with U+FFFD) and is followed
// by "}" or by "," and a member name's opening quote. rest begins at that
// "}" or just after that ",", so "{" + rest is the object minus its text
// member, followed by the body's trailing bytes.
func leadingText(data []byte) (lit, rest []byte, ok bool) {
	const open = `{"text":"`
	if !bytes.HasPrefix(data, []byte(open)) {
		return nil, nil, false
	}
	lit = data[len(open):]
	q := bytes.IndexByte(lit, '"')
	if q < 0 || q+1 == len(lit) {
		return nil, nil, false
	}
	lit, rest = lit[:q], lit[q+1:]
	if bytes.IndexByte(lit, '\\') >= 0 || hasControl(lit) || !utf8.Valid(lit) {
		return nil, nil, false
	}
	switch {
	case rest[0] == '}':
	case rest[0] == ',' && len(rest) > 1 && rest[1] == '"':
		rest = rest[1:]
	default:
		return nil, nil, false
	}
	return lit, rest, true
}

// hasControl reports whether b holds a byte below 0x20, eight bytes at a
// time: subtracting 0x20 from each byte of a word borrows into the top bit
// of some byte that was below 0x20 (and had that bit clear) exactly when
// the word holds one.
func hasControl(b []byte) bool {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	for ; len(b) >= 8; b = b[8:] {
		x := binary.LittleEndian.Uint64(b)
		if (x-0x20*ones)&^x&tops != 0 {
			return true
		}
	}
	for _, c := range b {
		if c < 0x20 {
			return true
		}
	}
	return false
}

// acquireScan claims a slot in the scan semaphore, waiting up to queueWait.
// The returned release must be called when the scan finishes. It fails with
// errOverloaded on queue timeout and the request's cancellation error if the
// client gives up while queued.
func (s *server) acquireScan(r *http.Request) (release func(), err error) {
	return s.acquireScanCtx(r.Context())
}

// acquireScanCtx is acquireScan on a bare context — the form the shard-exec
// API gates on.
func (s *server) acquireScanCtx(ctx context.Context) (release func(), err error) {
	select {
	case s.scans <- struct{}{}:
		return func() { <-s.scans }, nil
	default:
	}
	timer := time.NewTimer(s.queueWait)
	defer timer.Stop()
	select {
	case s.scans <- struct{}{}:
		return func() { <-s.scans }, nil
	case <-timer.C:
		return nil, errOverloaded
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// scanContext derives the context a scan runs under: the request context
// (fires on client disconnect) bounded by the scan timeout.
func (s *server) scanContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.scanTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.scanTimeout)
}

// runScan is the shared admission + cancellation wrapper of the query and
// batch handlers.
func (s *server) runScan(w http.ResponseWriter, r *http.Request, req service.BatchRequest) (service.BatchResponse, bool) {
	release, err := s.acquireScan(r)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// The client hung up while queued; nobody reads a response.
			return service.BatchResponse{}, false
		}
		s.writeError(w, err)
		return service.BatchResponse{}, false
	}
	defer release()
	ctx, cancel := s.scanContext(r)
	defer cancel()
	resp, err := s.execute(ctx, req)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return service.BatchResponse{}, false
		}
		s.writeError(w, err)
		return service.BatchResponse{}, false
	}
	return resp, true
}

// execute routes a batch: corpus-named requests on a coordinator node
// scatter across the peers' shard catalogs; corpora no peer advertises —
// and inline-text or snippet-bearing requests, which need local symbols —
// execute locally as before.
func (s *server) execute(ctx context.Context, req service.BatchRequest) (service.BatchResponse, error) {
	if s.scatter != nil && req.Corpus != "" && req.Text == "" && !req.IncludeText {
		resp, err := s.scatter.Execute(ctx, req)
		if err == nil {
			return resp, nil
		}
		if !errors.Is(err, service.ErrNotFound) {
			return service.BatchResponse{}, err
		}
		// The cluster doesn't know this corpus; fall through to whatever this
		// node holds (which may also be nothing — then the local 404 stands).
	}
	return s.exec.ExecuteContext(ctx, req)
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	live := s.exec.LiveInfos()
	// Per-corpus append epochs: what an operator (or the append smoke test)
	// watches to confirm a restart resumed the full appended history.
	epochs := make(map[string]uint64, len(live))
	var liveBytes int64
	// Degraded live corpora still serve reads but refuse appends until
	// recovery; surface them so operators see the read-only mode without
	// waiting for a failed append.
	degraded := map[string]*service.DegradedInfo{}
	for _, info := range live {
		epochs[info.Name] = info.Epoch
		liveBytes += info.Bytes
		if info.Degraded != nil {
			degraded[info.Name] = info.Degraded
		}
	}
	status := "ok"
	if len(degraded) > 0 {
		status = "degraded"
	}
	body := map[string]any{
		"status":  status,
		"corpora": s.exec.Cache.Len() + len(live),
		// cache_bytes is the resident heap charge; mapped_bytes the
		// file-backed footprint of mmap-served corpora (kernel-paged, not
		// budgeted). Live corpora are pinned outside the LRU budget; their
		// resident bytes and epochs are reported separately.
		"cache_bytes":  s.exec.Cache.UsedBytes(),
		"cache_max":    s.exec.Cache.MaxBytes(),
		"mapped_bytes": s.exec.Cache.MappedBytes(),
		"live_corpora": len(live),
		"live_bytes":   liveBytes,
		"epochs":       epochs,
	}
	if len(degraded) > 0 {
		body["degraded"] = degraded
	}
	if s.exec.Store != nil {
		body["data_dir"] = s.exec.Store.Dir()
	}
	if s.advertise != "" {
		body["advertise"] = s.advertise
	}
	if s.mgr != nil {
		// Follower mode: per-corpus replication state — the durable cursor,
		// the primary's last advertised position, and the byte lag between
		// them (what an operator alerts on before promoting).
		body["replication"] = map[string]any{
			"source":  s.replicateFrom,
			"corpora": s.mgr.Status(),
		}
	}
	if shards := s.exec.ShardInfos(); len(shards) > 0 {
		// The node's shard catalog: what /v1/shards advertises, inlined so a
		// single healthz poll shows both liveness and topology.
		body["shards"] = shards
	}
	if s.shardOf != "" {
		body["shard_of"] = s.shardOf
	}
	if s.scatter != nil {
		// Coordinator counters: scattered queries, shard calls (incl.
		// retries), refused (partial-refusal) requests, cumulative merge time.
		body["scatter"] = map[string]any{
			"peers": s.scatter.Peers,
			"stats": s.scatter.Stats(),
		}
	}
	if s.exec.Commit != nil {
		// Node-wide commit-pipeline counters: the realized fsync
		// amortization across every live corpus (per-corpus counters ride
		// the corpora listing).
		body["commit"] = s.exec.Commit.Stats()
		body["fsync_interval_ns"] = s.exec.Commit.Interval().Nanoseconds()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleListCorpora(w http.ResponseWriter, _ *http.Request) {
	infos := s.exec.Cache.List()
	infos = append(infos, s.exec.LiveInfos()...)
	writeJSON(w, http.StatusOK, map[string]any{"corpora": infos})
}

// putCorpusRequest is the corpus upload body.
type putCorpusRequest struct {
	Text  string            `json:"text"`
	Model service.ModelSpec `json:"model,omitempty"`
}

func (s *server) handlePutCorpus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if strings.TrimSpace(name) == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty corpus name"})
		return
	}
	var req putCorpusRequest
	if !s.decodeBody(w, r, &req, &req.Text) {
		return
	}
	if len(req.Text) > s.exec.TextLimit() {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("corpus text of %d bytes exceeds the %d byte limit", len(req.Text), s.exec.TextLimit())})
		return
	}
	corpus, evicted, err := s.exec.AddCorpus(name, req.Text, req.Model)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := map[string]any{"corpus": corpus.Info()}
	if len(evicted) > 0 {
		resp["evicted"] = evicted
	}
	writeJSON(w, http.StatusOK, resp)
}

// appendCorpusRequest is the append body: text encoded with the corpus's
// codec (its alphabet is fixed at upload time), plus an optional
// durability mode — "fsync" (default: acknowledged after the covering
// fsync) or "relaxed" (acknowledged on the log write; the group-commit
// pipeline fsyncs within -fsync-interval).
type appendCorpusRequest struct {
	Text       string `json:"text"`
	Durability string `json:"durability,omitempty"`
}

func (s *server) handleAppendCorpus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req appendCorpusRequest
	if !s.decodeBody(w, r, &req, &req.Text) {
		return
	}
	if len(req.Text) > s.exec.TextLimit() {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("append text of %d bytes exceeds the %d byte limit", len(req.Text), s.exec.TextLimit())})
		return
	}
	mode, err := service.ParseDurability(req.Durability)
	if err != nil {
		s.writeError(w, err)
		return
	}
	info, err := s.exec.AppendMode(name, req.Text, mode)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"corpus": info})
}

func (s *server) handleCompactCorpus(w http.ResponseWriter, r *http.Request) {
	info, err := s.exec.Compact(r.PathValue("name"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"corpus": info})
}

func (s *server) handleRecoverCorpus(w http.ResponseWriter, r *http.Request) {
	info, err := s.exec.Recover(r.PathValue("name"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"corpus": info})
}

// handlePromoteCorpus seals a replica into a writable primary: the replica
// marker is cleared durably and the corpus compacts to a new generation,
// fencing the old primary's frames. This is the failover step — run it on
// the follower once the old primary is confirmed dead (see the README's
// promote runbook; promoting while the old primary still takes writes
// forks the two histories).
func (s *server) handlePromoteCorpus(w http.ResponseWriter, r *http.Request) {
	info, err := s.exec.Promote(r.PathValue("name"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"corpus": info})
}

func (s *server) handleDeleteCorpus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	deleted, err := s.exec.DeleteCorpus(name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if !deleted {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("corpus %q not found", name)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req service.SingleRequest
	if !s.decodeBody(w, r, &req, &req.Text) {
		return
	}
	resp, ok := s.runScan(w, r, req.Batch())
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"corpus": resp.Corpus, "result": resp.Results[0]})
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req service.BatchRequest
	if !s.decodeBody(w, r, &req, &req.Text) {
		return
	}
	resp, ok := s.runScan(w, r, req)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
