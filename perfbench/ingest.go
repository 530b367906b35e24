package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	sigsub "repro"
	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/counts"
	"repro/internal/service"
	"repro/internal/snapshot"
)

const (
	ingestCorpus = "events"
	ingestN0     = 200_000 // symbols uploaded before the first append
	ingestBatch  = 64      // symbols per append
	ingestRate   = 200     // appends per second, open loop
	ingestTail   = 4096    // read window: the tail ending at the latest acked length
	// ingestCompactBytes is the daemon's -auto-compact-wal-bytes: about 400
	// appends of WAL, so a 10 s run compacts four to five times.
	ingestCompactBytes = 32 << 10
	// ingestMaxDrift bounds how much later than at its start the open-loop
	// generator may run at the end of the window: more means the offered
	// rate exceeds what the daemon sustains, and the run fails.
	ingestMaxDrift = 50 * time.Millisecond
)

// ingestFlags are the daemon flags of the ingest workload: durable corpus,
// default group commit, fsync durability per append, low auto-compaction.
func ingestFlags(dir string) []string {
	return []string{"-data-dir", dir, "-auto-compact-wal-bytes", fmt.Sprint(ingestCompactBytes)}
}

// appendReply is the append endpoint's response.
type appendReply struct {
	Corpus service.Info `json:"corpus"`
}

// commitStats reads the healthz commit block.
func commitStats(c *http.Client, base string) (service.CommitStats, error) {
	var h struct {
		Commit service.CommitStats `json:"commit"`
	}
	err := getJSON(c, base+"/v1/healthz", &h)
	return h.Commit, err
}

// corpusInfo reads one corpus's entry of GET /v1/corpora.
func corpusInfo(c *http.Client, base, name string) (service.Info, error) {
	var l struct {
		Corpora []service.Info `json:"corpora"`
	}
	if err := getJSON(c, base+"/v1/corpora", &l); err != nil {
		return service.Info{}, err
	}
	for _, info := range l.Corpora {
		if info.Name == name {
			return info, nil
		}
	}
	return service.Info{}, fmt.Errorf("corpus %q not listed", name)
}

// ingestMirror is the traced run's in-process replay of the write path: a
// durable executor fed the same appends in the same order, plus the
// library corpus and count appender under it, each fed the same batches.
type ingestMirror struct {
	r      *run
	exec   *service.Executor
	corpus *sigsub.Corpus
	app    *counts.Appender
	codec  *sigsub.TextCodec
	syms   atomic.Int64 // symbols applied to exec so far
	gen    atomic.Int64 // daemon generations observed; the replay compacts to match
	feed   chan mirrorItem
	done   chan struct{}
}

// mirrorItem is one append for the mirror; untraced items (the untraced
// half's appends, applied in one batch at the midpoint) record no spans.
type mirrorItem struct {
	text   string
	traced bool
}

func newIngestMirror(r *run, initial string, appends int) (*ingestMirror, error) {
	store, err := service.NewStore(filepath.Join(r.dir, "mirror"))
	if err != nil {
		return nil, err
	}
	exec := &service.Executor{Cache: service.NewCache(service.DefaultCacheBytes), Store: store,
		Commit: service.NewCommitter(service.DefaultFsyncInterval)}
	start := time.Now()
	c, _, err := exec.AddCorpus(ingestCorpus, initial, service.ModelSpec{})
	if err != nil {
		return nil, err
	}
	r.tr.add(r.tr.op(), 0, "service.upload", start, time.Now())
	lib, err := sigsub.NewCorpusFromScanner(c.Scanner)
	if err != nil {
		return nil, err
	}
	syms, err := c.Codec.Encode(initial)
	if err != nil {
		return nil, err
	}
	app, err := counts.NewAppender(c.Model.K(), 0)
	if err != nil {
		return nil, err
	}
	if err := app.Append(syms); err != nil {
		return nil, err
	}
	m := &ingestMirror{r: r, exec: exec, corpus: lib, app: app, codec: c.Codec,
		// Sized to the appends of one window, so the open-loop sender never
		// blocks on the replay.
		feed: make(chan mirrorItem, appends), done: make(chan struct{})}
	m.syms.Store(int64(len(syms)))
	go m.run()
	return m, nil
}

// run replays appends in order until the feed closes.
func (m *ingestMirror) run() {
	defer close(m.done)
	tr := m.r.tr
	compacted := int64(0)
	for it := range m.feed {
		text := it.text
		if !it.traced {
			if _, err := m.exec.AppendMode(ingestCorpus, text, service.DurabilityFsync); err != nil {
				m.r.mismatch("mirror append: %v", err)
			}
			syms, _ := m.codec.Encode(text)
			m.corpus.Append(syms)
			m.app.Append(syms)
			m.syms.Add(int64(len(syms)))
			continue
		}
		id := tr.op()
		var ap int64
		m.r.goDelta(func() {
			ap = tr.timed(id, 0, "service.append", func() {
				if _, err := m.exec.AppendMode(ingestCorpus, text, service.DurabilityFsync); err != nil {
					m.r.mismatch("mirror append: %v", err)
				}
			})
		})
		syms, _ := m.codec.Encode(text)
		tr.timed(id, ap, "sigsub.corpus_append", func() { m.corpus.Append(syms) })
		tr.timed(id, ap, "counts.append", func() {
			m.app.Append(syms)
			m.app.Snapshot()
		})
		m.syms.Add(int64(len(syms)))
		if g := m.gen.Load(); g > compacted {
			compacted = g
			tr.timed(tr.op(), 0, "service.compact", func() {
				if _, err := m.exec.Compact(ingestCorpus); err != nil {
					m.r.mismatch("mirror compact: %v", err)
				}
			})
		}
	}
}

func (m *ingestMirror) close() {
	close(m.feed)
	<-m.done
	m.exec.Close()
}

func runIngest(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	window := time.Duration(r.seconds * float64(time.Second))
	maxAppends := int(window.Seconds()*ingestRate) + 1
	initial := genText(rng, ingestN0, serveAlphabet)
	stream := genText(rng, (maxAppends+setupRounds)*ingestBatch, serveAlphabet)
	r.note("input_fingerprint", fingerprint(initial, stream))
	putBody, _ := json.Marshal(map[string]string{"text": string(initial)})
	batch := func(i int) string { return string(stream[i*ingestBatch : (i+1)*ingestBatch]) }
	appendBody := func(i int) []byte {
		b, _ := json.Marshal(map[string]string{"text": batch(i)})
		return b
	}

	// Set-up: daemon start on a fresh data dir, upload, and the first
	// append (which promotes the corpus to a live one: sealed base + WAL) —
	// setupRounds times; the last daemon takes the load.
	appendC, readC := newClient(1), newClient(1)
	var d *daemon
	var dataDir string
	var setups []float64
	for round := range setupRounds {
		if d != nil {
			d.stop()
		}
		dataDir = filepath.Join(r.dir, fmt.Sprintf("data-%d", round))
		start := time.Now()
		var err error
		if d, err = r.startDaemon(fmt.Sprintf("mssd-%d", round), ingestFlags(dataDir)...); err != nil {
			return err
		}
		if _, err := do(appendC, "PUT", d.base+"/v1/corpora/"+ingestCorpus, putBody); err != nil {
			return err
		}
		if _, err := post(appendC, d.base+"/v1/corpora/"+ingestCorpus+"/append", appendBody(0)); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.note("setup_rounds_s", setups)
	full := append(append([]byte(nil), initial...), stream...)

	var mirror *ingestMirror
	var twin *core.Scanner
	codec, err := sigsub.NewTextCodecSorted(serveAlphabet)
	if err != nil {
		return err
	}
	model, err := codec.UniformModel()
	if err != nil {
		return err
	}
	if r.trace {
		if mirror, err = newIngestMirror(r, string(initial), maxAppends); err != nil {
			return err
		}
		fullSyms, err := codec.Encode(string(full))
		if err != nil {
			return err
		}
		am, err := alphabet.NewModel(model.Probs())
		if err != nil {
			return err
		}
		if twin, err = core.NewScanner(fullSyms, am); err != nil {
			return err
		}
	}

	commit0, err := commitStats(appendC, d.base)
	if err != nil {
		return err
	}
	info0, err := corpusInfo(appendC, d.base, ingestCorpus)
	if err != nil {
		return err
	}
	p0 := d.sample()

	var acked atomic.Int64 // corpus length covered by acknowledged appends
	acked.Store(int64(info0.N))
	var appLat, late samples
	var appErrs int64
	var readReplies []readReply
	var readErrs int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		readReplies, readErrs = r.tailReads(readC, d.base, &acked, stop, mirror, twin)
	}()
	t0 := time.Now()
	period := time.Second / ingestRate
	half := t0.Add(window / 2)
	sent := 0
	tracedFrom := -1
	var appLatUntraced samples
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * period)
		if !due.Before(t0.Add(window)) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if mirror != nil && tracedFrom < 0 && !due.Before(half) {
			// Traced half: bring the mirror level with the daemon in one
			// untraced batch, then replay every further append.
			tracedFrom = i
			mirror.feed <- mirrorItem{text: string(stream[:(i+1)*ingestBatch])}
		}
		begin := time.Now()
		body, err := post(appendC, d.base+"/v1/corpora/"+ingestCorpus+"/append", appendBody(i+1))
		end := time.Now()
		sent++
		late.addAt(begin, begin.Sub(due))
		if err != nil {
			appErrs++
			continue
		}
		var ar appendReply
		if err := json.Unmarshal(body, &ar); err != nil {
			appErrs++
			continue
		}
		acked.Store(int64(ar.Corpus.N))
		if mirror != nil && tracedFrom < 0 {
			appLatUntraced.addAt(end, end.Sub(due))
			continue
		}
		appLat.addAt(end, end.Sub(due))
		if mirror != nil {
			mirror.feed <- mirrorItem{text: batch(i + 1), traced: true}
			if ar.Corpus.Generation > info0.Generation {
				mirror.gen.Store(int64(ar.Corpus.Generation - info0.Generation))
			}
		}
	}
	close(stop)
	wg.Wait()
	p1 := d.sample()
	commit1, err := commitStats(appendC, d.base)
	if err != nil {
		return err
	}
	info1, err := corpusInfo(appendC, d.base, ingestCorpus)
	if err != nil {
		return err
	}
	hwm, err := d.hwmMB()
	if err != nil {
		return err
	}
	disk := dirBytes(dataDir)
	if mirror != nil {
		mirror.close()
	}

	// Open-loop discipline: the generator must not drift later through the
	// window, or the offered rate is beyond capacity.
	first, last := lateness(late, t0, window)
	r.note("generator_late_ms", map[string]any{"first_fifth_p50": first, "last_fifth_p50": last, "all": late.summary()})
	if drift := time.Duration((last - first) * 1e6); drift > ingestMaxDrift {
		return fmt.Errorf("open-loop generator drifted %v behind schedule over the window (rate %d/s exceeds capacity)", drift, ingestRate)
	}

	r.attempted += int64(sent)
	r.failed += appErrs
	r.attempted += int64(len(readReplies)) + readErrs
	r.failed += readErrs
	ackedSyms := int64(appLat.n()+appLatUntraced.n()) * ingestBatch
	if r.trace {
		r.traceOverhead(&appLatUntraced, &appLat, 0)
		t0, window = half, window/2
	}
	r.verified()
	if want := info0.N + int(ackedSyms); info1.N != want {
		r.mismatch("final corpus length %d, acknowledged appends cover %d", info1.N, want)
	}
	r.verifyReads(readReplies, full, model, rng)

	var readLat samples
	var readBytes int
	for _, rr := range readReplies {
		if rr.at.Before(t0) {
			continue // a traced run's untraced half
		}
		readLat.addAt(rr.at, rr.lat)
		readBytes += rr.bytes
	}
	r.note("append_latency_ms", appLat.summary())
	r.note("query_latency_ms", readLat.summary())
	r.note("query_p50_ms_by_slice", readLat.perSlice(t0, window, 0.5))
	r.note("append_p50_ms_by_slice", appLat.perSlice(t0, window, 0.5))
	r.note("counters", map[string]any{
		"appends_acked": appLat.n(), "symbols_acked": ackedSyms, "final_n": info1.N,
		"commit_before": commit0, "commit_after": commit1,
		"generation_before": info0.Generation, "generation_after": info1.Generation,
		"daemon_cpu_ms": float64(p1.cpu-p0.cpu) / 1e6, "daemon_write_bytes": p1.write - p0.write,
		"data_dir_bytes": disk,
	})
	r.setE2E("setup_s", median(setups))
	r.setE2E("query_per_s", readLat.slicedRate(t0, window))
	r.setE2E("query_p50_ms", readLat.slicedQ(t0, window, 0.5))
	r.setE2E("peak_rss_mb", hwm)
	r.setE2E("op_p50_ms", appLat.slicedQ(t0, window, 0.5))
	if r.trace && appLat.n() > 0 {
		r.layerFromSpans(r.tr.aggregate())
		// CPU covers the whole window, so its base is every op of the window.
		ops := float64(ackedSyms/ingestBatch) + float64(len(readReplies))
		r.setLayer("mssd.cpu_ms_per_op", float64(p1.cpu-p0.cpu)/1e6/ops)
		r.setLayer("mssd.resp_bytes_per_op", float64(readBytes)/float64(max(readLat.n(), 1)))
		if recs := commit1.Records - commit0.Records; recs > 0 {
			r.setLayer("service.fsyncs_per_append", float64(commit1.Fsyncs-commit0.Fsyncs)/float64(recs))
		}
		r.setLayer("service.compactions", float64(info1.Generation-info0.Generation))
		r.setLayer("snapshot.wal_bytes_per_sym", float64(snapshot.WALRecordSize(ingestBatch))/ingestBatch)
		r.setLayer("snapshot.write_bytes_per_sym", float64(p1.write-p0.write)/float64(ackedSyms))
		r.setLayer("disk_bytes_per_sym", float64(disk)/float64(info1.N))
		r.setLayer("append_p99_ms", appLat.q(0.99))
		var allReads samples
		for _, rr := range readReplies {
			allReads.addAt(rr.at, rr.lat)
		}
		r.setLayer("query_p99_ms", p99OrZero(&allReads))
		r.setLayer("gen.late_p99_ms", late.q(0.99))
		if agg := r.tr.aggregate(); agg["counts.append"] != nil {
			r.setLayer("counts.append_ns_per_sym", float64(agg["counts.append"].total.Nanoseconds())/float64(agg["counts.append"].dur.n()*ingestBatch))
		}
		fullSyms, _ := codec.Encode(string(full[:info1.N]))
		r.countsLayers([]indexInput{{fullSyms, 4}})
	}
	return nil
}

// lateness returns the median send lateness (ms) of the first and last
// fifth of the window.
func lateness(late samples, t0 time.Time, window time.Duration) (first, last float64) {
	var a, b []float64
	for i, at := range late.at {
		switch f := float64(at.Sub(t0)) / float64(window); {
		case f < 0.2:
			a = append(a, late.xs[i])
		case f >= 0.8:
			b = append(b, late.xs[i])
		}
	}
	return median(a), median(b)
}

// readReply is one answered tail read.
type readReply struct {
	at    time.Time
	lat   time.Duration
	bytes int
	req   service.BatchRequest
	resp  service.BatchResponse
}

// tailReads is the closed-loop reader: MSS and top-10 over the tail window
// ending at the latest acknowledged length, until stop closes. Traced, each
// read is replayed on the mirror once the mirror holds the window.
func (r *run) tailReads(c *http.Client, base string, acked *atomic.Int64, stop chan struct{}, mirror *ingestMirror, twin *core.Scanner) ([]readReply, int64) {
	var out []readReply
	var errs int64
	for {
		select {
		case <-stop:
			return out, errs
		default:
		}
		hi := int(acked.Load())
		req := service.BatchRequest{Corpus: ingestCorpus, Queries: []service.Query{
			{Kind: "mss", Lo: hi - ingestTail, Hi: hi},
			{Kind: "topt", T: 10, Lo: hi - ingestTail, Hi: hi},
		}}
		op := batchOp("tail", req)
		start := time.Now()
		body, err := post(c, base+op.path, op.body)
		end := time.Now()
		if err != nil {
			errs++
			continue
		}
		var resp service.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			errs++
			continue
		}
		out = append(out, readReply{at: end, lat: end.Sub(start), bytes: len(body), req: req, resp: resp})
		if mirror != nil && mirror.syms.Load() >= int64(hi) {
			r.replayQuery(mirror.exec, mirror.corpus.View(), twin, op, reply{at: end, lat: end.Sub(start), body: body})
		}
	}
}

// verifyReads re-runs a seeded sample of the tail reads on a library
// scanner over exactly the prefix the read's epoch held, bit for bit.
func (r *run) verifyReads(reads []readReply, full []byte, model *sigsub.Model, rng *rand.Rand) {
	const sample = 16
	codec, err := sigsub.NewTextCodecSorted(serveAlphabet)
	if err != nil {
		r.mismatch("codec: %v", err)
		return
	}
	for _, i := range rng.Perm(len(reads))[:min(sample, len(reads))] {
		rr := reads[i]
		r.verified()
		n := rr.resp.Corpus.N
		syms, err := codec.Encode(string(full[:n]))
		if err != nil {
			r.mismatch("read at epoch %d: %v", rr.resp.Corpus.Epoch, err)
			continue
		}
		sc, err := sigsub.NewScanner(syms, model)
		if err != nil {
			r.mismatch("read at epoch %d: %v", rr.resp.Corpus.Epoch, err)
			continue
		}
		ps, _ := plans(rr.req)
		want, err := sc.RunBatch(ps, sigsub.WithWorkers(1))
		if err != nil {
			r.mismatch("read at epoch %d: library: %v", rr.resp.Corpus.Epoch, err)
			continue
		}
		// A live view and a fresh index may break exact top-t ties at the
		// t-th value differently: that slot compares by X² multiset.
		if msg := compareAnswers(rr.req, rr.resp, want, compareMode{topX2Only: true}); msg != "" {
			r.mismatch("read at epoch %d (n=%d): %s", rr.resp.Corpus.Epoch, n, msg)
		}
	}
}
