// Group commit: the only way a durable append reaches disk. A durable
// append costs 3-62us of actual work and 111-271us of fsync (BENCH_5), so
// one fsync per append would cap a node at the disk's fsync rate regardless
// of how many clients feed it. The Committer amortizes that cost: appends
// frame their WAL record into the corpus's group buffer (serialized per
// corpus, under the corpus mutex), enqueue a commit ticket, and release the
// mutex; one pipeline goroutine issues a single write + fsync per corpus
// covering EVERY record that arrived while the previous fsync was in
// flight. Under load the batch window is exactly one fsync duration — no
// timer tuning — and when idle a lone append triggers its fsync
// immediately, so a single client pays one fsync per append. Records are
// applied to the in-memory corpus in WAL order only after their covering
// fsync completes, so memory never runs ahead of stable storage and an
// acknowledgment means durable.
//
// Durability modes per append:
//
//	fsync (default)  the append returns after its covering fsync: acked
//	                 implies durable.
//	relaxed          the append returns once its record is written; the
//	                 committer fsyncs within the -fsync-interval floor. A
//	                 crash (or a failed group fsync) loses at most that
//	                 unfsynced window — never an fsync-mode acknowledgment
//	                 and never a mid-history chunk.
//
// A failed group fsync fails every ticket it covered (and every record
// written behind them — they sit past the truncation point): fsync-mode
// appends get the typed error, relaxed records in the window are counted
// as lost, and the log is rolled back to the acknowledged prefix before
// the next record is written, preserving the PR6 invariant that replay
// never resurrects an unacknowledged record ahead of an acknowledged one.
package service

import (
	"sync"
	"sync/atomic"
	"time"
)

// Durability selects an append's acknowledgment contract.
type Durability int

const (
	// DurabilityFsync acknowledges only after the covering fsync (default).
	DurabilityFsync Durability = iota
	// DurabilityRelaxed acknowledges on WAL write; the committer fsyncs on
	// the interval floor. Loses at most the unfsynced window on a crash.
	DurabilityRelaxed
)

// String names the mode as it appears on the wire.
func (d Durability) String() string {
	if d == DurabilityRelaxed {
		return "relaxed"
	}
	return "fsync"
}

// ParseDurability maps the wire field of an append request to a mode.
// Empty means the default (fsync); anything unrecognized is a validation
// error — a typo'd "relaxd" must not silently buy the stronger, slower
// contract.
func ParseDurability(s string) (Durability, error) {
	switch s {
	case "", "fsync":
		return DurabilityFsync, nil
	case "relaxed":
		return DurabilityRelaxed, nil
	default:
		return 0, badRequest("unknown durability %q; use \"fsync\" (default) or \"relaxed\"", s)
	}
}

// commitTicket is one written-but-not-yet-covered WAL record riding the
// commit pipeline. The append path fills it under the corpus mutex; the
// committer resolves it after the covering fsync (or its failure).
type commitTicket struct {
	syms     []byte // encoded symbols, applied to the corpus after the fsync
	size     int64  // on-disk record size
	relaxed  bool   // acknowledged at enqueue; no goroutine waits on done
	enqueued time.Time
	err      error
	done     chan struct{}
}

// resolve completes the ticket with err (nil = durable and applied).
func (t *commitTicket) resolve(err error) {
	t.err = err
	close(t.done)
}

// DefaultFsyncInterval is the idle flush floor: the longest a relaxed
// (ack-on-write) record waits for its covering fsync when no fsync-mode
// append forces one earlier. It bounds the relaxed-mode loss window.
const DefaultFsyncInterval = 2 * time.Millisecond

// CommitStats are the commit-pipeline counters surfaced per corpus (Info)
// and node-wide (healthz). AppendsPerFsync is the realized amortization —
// 1.0 means group commit bought nothing, N means N appends per disk flush.
type CommitStats struct {
	// Fsyncs is the number of WAL fsyncs issued.
	Fsyncs uint64 `json:"fsyncs"`
	// Records is the number of appended records made durable.
	Records uint64 `json:"records"`
	// MaxBatch is the largest record count one fsync covered.
	MaxBatch uint64 `json:"max_batch"`
	// AppendsPerFsync is Records/Fsyncs (0 when no fsync has run).
	AppendsPerFsync float64 `json:"appends_per_fsync"`
	// MaxTicketWait is the longest any record waited from WAL write to
	// resolution, in nanoseconds.
	MaxTicketWait int64 `json:"max_ticket_wait_ns"`
	// Pending is the number of written records awaiting their covering
	// fsync right now (only meaningful per corpus).
	Pending int64 `json:"pending,omitempty"`
	// RelaxedLost counts relaxed-mode records dropped because their
	// covering fsync failed — the in-process analogue of the crash window.
	RelaxedLost uint64 `json:"relaxed_lost,omitempty"`
}

// commitCounters are lock-free pipeline counters; LiveCorpus embeds one set
// (read by Freeze without the corpus mutex) and the Committer aggregates a
// node-wide set.
type commitCounters struct {
	fsyncs      atomic.Uint64
	records     atomic.Uint64
	maxBatch    atomic.Uint64
	maxWaitNs   atomic.Int64
	pending     atomic.Int64
	relaxedLost atomic.Uint64
}

// observeBatch records one covering fsync over n records.
func (c *commitCounters) observeBatch(n int) {
	c.fsyncs.Add(1)
	c.records.Add(uint64(n))
	for {
		cur := c.maxBatch.Load()
		if uint64(n) <= cur || c.maxBatch.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// observeWait folds one ticket's enqueue-to-resolution wait into the max.
func (c *commitCounters) observeWait(d time.Duration) {
	ns := d.Nanoseconds()
	for {
		cur := c.maxWaitNs.Load()
		if ns <= cur || c.maxWaitNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Stats snapshots the counters.
func (c *commitCounters) Stats() CommitStats {
	s := CommitStats{
		Fsyncs:        c.fsyncs.Load(),
		Records:       c.records.Load(),
		MaxBatch:      c.maxBatch.Load(),
		MaxTicketWait: c.maxWaitNs.Load(),
		Pending:       c.pending.Load(),
		RelaxedLost:   c.relaxedLost.Load(),
	}
	if s.Fsyncs > 0 {
		s.AppendsPerFsync = float64(s.Records) / float64(s.Fsyncs)
	}
	return s
}

// Committer is the node-wide commit pipeline: one scheduling goroutine that
// watches for corpora with written-but-uncovered WAL records and flushes
// each in its own goroutine (different corpora have different log files, so
// their fsyncs overlap on the device exactly as independent appenders'
// did). Per corpus, at most one flush is in flight; records arriving during
// it are covered by the next — sync-on-previous-completion pipelining.
type Committer struct {
	interval time.Duration

	mu      sync.Mutex
	dirty   map[*LiveCorpus]bool
	urgent  bool // at least one fsync-mode ticket is waiting
	stopped bool

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
	// flights tracks in-flight per-corpus flush goroutines so Stop can wait
	// them out. At most one flush runs per corpus (LiveCorpus.flushing).
	flights sync.WaitGroup

	stats commitCounters
}

// NewCommitter starts a group-commit pipeline. interval is the idle flush
// floor for relaxed-mode records (<= 0 selects DefaultFsyncInterval).
func NewCommitter(interval time.Duration) *Committer {
	if interval <= 0 {
		interval = DefaultFsyncInterval
	}
	c := &Committer{
		interval: interval,
		dirty:    make(map[*LiveCorpus]bool),
		wake:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go c.run()
	return c
}

// Interval returns the idle flush floor.
func (c *Committer) Interval() time.Duration { return c.interval }

// Stats returns the node-wide pipeline counters.
func (c *Committer) Stats() CommitStats { return c.stats.Stats() }

// markDirty registers a corpus with uncovered records. urgent (an
// fsync-mode ticket is waiting) wakes the scheduler to flush immediately;
// relaxed records ride the interval timer — or any earlier flush — instead,
// which is what amortizes an all-relaxed workload to one fsync per
// interval. A non-urgent mark still wakes an idle scheduler (so it arms
// the timer), but only on the empty→dirty transition.
func (c *Committer) markDirty(lc *LiveCorpus, urgent bool) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	wasEmpty := len(c.dirty) == 0
	c.dirty[lc] = true
	c.urgent = c.urgent || urgent
	c.mu.Unlock()
	if urgent || wasEmpty {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// take claims the current dirty set (nil when clean).
func (c *Committer) take() []*LiveCorpus {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.dirty) == 0 {
		return nil
	}
	out := make([]*LiveCorpus, 0, len(c.dirty))
	for lc := range c.dirty {
		out = append(out, lc)
	}
	c.dirty = make(map[*LiveCorpus]bool)
	c.urgent = false
	return out
}

// run is the scheduler: wake immediately for fsync-mode tickets, on the
// interval floor for relaxed ones, and spawn a flush per dirty corpus
// WITHOUT waiting for them — one corpus's slow disk must never delay
// another corpus's flush, or the next flush of a fast one. A corpus whose
// flush is already in flight skips (flushCommit's flushing guard) and is
// re-marked by that flush on completion if its queue refilled.
func (c *Committer) run() {
	defer close(c.done)
	timer := time.NewTimer(c.interval)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		c.mu.Lock()
		n, urgent := len(c.dirty), c.urgent
		c.mu.Unlock()
		if n == 0 {
			select {
			case <-c.wake:
				continue // re-evaluate: the mark landed before the wake
			case <-c.quit:
				return
			}
		}
		if !urgent {
			// Relaxed records only: flush on the interval floor, or sooner
			// if an urgent (fsync-mode) ticket arrives meanwhile.
			timer.Reset(c.interval)
			select {
			case <-c.wake:
				if !timer.Stop() {
					<-timer.C
				}
				continue
			case <-timer.C:
			case <-c.quit:
				return
			}
		}
		for _, lc := range c.take() {
			c.flights.Add(1)
			go func(lc *LiveCorpus) {
				defer c.flights.Done()
				lc.flushCommit()
			}(lc)
		}
	}
}

// Stop shuts the pipeline down after flushing every dirty corpus. Appends
// racing a Stop are flushed or failed by their corpus's Close; a stopped
// committer accepts no new registrations.
func (c *Committer) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		<-c.done
		return
	}
	c.stopped = true
	c.mu.Unlock()
	close(c.quit)
	<-c.done
	c.flights.Wait()
	// Drain whatever the scheduler left: corpora marked dirty before the
	// stop flag landed.
	for _, lc := range c.take() {
		lc.flushCommit()
	}
}
