package sigsub

import (
	"fmt"

	"repro/internal/stream"
)

// LiveMonitor couples the online sliding-window detector (internal/stream,
// after Ye & Chen's chi-square monitoring) to a live Corpus: every observed
// event is appended to the corpus AND fed to the window monitor, and the
// moment an alert episode closes, the episode's exact most significant
// substring is computed by a range-scoped MSS query against the
// corpus — the cheap O(1)-per-event detector decides WHEN to look, the
// exact chain-cover scanner decides precisely WHERE the anomaly is.
//
// This closes the loop the paper's intrusion-detection motivation sketches:
// the monitor's fixed window W smears an anomaly's boundaries (any window
// containing part of the anomaly can alert), while the triggered exact scan
// recovers the maximum-X² substring inside the episode at full precision,
// over the same live corpus that keeps serving ordinary queries.
type LiveMonitor struct {
	corpus *Corpus
	mon    *stream.Monitor
	// offset maps monitor event indices onto corpus positions: the corpus
	// may already hold history from before the monitor attached.
	offset int
	minLen int
	opts   []Option
	closed int // completed episodes consumed so far
}

// Episode is one closed alert episode with its exact analysis: the
// half-open event range [Start, End) during which the window statistic
// stayed above the threshold (corpus positions, not monitor-relative), the
// peak window statistic, and MSS — the exact most significant substring
// within the episode, as a range-scoped scan of the live corpus computes
// it.
type Episode struct {
	Start  int
	End    int
	PeakX2 float64
	PeakAt int
	MSS    Result
}

// NewLiveMonitor attaches a window-W, threshold-t online detector to the
// corpus. minLen (≥ 1; 0 means 1) restricts the triggered exact scan to
// substrings of at least that length — useful when single-event episodes
// should not dominate. opts configure the triggered scans exactly as they
// do Scanner queries (workers, stats, …).
func NewLiveMonitor(c *Corpus, window int, threshold float64, minLen int, opts ...Option) (*LiveMonitor, error) {
	if c == nil {
		return nil, fmt.Errorf("sigsub: nil corpus")
	}
	mon, err := stream.New(c.model.m, window, threshold)
	if err != nil {
		return nil, err
	}
	if minLen < 1 {
		minLen = 1
	}
	return &LiveMonitor{
		corpus: c,
		mon:    mon,
		offset: c.Len(),
		minLen: minLen,
		opts:   opts,
	}, nil
}

// Corpus returns the live corpus the monitor feeds.
func (lm *LiveMonitor) Corpus() *Corpus { return lm.corpus }

// InAlert reports whether the monitor is currently inside an episode.
func (lm *LiveMonitor) InAlert() bool {
	alerts := lm.mon.Alerts()
	return len(alerts) > 0 && alerts[len(alerts)-1].End == -1
}

// X2 returns the current window statistic.
func (lm *LiveMonitor) X2() float64 { return lm.mon.X2() }

// Observe appends one event to the corpus and feeds it to the detector. If
// the event closes an alert episode, the episode is returned with its exact
// range-scoped MSS; otherwise the episode is nil.
func (lm *LiveMonitor) Observe(sym byte) (*Episode, error) {
	if err := lm.corpus.Append([]byte{sym}); err != nil {
		return nil, err
	}
	if _, err := lm.mon.Observe(sym); err != nil {
		// The corpus validated the symbol first, so the only divergence
		// would be a model mismatch — impossible by construction, but
		// surface it rather than swallow it.
		return nil, err
	}
	return lm.takeClosed()
}

// ObserveAll feeds a batch of events, collecting every episode that closes
// along the way. The batch is appended to the corpus event by event so each
// triggered scan sees exactly the history up to its episode's close.
func (lm *LiveMonitor) ObserveAll(s []byte) ([]Episode, error) {
	var episodes []Episode
	for _, sym := range s {
		ep, err := lm.Observe(sym)
		if err != nil {
			return episodes, err
		}
		if ep != nil {
			episodes = append(episodes, *ep)
		}
	}
	return episodes, nil
}

// takeClosed drains at most one newly completed episode (Observe closes at
// most one per event) and runs its exact scan.
func (lm *LiveMonitor) takeClosed() (*Episode, error) {
	alerts := lm.mon.Alerts()
	n := len(alerts)
	if n > 0 && alerts[n-1].End == -1 {
		n-- // open episode: not done yet
	}
	if n <= lm.closed {
		return nil, nil
	}
	a := alerts[lm.closed]
	lm.closed++
	return lm.analyze(a)
}

// analyze runs the range-scoped exact query for a closed alert.
func (lm *LiveMonitor) analyze(a stream.Alert) (*Episode, error) {
	lo := lm.offset + a.Start
	hi := lm.offset + a.End
	qr, err := lm.corpus.View().Run(MSSQuery().WithRange(lo, hi).WithMinLength(lm.minLen), lm.opts...)
	if err != nil {
		return nil, fmt.Errorf("sigsub: scanning alert episode [%d, %d): %w", lo, hi, err)
	}
	ep := &Episode{
		Start:  lo,
		End:    hi,
		PeakX2: a.PeakX2,
		PeakAt: lm.offset + a.PeakAt,
		MSS:    Result{PValue: 1}, // an episode shorter than minLen holds no candidate
	}
	if len(qr.Results) > 0 {
		ep.MSS = qr.Results[0]
	}
	return ep, nil
}

// Flush closes any open episode as of the current event (the stream is
// treated as paused, not below threshold) and returns its analysis, or nil
// when no episode is open. The detector keeps running; if the statistic is
// still above threshold at the next event, a new episode begins.
func (lm *LiveMonitor) Flush() (*Episode, error) {
	alerts := lm.mon.Alerts()
	if len(alerts) == 0 || alerts[len(alerts)-1].End != -1 {
		return nil, nil
	}
	a := alerts[len(alerts)-1]
	a.End = lm.mon.Seen()
	ep, err := lm.analyze(a)
	if err != nil {
		return nil, err
	}
	lm.mon.Reset()
	lm.closed = 0
	// Reset restarts monitor indexing at zero; subsequent events map to
	// fresh corpus positions.
	lm.offset = lm.corpus.Len()
	return ep, nil
}
