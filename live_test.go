package sigsub

import (
	"math/rand"
	"testing"
)

// liveStream builds a null stream with a planted biased window.
func liveStream(rng *rand.Rand, n, k, lo, hi int) []byte {
	s := make([]byte, n)
	for i := range s {
		if i >= lo && i < hi && rng.Intn(10) < 9 {
			s[i] = 0
		} else {
			s[i] = byte(rng.Intn(k))
		}
	}
	return s
}

// TestLiveMonitorEpisode: a planted anomaly raises exactly one episode, and
// the triggered range-scoped MSS equals a direct range-scoped MSS query
// over the same episode on a from-scratch scanner — the detector only chooses WHEN, the
// exact engine answers WHERE.
func TestLiveMonitorEpisode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	model, err := UniformModel(4)
	if err != nil {
		t.Fatal(err)
	}
	const n, lo, hi = 3000, 1200, 1400
	s := liveStream(rng, n, 4, lo, hi)

	corpus, err := NewCorpus(model)
	if err != nil {
		t.Fatal(err)
	}
	threshold, err := CriticalValue(1e-6, 4)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := NewLiveMonitor(corpus, 64, threshold, 4)
	if err != nil {
		t.Fatal(err)
	}
	episodes, err := lm.ObserveAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if lm.InAlert() {
		if ep, err := lm.Flush(); err != nil {
			t.Fatal(err)
		} else if ep != nil {
			episodes = append(episodes, *ep)
		}
	}
	if len(episodes) == 0 {
		t.Fatal("planted anomaly raised no episode")
	}
	if len(episodes) > 2 {
		t.Fatalf("%d episodes for one planted anomaly", len(episodes))
	}
	ep := episodes[0]
	// The episode must bracket (part of) the planted window.
	if ep.End <= lo || ep.Start >= hi+64 {
		t.Fatalf("episode [%d, %d) misses the planted window [%d, %d)", ep.Start, ep.End, lo, hi)
	}

	// Exact equivalence: the same range-scoped query on a from-scratch
	// scanner over the full stream.
	ref, err := NewScanner(s, model)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runBest(ref, MSSQuery().WithRange(ep.Start, ep.End).WithMinLength(4))
	if err != nil {
		t.Fatal(err)
	}
	if ep.MSS != want {
		t.Fatalf("episode MSS %+v, want %+v", ep.MSS, want)
	}
	if ep.MSS.Start < ep.Start || ep.MSS.End > ep.End {
		t.Fatalf("episode MSS %+v escapes the episode [%d, %d)", ep.MSS, ep.Start, ep.End)
	}

	// The corpus kept every event: ordinary queries run over the whole
	// stream.
	if corpus.Len() != n {
		t.Fatalf("corpus holds %d events, want %d", corpus.Len(), n)
	}
	full, err := corpus.View().MSS()
	if err != nil {
		t.Fatal(err)
	}
	wantFull, err := ref.MSS()
	if err != nil {
		t.Fatal(err)
	}
	if full != wantFull {
		t.Fatalf("live corpus MSS %+v, want %+v", full, wantFull)
	}
}

// TestLiveMonitorOffset: a monitor attached to a corpus with existing
// history maps episode positions onto corpus coordinates.
func TestLiveMonitorOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	model, err := UniformModel(2)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := NewCorpus(model)
	if err != nil {
		t.Fatal(err)
	}
	history := liveStream(rng, 500, 2, 0, 0)
	if err := corpus.Append(history); err != nil {
		t.Fatal(err)
	}

	threshold, err := CriticalValue(1e-5, 2)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := NewLiveMonitor(corpus, 32, threshold, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Strongly anomalous burst right away.
	burst := make([]byte, 64)
	episodes, err := lm.ObserveAll(burst)
	if err != nil {
		t.Fatal(err)
	}
	if lm.InAlert() {
		ep, err := lm.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if ep != nil {
			episodes = append(episodes, *ep)
		}
	}
	if len(episodes) == 0 {
		t.Fatal("all-zeros burst raised no episode")
	}
	ep := episodes[0]
	if ep.Start < 500 {
		t.Fatalf("episode start %d inside pre-attach history", ep.Start)
	}
	if ep.MSS.Start < 500 {
		t.Fatalf("episode MSS %+v inside pre-attach history", ep.MSS)
	}
	if corpus.Len() != 564 {
		t.Fatalf("corpus length %d, want 564", corpus.Len())
	}
}

// TestLiveMonitorValidation: symbols outside the alphabet are rejected
// atomically (corpus unchanged), and nil corpora error.
func TestLiveMonitorValidation(t *testing.T) {
	if _, err := NewLiveMonitor(nil, 8, 10, 1); err == nil {
		t.Fatal("nil corpus accepted")
	}
	model, err := UniformModel(2)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := NewCorpus(model)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := NewLiveMonitor(corpus, 8, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lm.Observe(7); err == nil {
		t.Fatal("out-of-alphabet event accepted")
	}
	if corpus.Len() != 0 {
		t.Fatalf("rejected event appended: corpus length %d", corpus.Len())
	}
}
