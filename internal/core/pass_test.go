package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/chisq"
)

// oneRowPass is the pass one row at a time — the paper's loop with no
// follower row — whose committed work passSeq must reproduce exactly.
func oneRowPass(sc *Scanner, p *pass, hi, minLen, rowLo, rowHi int) Stats {
	var st Stats
	cur := chisq.NewRoll(sc.kern, sc.pre, sc.s)
	b, skipAt := p.budget()
	for i := rowHi; i >= rowLo; i-- {
		st.Starts++
		cur.Begin(i, i+minLen)
		for {
			evaluated, skipped, found := cur.Scan(b, skipAt, hi)
			st.Evaluated += int64(evaluated)
			st.Skipped += int64(skipped)
			if !found {
				break
			}
			p.offer(i, cur.End(), cur.Exact())
			b, skipAt = p.budget()
		}
	}
	return st
}

// TestPassFollowersRestart runs passes whose budget moves on many rows —
// top-t at t = 50 beside a threshold, with and without an MSS member, on a
// planted string — so passSeq's follower rows restart often. Each pass
// must commit exactly the one-row scan's work: the same Stats, MSS best,
// top-t items in order and threshold hits in order. Each query of the
// batch must get the index-free oracle's answer (reference_test.go), with
// Evaluated + Skipped equal to its candidate count. The same passes run
// again on 2, 3 and 8 workers, whose followers restart when any worker
// moves the budget: the MSS best and threshold hits are still the one-row
// scan's, every row is started once, and every batch slot still gets the
// oracle's answer.
func TestPassFollowersRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := Engine{Workers: 1}
	var restarted int64
	parRestarted := make(map[int]int64) // by worker count
	for trial := 0; trial < 6; trial++ {
		k := []int{2, 3, 4, 8, 16, 4}[trial]
		n := 300 + rng.Intn(200)
		m := referenceModel(t, rng, k)
		if trial < 5 {
			m = workCounterModel(t, k, false) // the pairable model
		}
		s := workCounterText(rng, n, k)
		ref := referenceX2(t, s, m)
		all := answerReference(ref, Query{Kind: KindTopT, Hi: n})
		alpha := all.desc[200]
		for name, idx := range referenceIndexes(t, s, k) {
			sc, err := NewScannerFromIndex(s, m, idx)
			if err != nil {
				t.Fatal(err)
			}
			for _, mss := range []bool{false, true} {
				label := fmt.Sprintf("trial=%d/k=%d/n=%d/%s/mss=%v", trial, k, n, name, mss)
				sinks := []sink{{alpha: alpha}, {alpha: alpha * 1.5, limit: 20}}
				p, q := newPass(mss, 50, sinks), newPass(mss, 50, sinks)
				got := sc.passSeq(e, p, n, 1, 0, n-1)
				want := oneRowPass(sc, q, n, 1, 0, n-1)
				if got != want {
					t.Fatalf("%s: Stats %+v, one row at a time %+v", label, got, want)
				}
				if p.best != q.best || !slices.Equal(p.heap.h.Items(), q.heap.h.Items()) {
					t.Fatalf("%s: MSS %v or top-50 differs from one row at a time (%v)", label, p.best, q.best)
				}
				for si := range sinks {
					if !slices.Equal(p.found[si], q.found[si]) {
						t.Fatalf("%s: sink %d hits differ from one row at a time", label, si)
					}
				}
				restarted += p.restarted

				qs := []Query{
					{Kind: KindTopT, T: 50, Hi: n},
					{Kind: KindThreshold, Alpha: alpha, Hi: n},
					{Kind: KindThreshold, Alpha: alpha * 1.5, Hi: n},
				}
				if mss {
					qs = append(qs, Query{Kind: KindMSS, Hi: n})
				}
				for qi, res := range sc.RunBatch(e, qs) {
					checkAgainstReference(t, fmt.Sprintf("%s/q%d", label, qi), ref, answerReference(ref, qs[qi]), res)
					if res.Stats != got {
						t.Fatalf("%s/q%d: batch Stats %+v, its pass %+v", label, qi, res.Stats, got)
					}
				}

				answers := make([]referenceAnswer, len(qs))
				for qi, q := range qs {
					answers[qi] = answerReference(ref, q)
				}
				for _, w := range []int{2, 3, 8} {
					we := Engine{Workers: w}
					pw := newPass(mss, 50, sinks)
					st := sc.runPass(we, pw, n, 1, 0, n-1)
					if st.Total() != want.Total() || st.Starts != int64(n) {
						t.Fatalf("%s/w=%d: Stats %+v, want %d windows over %d rows", label, w, st, want.Total(), n)
					}
					if pw.best != q.best {
						t.Fatalf("%s/w=%d: MSS %v, one row at a time %v", label, w, pw.best, q.best)
					}
					for si := range sinks {
						if !slices.Equal(pw.found[si], q.found[si]) {
							t.Fatalf("%s/w=%d: sink %d hits differ from one row at a time", label, w, si)
						}
					}
					parRestarted[w] += pw.restarted
					for qi, res := range sc.RunBatch(we, qs) {
						wl := fmt.Sprintf("%s/w=%d/q%d", label, w, qi)
						checkAgainstReference(t, wl, ref, answers[qi], res)
						if res.Stats.Starts != int64(n) {
							t.Fatalf("%s: started %d rows, want %d", wl, res.Stats.Starts, n)
						}
					}
				}
			}
		}
	}
	if restarted == 0 {
		t.Fatal("no follower row discarded an evaluated window: the budget never moved under one")
	}
	if parRestarted[2]+parRestarted[3]+parRestarted[8] == 0 {
		t.Fatal("no follower row on 2 or more workers discarded an evaluated window")
	}
	t.Logf("followers discarded %d evaluated windows on one worker, %v on more", restarted, parRestarted)
}

// TestPassStopEndsWithinTwoRows fires the cancellation flag at a streamed
// threshold hit in row r: the pass must end before row r−2 starts, with no
// hit from a row below r−1, whatever row the follower had reached.
func TestPassStopEndsWithinTwoRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		k := []int{2, 4, 8}[trial%3]
		n := 200 + rng.Intn(200)
		m := workCounterModel(t, k, false)
		s := workCounterText(rng, n, k)
		sc, err := NewScanner(s, m)
		if err != nil {
			t.Fatal(err)
		}
		// A cutoff at the 2000th best X² leaves long skips between hits.
		alpha := answerReference(referenceX2(t, s, m), Query{Kind: KindTopT, Hi: n}).desc[2000]
		var all []Scored
		sc.RunQuery(Engine{Workers: 1}, Query{Kind: KindThreshold, Alpha: alpha, Hi: n, Visit: func(s Scored) { all = append(all, s) }})
		if len(all) == 0 {
			t.Fatalf("trial %d: no threshold hit to stop at", trial)
		}
		fire := all[rng.Intn(len(all))].Start

		var flag atomic.Bool
		e := Engine{Workers: 1, stop: &flag}
		var after []Scored
		p := newPass(false, 0, []sink{{alpha: alpha}})
		p.visit = func(s Scored) {
			if flag.Load() {
				after = append(after, s)
			}
			if s.Start == fire {
				flag.Store(true)
			}
		}
		st := sc.runPass(e, p, n, 1, 0, n-1)
		if rows := int64(n - 1 - fire + 1); st.Starts > rows+1 {
			t.Fatalf("trial %d: stop fired in row %d, pass started %d rows, want at most %d", trial, fire, st.Starts, rows+1)
		}
		for _, s := range after {
			if s.Start < fire-1 {
				t.Fatalf("trial %d: stop fired in row %d, hit %v delivered after it", trial, fire, s.Interval)
			}
		}
	}
}

// TestPassOneLaneModels: passes whose cursors ScanPair cannot interleave —
// a skewed model, an alphabet outside counts.GroupFits — run one row at a
// time, so no follower ever discards a window, and still commit the
// one-row scan's work.
func TestPassOneLaneModels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		k      int
		skewed bool
	}{{4, true}, {11, true}, {11, false}} {
		n := 400
		m := workCounterModel(t, tc.k, tc.skewed)
		sc, err := NewScanner(workCounterText(rng, n, tc.k), m)
		if err != nil {
			t.Fatal(err)
		}
		if cur := sc.newRoll(); cur.Pairable() {
			t.Fatalf("%+v: cursor is pairable", tc)
		}
		p, q := newPass(true, 50, nil), newPass(true, 50, nil)
		got := sc.passSeq(Engine{Workers: 1}, p, n, 1, 0, n-1)
		if want := oneRowPass(sc, q, n, 1, 0, n-1); got != want || p.restarted != 0 {
			t.Fatalf("%+v: Stats %+v restarted %d, one row at a time %+v", tc, got, p.restarted, want)
		}
		if p.best != q.best {
			t.Fatalf("%+v: MSS %v, one row at a time %v", tc, p.best, q.best)
		}
	}
}

// FuzzParallelPass runs the golden queries (goldenQueries) on 2–8 workers
// over strings long enough that a chunk holds several rows, so parallel
// followers run and restart, and checks every slot against the index-free
// oracle — batched (RunBatch), alone (RunQuery), and for each threshold
// also streamed (Visit), which must deliver the collected hits in order.
func FuzzParallelPass(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2), false, uint16(1400))
	f.Add(int64(2), uint8(1), uint8(0), false, uint16(900))
	f.Add(int64(3), uint8(6), uint8(9), true, uint16(1200))
	f.Add(int64(4), uint8(4), uint8(14), false, uint16(300))
	f.Add(int64(3), uint8(6), uint8(9), false, uint16(1200)) // an MSS tie workers may split
	f.Fuzz(func(t *testing.T, seed int64, wRaw, kRaw uint8, skewed bool, nRaw uint16) {
		w := 2 + int(wRaw)%7
		k := 2 + int(kRaw)%15
		n := 60 + int(nRaw)%1441
		rng := rand.New(rand.NewSource(seed))
		m := alphabet.MustUniform(k)
		if skewed {
			m = skewedModel(t, rng, k)
		}
		s := randomString(rng, n, k)
		ref, qs, answers := goldenQueries(t, s, m)
		sc, err := NewScanner(s, m)
		if err != nil {
			t.Fatal(err)
		}
		e := Engine{Workers: w}
		label := fmt.Sprintf("w=%d/k=%d/n=%d/skewed=%v", w, k, n, skewed)
		for qi, res := range sc.RunBatch(e, qs) {
			checkAgainstReference(t, fmt.Sprintf("%s/batch/q%d", label, qi), ref, answers[qi], res)
		}
		for qi, q := range qs {
			res := sc.RunQuery(e, q)
			checkAgainstReference(t, fmt.Sprintf("%s/solo/q%d", label, qi), ref, answers[qi], res)
			if q.Kind != KindThreshold {
				continue
			}
			var streamed []Scored
			q.Visit = func(s Scored) { streamed = append(streamed, s) }
			sc.RunQuery(e, q)
			if !slices.Equal(streamed, res.Results) {
				t.Fatalf("%s/solo/q%d: streamed %d hits, not the %d collected in order", label, qi, len(streamed), len(res.Results))
			}
		}
	})
}
