package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

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
// Evaluated + Skipped equal to its candidate count.
func TestPassFollowersRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := Engine{Workers: 1}
	var restarted int64
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
				if p.best != q.best || !slices.Equal(p.heap.Items(), q.heap.Items()) {
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
			}
		}
	}
	if restarted == 0 {
		t.Fatal("no follower row discarded an evaluated window: the budget never moved under one")
	}
	t.Logf("followers discarded %d evaluated windows", restarted)
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
