package core

import (
	"math"

	"repro/internal/chisq"
)

// This file holds the sequential chain-cover pass: the one loop behind
// every MSS, top-t and threshold query at one worker, solo or batched. It is
// the paper's Algorithm 1: start positions are visited right-to-left; for
// each start, ending positions are scanned left-to-right, and after each
// evaluated substring the chain-cover bound (Theorem 1, quadratic Eq. 21)
// yields the longest extension that provably cannot beat the budget, which
// the scan skips wholesale. Algorithms 2 and 3 are the same loop with the
// t-th best X² seen so far and the constant α as the budget; a pass prunes
// at the lowest budget of the queries riding it (engine.go). Under the null
// model the expected skip is ω(√l), giving O(k·n^{3/2}) total work with high
// probability; on strings that deviate from the null model the skips only
// grow (§5.1). A length floor (Problem 4, §6.3) only shrinks the scanned
// range.
//
// Cancellation (e.stop) is honoured per start row: a fired flag stops the
// scan before its next row — within one preemption quantum (a chain-cover
// row) and without any per-position check.

// passSeq is runPass on one worker. The budget changes only when an
// exactly evaluated window reaches a member, so it is recomputed there and
// nowhere else: the cursor's Scan runs the chain-cover step until a window
// passes the prefilter, the pass offers that window's exact X², and Scan
// resumes at its skip under the refreshed budget.
//
// Each row is one serial chain of probe → sum → root, so on cursors that
// chisq.ScanPair can interleave, two rows are in flight. Row i, the
// leader, scans under the live budget and offers every window it stops at.
// Row i−1, the follower, is stepped alongside it under the budget in force
// when the follower began; it never offers, and waits at its first passing
// window or its row end. The budget only rises, so once it moves the
// follower's steps can no longer be the one-row scan's: it restarts at its
// row start under the new budget. When the leader's row ends, every row
// above the follower is final, and the follower is adopted only if the
// budget is still bit-equal to its own — it then took exactly the steps a
// one-row scan would take from its row start, so it becomes the leader,
// its counters committed and its held window offered. Committed rows are
// the one-row scan's, so answers, Stats, top-t order and threshold hit
// order are bit-identical to it; a restart costs only the follower's
// discarded windows (pass.restarted).
func (sc *Scanner) passSeq(e Engine, p *pass, hi, minLen, rowLo, rowHi int) Stats {
	var st Stats
	lead := sc.newRoll()
	defer sc.putRoll(lead)
	var next *chisq.Roll // the follower's cursor; nil runs one row at a time
	if lead.Pairable() && rowHi > rowLo {
		next = sc.newRoll()
		defer sc.putRoll(next)
	}
	b, skipAt := p.budget()
	var (
		fRow             = rowLo - 1 // the follower's row; below rowLo: none
		fb, fSkipAt      float64     // the budget the follower began under
		fEval, fSkip     int64       // its evaluated and skipped windows
		fStopped, fFound bool        // it stopped: holding a window, or at its row end
	)
	for i := rowHi; i >= rowLo; i-- {
		if e.stopped() {
			break
		}
		st.Starts++
		found := false
		if fRow == i && math.Float64bits(fb) == math.Float64bits(b) {
			lead, next = next, lead
			st.Evaluated += fEval
			st.Skipped += fSkip
			if fStopped && !fFound {
				fRow = rowLo - 1
				continue // the follower finished its row
			}
			found = fFound
		} else {
			if fRow == i {
				p.restarted += fEval
			}
			lead.Begin(i, i+minLen)
		}
		fRow = rowLo - 1
		for {
			if found {
				p.offer(i, lead.End(), lead.Exact())
				b, skipAt = p.budget()
			}
			if next != nil && i > rowLo && (fRow < rowLo || math.Float64bits(fb) != math.Float64bits(b)) {
				if fRow >= rowLo {
					p.restarted += fEval
				}
				fRow, fb, fSkipAt = i-1, b, skipAt
				fEval, fSkip, fStopped, fFound = 0, 0, false, false
				next.Begin(fRow, fRow+minLen)
			}
			var evaluated, skipped int
			if fRow >= rowLo && !fStopped {
				var fev, fsk, lane int
				evaluated, skipped, fev, fsk, lane, found = chisq.ScanPair(lead, next, b, skipAt, fb, fSkipAt, hi)
				fEval += int64(fev)
				fSkip += int64(fsk)
				if lane == 1 {
					fStopped, fFound = true, found
					st.Evaluated += int64(evaluated)
					st.Skipped += int64(skipped)
					found = false
					continue // the leader is mid-row
				}
			} else {
				evaluated, skipped, found = lead.Scan(b, skipAt, hi)
			}
			st.Evaluated += int64(evaluated)
			st.Skipped += int64(skipped)
			if !found {
				break
			}
		}
	}
	if fRow >= rowLo {
		p.restarted += fEval // a follower left behind by a stop
	}
	return st
}
