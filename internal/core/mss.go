package core

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
// nowhere else on the per-position path.
func (sc *Scanner) passSeq(e Engine, p *pass, hi, minLen, rowLo, rowHi int) Stats {
	var st Stats
	cur := sc.newRoll()
	defer sc.putRoll(cur)
	b, skipAt := p.budget()
	for i := rowHi; i >= rowLo; i-- {
		if e.stopped() {
			break
		}
		st.Starts++
		cur.Begin(i, i+minLen)
		for {
			j := cur.End()
			st.Evaluated++
			if cur.Passes(b) {
				p.offer(i, j, cur.Exact())
				b, skipAt = p.budget()
			}
			if j == hi {
				break
			}
			skip := cur.MaxSkip(skipAt)
			if j+skip >= hi {
				st.Skipped += int64(hi - j)
				break
			}
			st.Skipped += int64(skip)
			cur.Advance(j + skip + 1)
		}
	}
	return st
}
