package core

import (
	"fmt"

	"repro/internal/chisq"
)

// This file holds the sequential scan behind KindMSS queries (RunQuery and
// the engine reach it through engineMSSRange). The scan is the paper's
// Algorithm 1: start positions are visited right-to-left; for each start,
// ending positions are scanned left-to-right, and after each evaluated
// substring the chain-cover bound (Theorem 1, quadratic Eq. 21) yields the
// longest extension that provably cannot beat the best value seen so far,
// which the scan skips wholesale. Under the null model the expected skip is
// ω(√l), giving O(k·n^{3/2}) total work with high probability; on strings
// that deviate from the null model the skips only grow (§5.1). A length
// floor (Problem 4, §6.3) only shrinks the scanned range.

// mssRangeWarm is the sequential MSS scan of the start rows [rowLo, rowHi]
// (windows of length ≥ minLen ending at most at hi) with an optional
// warm-start skip budget: warm < 0 disables it, warm ≥ 0 must be the X² of
// an actual candidate substring (same range, same length floor), which
// lower-bounds the answer and therefore only removes substrings that cannot
// win. The warm budget is softened by one ulp so exact X² ties with it are
// still evaluated, keeping the reported interval independent of the warm
// start.
//
// The loop runs gangSize rolling cursors working that many start rows at
// once. Each evaluation is a serial dependency chain — rolled sum → skip
// quadratic (one square root) → chain-cover landing (one likely cache
// miss) — so a single row leaves the core mostly waiting; independent rows
// give out-of-order execution parallel chains to overlap into the stalls.
// Correctness is the parallel engine's argument: the shared best only ever
// grows, a grown budget only enlarges skips, and a skipped window provably
// cannot beat the final best; candidates are compared under the better()
// total order, so the reported result is bit-identical to the one-row scan
// whatever the interleaving (exact ties stay evaluated — see
// chisq.Roll.Passes).
//
// Cancellation (e.stop) is honoured at row-assignment granularity: a fired
// flag stops new start rows from being claimed, and the at-most-gangSize
// rows already in flight drain normally — the scan stops within one
// preemption quantum (a chain-cover row) without any per-position check.
func (sc *Scanner) mssRangeWarm(e Engine, hi, minLen, rowLo, rowHi int, warm float64) (Scored, Stats) {
	best := Scored{X2: -1}
	var st Stats
	floor := soften(warm)
	var curs [gangSize]*chisq.Roll
	var rows [gangSize]int
	for g := range curs {
		curs[g] = sc.newRoll()
		rows[g] = -1 // needs a row
	}
	defer func() {
		for _, cur := range curs {
			sc.putRoll(cur)
		}
	}()
	nextRow := rowHi
	for {
		live := 0
		for g := range curs {
			if rows[g] < 0 {
				if nextRow < rowLo || e.stopped() {
					continue
				}
				rows[g] = nextRow
				nextRow--
				st.Starts++
				curs[g].Begin(rows[g], rows[g]+minLen)
			}
			live++
			cur := curs[g]
			i := rows[g]
			j := cur.End()
			st.Evaluated++
			if cur.Passes(best.X2) {
				if x2 := cur.Exact(); better(x2, i, j, best) {
					best = Scored{Interval{i, j}, x2}
				}
			}
			if j == hi {
				rows[g] = -1
				continue
			}
			budget := best.X2
			if floor > budget {
				budget = floor
			}
			// Soften like the parallel workers: with several rows live at
			// once, a lower-start row can raise best first, and an exact-tie
			// window in a higher-start row must still be evaluated for the
			// better() tie-break to see it.
			skip := cur.MaxSkip(soften(budget))
			if j+skip >= hi {
				st.Skipped += int64(hi - j)
				rows[g] = -1
				continue
			}
			st.Skipped += int64(skip)
			cur.Advance(j + skip + 1)
		}
		if live == 0 {
			break
		}
	}
	if best.X2 < 0 {
		return Scored{}, st
	}
	return best, st
}

// validateT rejects non-positive top-t capacities.
func validateT(t int) error {
	if t < 1 {
		return fmt.Errorf("core: top-t requires t >= 1, got %d", t)
	}
	return nil
}
