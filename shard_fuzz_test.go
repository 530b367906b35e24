package sigsub

import (
	"context"
	"testing"
)

// FuzzExecShard feeds arbitrary wire subqueries — the fields a peer's POST
// /v1/shards/exec body carries — and a segment offset to ExecShard on a
// small scanner. Nothing may panic, and every accepted split subquery must
// answer only candidates of its own: inside [Lo, Hi), starting in [RowLo,
// RowHi], and at least max(MinLength, 1) long.
func FuzzExecShard(f *testing.F) {
	// Rows past the range's last start: crashed a scan worker goroutine.
	f.Add("threshold", 0, 1.0, 0, 0, 20, 0, 0, 20, false, 0)
	// Rows before the range's first start: answered outside the query.
	f.Add("mss", 0, 0.0, 0, 10, 20, 0, 0, 19, false, 0)
	// A client-sized t: allocated t heap slots up front.
	f.Add("topt", 1<<40, 0.0, 0, 0, 20, 0, 0, 19, false, 0)
	f.Add("disjoint", 3, 0.0, 2, 0, 20, 0, 0, 20, true, 0)
	f.Add("threshold", 0, 2.0, 3, 5, 25, 2, 5, 22, false, 5)
	f.Add("topt", 4, 0.0, 2, 0, 20, 0, 7, 3, false, 0)

	model, err := UniformModel(2)
	if err != nil {
		f.Fatal(err)
	}
	sc, err := NewScanner([]byte{0, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0}, model)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, kind string, tt int, alpha float64, minLength, lo, hi, limit, rowLo, rowHi int, composite bool, offset int) {
		sq := ShardQuery{Kind: kind, T: tt, Alpha: alpha, MinLength: minLength, Lo: lo, Hi: hi, Limit: limit,
			RowLo: rowLo, RowHi: rowHi, Composite: composite}
		parts, err := sc.ExecShard(context.Background(), 0, offset, []ShardQuery{sq})
		if err != nil || composite {
			return
		}
		floor := max(minLength, 1)
		for _, p := range parts {
			for _, c := range p.Cands {
				if c.Start < lo || c.End > hi || c.Start < rowLo || c.Start > rowHi || c.End-c.Start < floor {
					t.Fatalf("%+v at offset %d answered [%d, %d)", sq, offset, c.Start, c.End)
				}
			}
		}
	})
}
