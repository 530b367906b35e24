package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// seedFollower clones the primary corpus onto a fresh follower executor via
// the snapshot + marker path, returning the follower and its store dir.
func seedFollower(t *testing.T, primary *Executor, name string) (*Executor, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := &Executor{Cache: NewCache(0), Store: store}
	snap, gen, _, err := primary.Live(name).ReplicaSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := f.ReplicaSeed(name, gen, snap); err != nil {
		t.Fatal(err)
	}
	return f, dir
}

// shipAll copies every committed WAL byte from primary to follower in
// max-sized chunks, returning the follower's final progress.
func shipAll(t *testing.T, primary, follower *Executor, name string, max int) WALProgress {
	t.Helper()
	plc := primary.Live(name)
	for {
		p, _, _ := follower.ReplicaCursor(name)
		chunk, cur, err := plc.ReadWALChunk(p.Gen, p.Offset, max)
		if err != nil {
			t.Fatalf("ReadWALChunk(%d, %d): %v", p.Gen, p.Offset, err)
		}
		if chunk == nil {
			if cur.Gen != p.Gen {
				t.Fatalf("generation moved (%d -> %d) mid-ship", p.Gen, cur.Gen)
			}
			return p // caught up
		}
		if _, err := follower.ReplicaApply(name, p.Gen, p.Offset, chunk); err != nil {
			t.Fatalf("ReplicaApply(%d, %d, %d bytes): %v", p.Gen, p.Offset, len(chunk), err)
		}
	}
}

// TestReplicaShipAndServe is the tap's core contract: a follower seeded from
// the primary's base snapshot and fed its WAL bytes answers scans exactly
// like the primary, and its cursor equals the primary's committed position.
func TestReplicaShipAndServe(t *testing.T) {
	base := "01011010101001010110"
	appends := []string{"11111111", "0101010101", "1", "000111000111"}
	primary, _ := liveFixture(t, base)
	full := base
	for _, a := range appends {
		if _, err := primary.Append("c", a); err != nil {
			t.Fatal(err)
		}
		full += a
	}

	follower, _ := seedFollower(t, primary, "c")
	got := shipAll(t, primary, follower, "c", 0)
	want := primary.Live("c").WALProgress()
	if got != want {
		t.Fatalf("follower cursor %+v, want primary position %+v", got, want)
	}
	// The frame landed through the append path, so the follower counts what
	// it committed.
	stats := follower.Live("c").CommitStats()
	if stats.Records != uint64(len(appends)) || stats.Fsyncs < 1 {
		t.Fatalf("follower commit stats %+v, want %d records over at least one fsync", stats, len(appends))
	}

	wantRes := libraryMSS(t, full)
	res, info := execMSS(t, follower, "c")
	if res != wantRes {
		t.Fatalf("follower MSS %+v, want %+v", res, wantRes)
	}
	if !info.Replica {
		t.Fatal("follower info not marked replica")
	}
	if info.Generation != want.Gen {
		t.Fatalf("follower generation %d, want %d", info.Generation, want.Gen)
	}
	if info.Commit == nil || *info.Commit != stats || follower.Commit.Stats() != stats {
		t.Fatalf("follower info commit %+v and node commit %+v, want %+v", info.Commit, follower.Commit.Stats(), stats)
	}
}

// TestReplicaReadOnly: a replica refuses local appends and compactions with
// the typed ReadOnlyError until promoted.
func TestReplicaReadOnly(t *testing.T) {
	primary, _ := liveFixture(t, "0101101001")
	if _, err := primary.Append("c", "11"); err != nil {
		t.Fatal(err) // the first append pins the live corpus
	}
	follower, _ := seedFollower(t, primary, "c")

	if _, err := follower.Append("c", "111"); err == nil {
		t.Fatal("append on a replica succeeded")
	} else if _, ok := IsReadOnly(err); !ok {
		t.Fatalf("append on a replica: got %v, want ReadOnlyError", err)
	}
	if err := follower.Live("c").Compact(); err == nil {
		t.Fatal("compact on a replica succeeded")
	} else if _, ok := IsReadOnly(err); !ok {
		t.Fatalf("compact on a replica: got %v, want ReadOnlyError", err)
	}
}

// TestReplicaApplyIdempotency: duplicate frames are skipped, overlapping
// frames apply only their unseen suffix, gaps and future generations are
// divergence, and torn frames never touch the log.
func TestReplicaApplyIdempotency(t *testing.T) {
	primary, _ := liveFixture(t, "0101101001")
	for _, a := range []string{"111", "000", "10"} {
		if _, err := primary.Append("c", a); err != nil {
			t.Fatal(err)
		}
	}
	follower, _ := seedFollower(t, primary, "c")
	plc := primary.Live("c")
	pos := plc.WALProgress()
	chunk, _, err := plc.ReadWALChunk(pos.Gen, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := follower.ReplicaApply("c", pos.Gen, 0, chunk); err != nil {
		t.Fatal(err)
	}
	epoch := follower.Live("c").Epoch()

	// Exact duplicate: skipped, no epoch movement.
	if p, err := follower.ReplicaApply("c", pos.Gen, 0, chunk); err != nil || p.Offset != pos.Offset {
		t.Fatalf("duplicate apply: progress %+v err %v", p, err)
	}
	// Overlap: a frame covering [0, end) against a cursor already at end.
	if _, err := follower.ReplicaApply("c", pos.Gen, 0, chunk[:len(chunk)]); err != nil {
		t.Fatalf("overlapping apply: %v", err)
	}
	if e := follower.Live("c").Epoch(); e != epoch {
		t.Fatalf("duplicate delivery moved the epoch %d -> %d", epoch, e)
	}

	// Gap: a frame starting past the committed position.
	if _, err := follower.ReplicaApply("c", pos.Gen, pos.Offset+12, chunk); !errors.Is(err, ErrReplicaDiverged) {
		t.Fatalf("gap apply: got %v, want ErrReplicaDiverged", err)
	}
	// Future generation: the primary compacted past us.
	if _, err := follower.ReplicaApply("c", pos.Gen+1, 0, chunk); !errors.Is(err, ErrReplicaDiverged) {
		t.Fatalf("future-generation apply: got %v, want ErrReplicaDiverged", err)
	}
	// Torn frame: a whole-frame CRC landing mid-record is rejected before
	// any disk write.
	if _, err := follower.ReplicaApply("c", pos.Gen, pos.Offset, chunk[:len(chunk)-3]); !errors.Is(err, ErrReplicaDiverged) {
		t.Fatalf("torn frame apply: got %v, want ErrReplicaDiverged", err)
	}
	if p := follower.Live("c").WALProgress(); p.Offset != pos.Offset {
		t.Fatalf("rejected frames moved the cursor to %+v", p)
	}
}

// TestReplicaCursorRestart: the follower's durable cursor is its manifest
// generation plus replayed WAL length — a restart resumes exactly where the
// last applied frame left it, still read-only.
func TestReplicaCursorRestart(t *testing.T) {
	primary, _ := liveFixture(t, "0101101001")
	for _, a := range []string{"111", "000"} {
		if _, err := primary.Append("c", a); err != nil {
			t.Fatal(err)
		}
	}
	follower, dir := seedFollower(t, primary, "c")
	pos := shipAll(t, primary, follower, "c", 0)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	f2 := reopen(t, dir)
	p, isReplica, exists := f2.ReplicaCursor("c")
	if !exists || !isReplica {
		t.Fatalf("after restart: exists=%v isReplica=%v", exists, isReplica)
	}
	if p != pos {
		t.Fatalf("after restart: cursor %+v, want %+v", p, pos)
	}
	// More primary history lands on the restarted follower.
	if _, err := primary.Append("c", "0011"); err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, f2, "c", 0)
	wantRes, _ := execMSS(t, primary, "c")
	gotRes, _ := execMSS(t, f2, "c")
	if gotRes != wantRes {
		t.Fatalf("restarted follower MSS %+v, want %+v", gotRes, wantRes)
	}
}

// TestReadWALChunkAlignment: size-capped chunks end on record boundaries,
// and a cap smaller than the first record widens to ship it whole.
func TestReadWALChunkAlignment(t *testing.T) {
	primary, _ := liveFixture(t, "0101101001")
	for _, a := range []string{"11111", "00000", "1010"} {
		if _, err := primary.Append("c", a); err != nil {
			t.Fatal(err)
		}
	}
	plc := primary.Live("c")
	pos := plc.WALProgress()

	// A 1-byte cap cannot hold any record: each read widens to exactly one
	// whole record, and walking them covers the log.
	off := int64(0)
	records := 0
	for off < pos.Offset {
		chunk, _, err := plc.ReadWALChunk(pos.Gen, off, 1)
		if err != nil {
			t.Fatalf("ReadWALChunk(offset %d): %v", off, err)
		}
		if len(chunk) == 0 {
			t.Fatalf("ReadWALChunk(offset %d): empty chunk before end", off)
		}
		off += int64(len(chunk))
		records++
	}
	if off != pos.Offset {
		t.Fatalf("chunk walk ended at %d, want %d", off, pos.Offset)
	}
	if records != 3 {
		t.Fatalf("1-byte-cap walk shipped %d chunks, want 3 (one per record)", records)
	}

	// Caught up: nil chunk, current position echoed.
	chunk, cur, err := plc.ReadWALChunk(pos.Gen, pos.Offset, 0)
	if err != nil || chunk != nil || cur != pos {
		t.Fatalf("caught-up read: chunk=%v cur=%+v err=%v", chunk, cur, err)
	}
	// Past-end cursor is divergence, not data.
	if _, _, err := plc.ReadWALChunk(pos.Gen, pos.Offset+1, 0); !errors.Is(err, ErrReplicaDiverged) {
		t.Fatalf("past-end read: got %v, want ErrReplicaDiverged", err)
	}

	// Generation flip: after compact, old-generation reads return no data
	// and the new position, steering the caller to re-seed.
	if err := plc.Compact(); err != nil {
		t.Fatal(err)
	}
	chunk, cur, err = plc.ReadWALChunk(pos.Gen, 0, 0)
	if err != nil || chunk != nil {
		t.Fatalf("post-compact read: chunk=%v err=%v", chunk, err)
	}
	if cur.Gen != pos.Gen+1 {
		t.Fatalf("post-compact generation %d, want %d", cur.Gen, pos.Gen+1)
	}
}

// TestReplicaSeedRefusesLocalData: seeding must never overwrite a corpus
// that is not a replica — that history is writable and possibly unique.
func TestReplicaSeedRefusesLocalData(t *testing.T) {
	primary, _ := liveFixture(t, "0101101001")
	local, _ := liveFixture(t, "1110001110")
	if _, err := primary.Append("c", "11"); err != nil {
		t.Fatal(err)
	}
	if _, err := local.Append("c", "00"); err != nil {
		t.Fatal(err)
	}
	snap, gen, _, err := primary.Live("c").ReplicaSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := local.ReplicaSeed("c", gen, snap); err == nil || !IsValidation(err) {
		t.Fatalf("seeding over local data: got %v, want validation refusal", err)
	}
	if local.Live("c").IsReplica() {
		t.Fatal("refused seed still marked the corpus as a replica")
	}
}

// TestPromoteFencing is the failover contract: promotion durably clears the
// replica flag, bumps the generation, accepts local appends — and fences
// the old primary's frames with a typed StaleGenerationError, even across a
// restart.
func TestPromoteFencing(t *testing.T) {
	primary, _ := liveFixture(t, "0101101001")
	if _, err := primary.Append("c", "111"); err != nil {
		t.Fatal(err)
	}
	follower, dir := seedFollower(t, primary, "c")
	shipAll(t, primary, follower, "c", 0)
	oldPos := primary.Live("c").WALProgress()

	info, err := follower.Promote("c")
	if err != nil {
		t.Fatal(err)
	}
	if info.Replica {
		t.Fatal("promoted corpus still marked replica")
	}
	if info.Generation != oldPos.Gen+1 {
		t.Fatalf("promoted generation %d, want %d (fencing bump)", info.Generation, oldPos.Gen+1)
	}

	// The partitioned ex-primary keeps streaming old-generation frames.
	if _, err := primary.Append("c", "000"); err != nil {
		t.Fatal(err)
	}
	chunk, _, err := primary.Live("c").ReadWALChunk(oldPos.Gen, oldPos.Offset, 0)
	if err != nil {
		t.Fatal(err)
	}
	var stale *StaleGenerationError
	if _, err := follower.ReplicaApply("c", oldPos.Gen, oldPos.Offset, chunk); !errors.As(err, &stale) {
		t.Fatalf("stale-generation frame: got %v, want StaleGenerationError", err)
	}
	if stale.Frame != oldPos.Gen || stale.Current != oldPos.Gen+1 {
		t.Fatalf("fence error %+v, want frame gen %d against current %d", stale, oldPos.Gen, oldPos.Gen+1)
	}

	// The promoted corpus takes local writes.
	if _, err := follower.Append("c", "1100"); err != nil {
		t.Fatalf("append after promote: %v", err)
	}

	// Promotion is durable: a restart comes back writable and still fenced.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	f2 := reopen(t, dir)
	if _, isReplica, exists := f2.ReplicaCursor("c"); !exists || isReplica {
		t.Fatalf("after restart: exists=%v isReplica=%v, want writable corpus", exists, isReplica)
	}
	if _, err := f2.ReplicaApply("c", oldPos.Gen, oldPos.Offset, chunk); !errors.As(err, &stale) {
		t.Fatalf("post-restart stale frame: got %v, want StaleGenerationError", err)
	}
	if _, err := f2.Append("c", "01"); err != nil {
		t.Fatalf("append after restart: %v", err)
	}
}

// TestPromoteNonReplica: promoting a plain corpus is a validation error.
func TestPromoteNonReplica(t *testing.T) {
	e, _ := liveFixture(t, "0101101001")
	if _, err := e.Promote("c"); err == nil || !IsValidation(err) {
		t.Fatalf("promoting a non-replica: got %v, want validation error", err)
	}
}

// TestCompactVsTailRace runs WAL tailing (chunk reads + progress waits)
// against concurrent appends and compactions. Run with -race: the committed
// prefix is read outside the corpus mutex, and this is the proof the
// coordination is sound. Chunk readers must only ever see clean data,
// caught-up, a generation flip, or divergence — never torn bytes.
func TestCompactVsTailRace(t *testing.T) {
	primary, _ := liveFixture(t, "01011010")
	if _, err := primary.Append("c", "10"); err != nil {
		t.Fatal(err)
	}
	plc := primary.Live("c")
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // tailer: chase the log across generations
		defer wg.Done()
		gen, off := plc.WALProgress().Gen, int64(0)
		for ctx.Err() == nil {
			chunk, cur, err := plc.ReadWALChunk(gen, off, 64)
			switch {
			case errors.Is(err, ErrReplicaDiverged) || cur.Gen != gen:
				gen, off = cur.Gen, 0 // compaction: restart on the new log
			case err != nil:
				t.Errorf("ReadWALChunk: %v", err)
				return
			case chunk != nil:
				off += int64(len(chunk))
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	wg.Add(1)
	go func() { // waiter: block on progress like a live stream handler
		defer wg.Done()
		for ctx.Err() == nil {
			p := plc.WALProgress()
			wctx, wcancel := context.WithTimeout(ctx, 10*time.Millisecond)
			plc.WaitWALProgress(wctx, p.Gen, p.Offset)
			wcancel()
		}
	}()

	for i := 0; i < 120; i++ {
		if _, err := primary.Append("c", "10"); err != nil {
			t.Fatal(err)
		}
		if i%17 == 16 {
			if err := plc.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cancel()
	wg.Wait()
}
