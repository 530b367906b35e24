// Group-commit tests: correctness of the batched-fsync pipeline (every
// acknowledged append durable and bit-identically replayed, and counted and
// published before its ack), the no-stall property the restructured Append
// buys (reads and queued appends proceed while an fsync is in flight),
// whole-batch failure semantics, and relaxed-mode loss bounds. The crash
// harness in fault_test.go walks the same pipeline.
package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/snapshot"
	"repro/internal/vfs"
)

// gcExecutor builds an executor with a group-commit pipeline over dir on
// fsys, catalog loaded, and stops the pipeline at test end.
func gcExecutor(t *testing.T, dir string, fsys vfs.FS, interval time.Duration) *Executor {
	t.Helper()
	store, err := NewStoreFS(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	e := &Executor{Cache: NewCache(0), Store: store, Commit: NewCommitter(interval)}
	e.LoadCatalog(t.Logf)
	t.Cleanup(func() { e.Close() })
	return e
}

// TestGroupCommitConcurrentAppends: many goroutines appending to one corpus
// through the pipeline — every acknowledged record is applied in WAL order,
// served after restart, and the pipeline amortized fsyncs (fewer fsyncs
// than appends under concurrency... asserted loosely: stats are consistent,
// batching is ≥ 1 append per fsync).
func TestGroupCommitConcurrentAppends(t *testing.T) {
	_, dir := liveFixtureClosed(t, "01011010")
	e := gcExecutor(t, dir, vfs.OS, time.Millisecond)

	const clients, rounds = 8, 10
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := e.Append("c", "0110"); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	infos := e.LiveInfos()
	if len(infos) != 1 || infos[0].Commit == nil {
		t.Fatalf("live info carries no commit stats: %+v", infos)
	}
	cs := *infos[0].Commit
	if cs.Records != clients*rounds {
		t.Fatalf("pipeline recorded %d records, want %d", cs.Records, clients*rounds)
	}
	if cs.Fsyncs == 0 || cs.Fsyncs > cs.Records {
		t.Fatalf("pipeline fsyncs %d inconsistent with %d records", cs.Fsyncs, cs.Records)
	}
	if cs.Pending != 0 {
		t.Fatalf("pipeline still has %d pending records after all appends acked", cs.Pending)
	}
	t.Logf("group commit: %d records over %d fsyncs (%.1f appends/fsync, max batch %d)",
		cs.Records, cs.Fsyncs, cs.AppendsPerFsync, cs.MaxBatch)

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart on a clean filesystem: base + setup append + 80 records.
	got, frozen := liveSymbols(t, dir, "c")
	want, err := frozen.Codec.Encode("01011010" + "01" + repeat("0110", clients*rounds))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restart serves %d symbols, want %d", len(got), len(want))
	}
}

// TestAckedAppendIsCountedAndPublished: an append is acknowledged only
// after its batch is counted and its WAL position published, so the info
// it returns and the corpus's committed position already include it — the
// cursor followers are compared against, and the offset auto-compaction
// reads right after the ack.
func TestAckedAppendIsCountedAndPublished(t *testing.T) {
	e, _ := liveFixture(t, "01011010")
	if _, err := e.Append("c", "01"); err != nil {
		t.Fatal(err) // promote once, outside the loop
	}
	lc := e.liveGet("c")
	for i := 1; i <= 200; i++ {
		before := lc.WALProgress().Offset
		info, err := e.Append("c", "0110")
		if err != nil {
			t.Fatal(err)
		}
		if info.Commit == nil || info.Commit.Records != uint64(i+1) {
			t.Fatalf("append %d acknowledged with commit stats %+v, want %d records", i, info.Commit, i+1)
		}
		if got, want := lc.WALProgress().Offset, before+snapshot.WALRecordSize(4); got != want {
			t.Fatalf("append %d acknowledged at WAL offset %d, want %d", i, got, want)
		}
	}
}

func repeat(s string, n int) string {
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, s...)
	}
	return string(b)
}

// liveFixtureClosed is liveFixture plus one acknowledged append and a clean
// close, leaving a live directory on disk for a fresh executor to adopt.
func liveFixtureClosed(t *testing.T, text string) (*Executor, string) {
	t.Helper()
	e, dir := liveFixture(t, text)
	if _, err := e.Append("c", text[:2]); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return e, dir
}

// TestAppendDoesNotStallReads is the read-stall regression test: with every
// WAL fsync slowed to a crawl, a read (Freeze + scan) issued while appends
// are blocked on the fsync completes immediately — the corpus mutex is no
// longer held across the durability wait.
func TestAppendDoesNotStallReads(t *testing.T) {
	const syncDelay = 100 * time.Millisecond
	_, dir := liveFixtureClosed(t, "01011010")
	fsys := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{
		Nth: 1, Count: 1 << 20, Kinds: vfs.OpSync, Path: "wal-", Delay: syncDelay,
	})
	e := gcExecutor(t, dir, fsys, time.Millisecond)

	// Launch an append and give its covering fsync time to start.
	appendDone := make(chan error, 1)
	go func() {
		_, err := e.Append("c", "11")
		appendDone <- err
	}()
	time.Sleep(syncDelay / 4)

	// The append is parked inside the slow fsync. Reads must not be.
	start := time.Now()
	if got, _ := execMSS(t, e, "c"); got != libraryMSS(t, "01011010"+"01") {
		t.Fatal("read during in-flight fsync served the wrong history")
	}
	if infos := e.LiveInfos(); len(infos) != 1 {
		t.Fatalf("LiveInfos during in-flight fsync: %+v", infos)
	}
	if readTime := time.Since(start); readTime > syncDelay/2 {
		t.Fatalf("read stalled %v behind an in-flight fsync (delay %v)", readTime, syncDelay)
	}
	if err := <-appendDone; err != nil {
		t.Fatalf("slow-fsync append: %v", err)
	}
}

// TestGroupCommitPipelinesConcurrentAppends: with every fsync taking a
// fixed delay, N concurrent appends to ONE corpus must complete in a few
// fsync windows, not N — the queue forming behind an in-flight fsync is
// covered wholesale by the next one.
func TestGroupCommitPipelinesConcurrentAppends(t *testing.T) {
	const (
		syncDelay = 50 * time.Millisecond
		clients   = 8
	)
	_, dir := liveFixtureClosed(t, "01011010")
	fsys := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{
		Nth: 1, Count: 1 << 20, Kinds: vfs.OpSync, Path: "wal-", Delay: syncDelay,
	})
	e := gcExecutor(t, dir, fsys, time.Millisecond)

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Append("c", "0110")
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	// Serial per-append fsyncs would take clients*syncDelay. The pipeline
	// needs at most ~3 windows: one in flight when the stragglers enqueue,
	// one covering them, plus scheduling slack.
	if limit := 4 * syncDelay; elapsed >= limit {
		t.Fatalf("%d concurrent appends took %v; pipelining should bound this by %v (serial would be %v)",
			clients, elapsed, limit, time.Duration(clients)*syncDelay)
	}
	t.Logf("%d concurrent appends with %v fsyncs completed in %v (serial: %v)",
		clients, syncDelay, elapsed, time.Duration(clients)*syncDelay)
}

// TestGroupFsyncEIOFailsWholeBatch: a failing covering fsync refuses EVERY
// append it covered (and any queued behind it) with the typed disk error —
// never acknowledging some members of a batch whose durability barrier
// failed — and the rollback leaves the corpus healthy: the next append
// succeeds, and a restart serves exactly the acknowledged history.
func TestGroupFsyncEIOFailsWholeBatch(t *testing.T) {
	const syncDelay = 50 * time.Millisecond
	_, dir := liveFixtureClosed(t, "01011010")
	// First WAL fsync: slow AND failing, so the whole batch queues behind
	// it before the failure lands. Later syncs (rollback, next append)
	// succeed.
	fsys := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{
		Nth: 1, Kinds: vfs.OpSync, Path: "wal-", Err: syscall.EIO, Delay: syncDelay,
	})
	e := gcExecutor(t, dir, fsys, time.Millisecond)

	const clients = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Append("c", "0110")
		}(i)
		if i == 0 {
			// Let the first append's covering fsync get in flight so the
			// rest provably queue behind the failing barrier.
			time.Sleep(syncDelay / 4)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("batch member %d: %v, want EIO (the whole batch must fail)", i, err)
		}
	}
	// The rollback restored the acknowledged prefix; the corpus is healthy.
	if infos := e.LiveInfos(); len(infos) != 1 || infos[0].Degraded != nil {
		t.Fatalf("corpus degraded after a successful batch rollback: %+v", infos)
	}
	if _, err := e.Append("c", "10"); err != nil {
		t.Fatalf("append after batch failure: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wantSymbols(t, dir, "c", "01011010"+"01"+"10")
}

// TestRelaxedModeAcksBeforeFsync: relaxed appends return before any fsync
// and become durable (and visible to queries) at the covering flush; a
// clean close drains them. The durability downgrade is per append — fsync
// appends through the same pipeline still wait.
func TestRelaxedModeAcksBeforeFsync(t *testing.T) {
	const syncDelay = 100 * time.Millisecond
	_, dir := liveFixtureClosed(t, "01011010")
	fsys := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{
		Nth: 1, Count: 1 << 20, Kinds: vfs.OpSync, Path: "wal-", Delay: syncDelay,
	})
	e := gcExecutor(t, dir, fsys, time.Hour) // no timer flush inside the test

	start := time.Now()
	if _, err := e.AppendMode("c", "11", DurabilityRelaxed); err != nil {
		t.Fatalf("relaxed append: %v", err)
	}
	if acked := time.Since(start); acked >= syncDelay {
		t.Fatalf("relaxed append took %v; must ack on WAL write, not wait out the %v fsync", acked, syncDelay)
	}
	if err := e.Close(); err != nil { // drains: one covering fsync
		t.Fatal(err)
	}
	wantSymbols(t, dir, "c", "01011010"+"01"+"11")
}

// TestRelaxedModeCrashLosesOnlyUnfsyncedWindow: relaxed records acked but
// not yet covered by an fsync are the loss window — a crash drops them,
// and ONLY them: everything fsync-covered is served after reopen, and the
// loss is counted in the pipeline stats.
func TestRelaxedModeCrashLosesOnlyUnfsyncedWindow(t *testing.T) {
	_, dir := liveFixtureClosed(t, "01011010")
	store, err := NewStoreFS(dir, vfs.NewFaulty(vfs.OS, vfs.FaultPlan{
		Nth: 1, Kinds: vfs.OpSync, Path: "wal-", Crash: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(time.Hour) // the crash, not the timer, ends the window
	defer c.Stop()
	lc, err := store.OpenLive("c", c)
	if err != nil {
		t.Fatal(err)
	}

	// Two relaxed appends ride the page cache, acked but uncovered.
	for _, text := range []string{"11", "00"} {
		if _, err := lc.AppendMode(text, DurabilityRelaxed); err != nil {
			t.Fatalf("relaxed append %q: %v", text, err)
		}
	}
	// The covering fsync (from Close's drain) crashes the filesystem: the
	// window is lost, the loss is counted.
	lc.Close()
	if lost := lc.CommitStats().RelaxedLost; lost != 2 {
		t.Fatalf("pipeline counted %d lost relaxed records, want 2", lost)
	}
	// The unfsynced records were only ever in the page cache; a real crash
	// may or may not have landed them. Simulate the losing outcome — cut
	// the WAL back to the fsync-covered prefix (mid-record, the torn shape
	// a partial page-cache flush leaves) — and reopen: exactly the covered
	// history, corpus healthy. Surviving records would also be legal ("at
	// most the window"), but the loss bound is what this test pins.
	walPath := filepath.Join(dir, base64Name("c")+liveExt, walName(0))
	covered := int64(snapshot.WALRecordSize(2)) // the setup append "01"
	if err := os.Truncate(walPath, covered+5); err != nil {
		t.Fatal(err)
	}
	wantSymbols(t, dir, "c", "01011010"+"01")
}

// TestGroupCommitCompactDrains: Compact on a corpus with queued records
// settles the pipeline first — every acknowledged record is sealed into
// the new base, none is left riding a log that is about to be superseded.
func TestGroupCommitCompactDrains(t *testing.T) {
	_, dir := liveFixtureClosed(t, "01011010")
	e := gcExecutor(t, dir, vfs.OS, time.Hour)
	if _, err := e.AppendMode("c", "11", DurabilityRelaxed); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compact("c"); err != nil {
		t.Fatalf("compact with queued relaxed record: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wantSymbols(t, dir, "c", "01011010"+"01"+"11")
}

// crashBatchSteps is the batched crash workload: relaxed appends queue
// behind an hour-long idle floor until an fsync-mode append flushes them
// with it, so covering fsyncs land multi-record batches. "" marks the
// compaction, which drains the queued relaxed record before sealing.
var crashBatchSteps = []struct {
	text    string
	relaxed bool
}{
	{"0011", true}, {"1101", true}, {"01", false}, {"10", true}, {"", false}, {"0110", false},
}

// crashWorkloadGC runs crashBatchSteps and returns the appended texts in
// WAL order, how many of them the last acknowledged fsync-mode append
// covers (the history recovery must serve), and the corpus's pipeline
// counters.
func crashWorkloadGC(store *Store) (appends []string, durable int, stats CommitStats) {
	c := NewCommitter(time.Hour) // only fsync-mode appends and Compact flush
	defer c.Stop()
	lc, err := store.OpenLive("c", c)
	if err != nil {
		return nil, 0, CommitStats{}
	}
	defer lc.Close()
	for _, step := range crashBatchSteps {
		if step.text == "" {
			lc.Compact()
			continue
		}
		mode := DurabilityFsync
		if step.relaxed {
			mode = DurabilityRelaxed
		}
		_, err := lc.AppendMode(step.text, mode)
		appends = append(appends, step.text)
		if err == nil && !step.relaxed {
			durable = len(appends)
		}
	}
	return appends, durable, lc.CommitStats()
}

// TestCrashConsistencyHarnessGroupCommit walks the crash harness over
// multi-record batches: crash at every filesystem operation of
// crashBatchSteps — including between a batch's single WAL write and its
// covering fsync — and assert the reopened corpus serves a record-boundary
// prefix of the appends that holds every append up to the last
// acknowledged fsync-mode one. Relaxed records past it are the loss
// window; they may or may not survive, but never out of order or torn.
func TestCrashConsistencyHarnessGroupCommit(t *testing.T) {
	dir := crashSetup(t)
	counter := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{})
	store, err := NewStoreFS(dir, counter)
	if err != nil {
		t.Fatal(err)
	}
	appends, durable, stats := crashWorkloadGC(store)
	total := counter.Ops()
	if total < 10 {
		t.Fatalf("workload performed only %d filesystem ops; harness is not exercising the stack", total)
	}
	if durable != len(appends) || durable != 5 {
		t.Fatalf("fault-free workload covered %d of %d appends, want 5 of 5", durable, len(appends))
	}
	if stats.MaxBatch < 3 {
		t.Fatalf("largest batch covered %d records, want the 3 queued before the first fsync-mode append", stats.MaxBatch)
	}
	t.Logf("batched crash harness: workload spans %d filesystem operations", total)

	base := "010110" + "11" // setup text + setup append
	for n := 1; n <= total; n++ {
		dir := crashSetup(t)
		fsys := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{Nth: n, Crash: true})
		var appends []string
		durable := 0
		if store, err := NewStoreFS(dir, fsys); err == nil {
			appends, durable, _ = crashWorkloadGC(store)
		}
		if !fsys.Fired() {
			t.Fatalf("crash@%d never fired (workload only reached %d ops)", n, fsys.Ops())
		}

		got, frozen := liveSymbols(t, dir, "c")
		kept := -1
		expect := base
		for k := 0; k <= len(appends); k++ {
			if k > 0 {
				expect += appends[k-1]
			}
			want, err := frozen.Codec.Encode(expect)
			if err != nil {
				t.Fatalf("crash@%d: %v", n, err)
			}
			if bytes.Equal(got, want) {
				kept = k
				break
			}
		}
		if kept < 0 {
			t.Fatalf("crash@%d: served %d symbols, not a record-boundary prefix of the appends %q", n, len(got), appends)
		}
		if kept < durable {
			t.Fatalf("crash@%d: served %d appends, but an acknowledged fsync covered %d (%q)", n, kept, durable, appends)
		}
		if kept > durable {
			t.Logf("crash@%d: %d uncovered records survived (legal)", n, kept-durable)
		}
	}
}

// TestGroupCommitNodeStats: the committer aggregates node-wide counters
// across corpora — what mssd reports under healthz "commit".
func TestGroupCommitNodeStats(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := &Executor{Cache: NewCache(0), Store: store, Commit: NewCommitter(time.Millisecond)}
	defer e.Close()
	for _, name := range []string{"a", "b"} {
		if _, _, err := e.AddCorpus(name, "01011010", ModelSpec{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := e.Append(name, "01"); err != nil {
				t.Fatal(err)
			}
		}
	}
	ns := e.Commit.Stats()
	if ns.Records != 6 {
		t.Fatalf("node-wide records %d, want 6", ns.Records)
	}
	if ns.Fsyncs == 0 || ns.Fsyncs > ns.Records {
		t.Fatalf("node-wide fsyncs %d inconsistent with %d records", ns.Fsyncs, ns.Records)
	}
	if ns.AppendsPerFsync < 1 {
		t.Fatalf("appends/fsync %.2f, want >= 1", ns.AppendsPerFsync)
	}
	if ns.MaxTicketWait <= 0 {
		t.Fatal("max ticket wait not recorded")
	}
}

// TestGroupCommitAppendOtherCorpusUnblocked: a slow fsync on corpus A must
// not delay appends to corpus B — per-corpus flushes run concurrently.
func TestGroupCommitAppendOtherCorpusUnblocked(t *testing.T) {
	const syncDelay = 100 * time.Millisecond
	// Build both live corpora on the plain filesystem first, so promotion's
	// own syncs don't eat the delay budget.
	dir := t.TempDir()
	setup, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	se := &Executor{Cache: NewCache(0), Store: setup}
	for _, name := range []string{"a", "b"} {
		if _, _, err := se.AddCorpus(name, "01011010", ModelSpec{}); err != nil {
			t.Fatal(err)
		}
		if _, err := se.Append(name, "01"); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Close(); err != nil {
		t.Fatal(err)
	}
	// Only corpus a's WAL is slow (path-matched on its base64url directory
	// "YQ.live"; corpus b lives in "Yg.live").
	fsys := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{
		Nth: 1, Count: 1 << 20, Kinds: vfs.OpSync, Path: "YQ.live/wal-", Delay: syncDelay,
	})
	e := gcExecutor(t, dir, fsys, time.Millisecond)
	slowDone := make(chan error, 1)
	go func() {
		_, err := e.Append("a", "11")
		slowDone <- err
	}()
	time.Sleep(syncDelay / 4)
	start := time.Now()
	if _, err := e.Append("b", "11"); err != nil {
		t.Fatalf("append to b: %v", err)
	}
	if fastTime := time.Since(start); fastTime > syncDelay/2 {
		t.Fatalf("append to corpus b took %v while corpus a's fsync was in flight (%v)", fastTime, syncDelay)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("append to a: %v", err)
	}
}

// TestDurabilityString covers the wire parsing of durability modes used by
// the daemon's append endpoint.
func TestDurabilityString(t *testing.T) {
	cases := []struct {
		in      string
		want    Durability
		wantErr bool
	}{
		{"", DurabilityFsync, false},
		{"fsync", DurabilityFsync, false},
		{"relaxed", DurabilityRelaxed, false},
		{"yolo", 0, true},
	}
	for _, c := range cases {
		got, err := ParseDurability(c.in)
		if c.wantErr {
			if err == nil || !IsValidation(err) {
				t.Fatalf("ParseDurability(%q): %v, want validation error", c.in, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Fatalf("ParseDurability(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if s := fmt.Sprint(DurabilityFsync, DurabilityRelaxed); s == "" {
		t.Fatal("unreachable")
	}
}
