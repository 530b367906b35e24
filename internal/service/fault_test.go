// Disk-fault and crash-consistency tests: the store/live-corpus stack runs
// on a vfs.Faulty filesystem that fails chosen operations (EIO, ENOSPC,
// short writes, failed fsyncs) or crashes mid-sequence, and every test
// asserts the durability contract — an acknowledged append is served
// bit-identically after recovery, an unacknowledged one never splits the
// acknowledged history.
package service

import (
	"bytes"
	"errors"
	"syscall"
	"testing"
	"time"

	"repro/internal/vfs"
)

// reopenFS is reopen on an injectable filesystem. The executor is closed at
// test end, stopping its commit pipeline.
func reopenFS(t *testing.T, dir string, fsys vfs.FS) *Executor {
	t.Helper()
	store, err := NewStoreFS(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	e := &Executor{Cache: NewCache(0), Store: store}
	t.Cleanup(func() { e.Close() })
	e.LoadCatalog(t.Logf)
	return e
}

// openLive opens name's live corpus on store with a commit pipeline of its
// own, stopped at test end.
func openLive(t *testing.T, store *Store, name string) (*LiveCorpus, error) {
	c := NewCommitter(0)
	t.Cleanup(c.Stop)
	return store.OpenLive(name, c)
}

// liveSymbols opens the live corpus fresh from dir (clean OS filesystem —
// "after reboot") and returns its served symbols plus the codec to encode
// expectations with.
func liveSymbols(t *testing.T, dir, name string) ([]byte, *Corpus) {
	t.Helper()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := openLive(t, store, name)
	if err != nil {
		t.Fatalf("reopening live corpus after faults: %v", err)
	}
	defer lc.Close()
	frozen := lc.Freeze()
	return frozen.Scanner.Symbols(), frozen
}

// wantSymbols asserts the corpus serves exactly text.
func wantSymbols(t *testing.T, dir, name, text string) {
	t.Helper()
	got, frozen := liveSymbols(t, dir, name)
	want, err := frozen.Codec.Encode(text)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served %d symbols, want %d (text %q)", len(got), len(want), text)
	}
}

// TestAppendFsyncFailureRollsBack: a failed WAL fsync refuses the append,
// rolls the log back to the acknowledged prefix, and leaves the corpus
// healthy — the next append succeeds and a restart replays exactly the
// acknowledged history.
func TestAppendFsyncFailureRollsBack(t *testing.T) {
	e, dir := liveFixture(t, "01011010")
	if _, err := e.Append("c", "11"); err != nil {
		t.Fatal(err)
	}
	e.Close()

	fsys := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{Nth: 1, Kinds: vfs.OpSync, Path: "wal-", Err: syscall.EIO})
	e2 := reopenFS(t, dir, fsys)
	if _, err := e2.Append("c", "00"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append under failed fsync: %v, want EIO", err)
	}
	// Reads keep serving and the corpus is NOT degraded: the rollback
	// restored the acknowledged prefix.
	if got, _ := execMSS(t, e2, "c"); got != libraryMSS(t, "0101101011") {
		t.Fatal("read after refused append diverged from the acknowledged history")
	}
	if infos := e2.LiveInfos(); len(infos) != 1 || infos[0].Degraded != nil {
		t.Fatalf("corpus degraded after a successful rollback: %+v", infos)
	}
	if _, err := e2.Append("c", "01"); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	e2.Close()
	wantSymbols(t, dir, "c", "0101101011"+"01")
}

// TestAppendShortWriteTornTail: ENOSPC mid-record leaves a torn frame; the
// rollback truncates it, and the acknowledged history stays intact across
// further appends and a restart.
func TestAppendShortWriteTornTail(t *testing.T) {
	e, dir := liveFixture(t, "01011010")
	if _, err := e.Append("c", "11"); err != nil {
		t.Fatal(err)
	}
	e.Close()

	fsys := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{Nth: 1, Kinds: vfs.OpWrite, Path: "wal-", Err: syscall.ENOSPC, Short: true})
	e2 := reopenFS(t, dir, fsys)
	if _, err := e2.Append("c", "000111"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append under ENOSPC: %v, want ENOSPC", err)
	}
	if _, err := e2.Append("c", "10"); err != nil {
		t.Fatalf("append after torn-tail rollback: %v", err)
	}
	e2.Close()
	wantSymbols(t, dir, "c", "0101101011"+"10")
}

// TestRollbackFailureDegradesThenSelfHeals: when the rollback itself fails
// (fsync of the truncation), the corpus degrades — appends refuse with an
// UnavailableError while reads keep serving — and the next append heals it
// in process once the disk recovers.
func TestRollbackFailureDegradesThenSelfHeals(t *testing.T) {
	e, dir := liveFixture(t, "01011010")
	if _, err := e.Append("c", "11"); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Fail the append's fsync AND the rollback's fsync behind it.
	fsys := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{Nth: 1, Count: 2, Kinds: vfs.OpSync, Path: "wal-", Err: syscall.EIO})
	e2 := reopenFS(t, dir, fsys)
	if _, err := e2.Append("c", "00"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append: %v, want EIO", err)
	}
	infos := e2.LiveInfos()
	if len(infos) != 1 || infos[0].Degraded == nil {
		t.Fatalf("corpus not degraded after failed rollback: %+v", infos)
	}
	// Reads keep working while degraded.
	if got, _ := execMSS(t, e2, "c"); got != libraryMSS(t, "0101101011") {
		t.Fatal("degraded corpus stopped serving reads")
	}
	// The next append triggers in-process recovery (the fault plan is
	// exhausted, so the disk "came back"): reopen the log, verify the
	// acknowledged prefix, truncate the stray record, and proceed.
	if _, err := e2.Append("c", "01"); err != nil {
		t.Fatalf("append after self-heal: %v", err)
	}
	if infos := e2.LiveInfos(); infos[0].Degraded != nil {
		t.Fatalf("corpus still degraded after successful recovery: %+v", infos[0].Degraded)
	}
	e2.Close()
	wantSymbols(t, dir, "c", "0101101011"+"01")
}

// TestDegradedBackoffAndManualRecover: failed recovery attempts back off
// exponentially and report 503-shaped UnavailableErrors; the manual Recover
// call bypasses the backoff and heals immediately once the disk works.
func TestDegradedBackoffAndManualRecover(t *testing.T) {
	e, dir := liveFixture(t, "01011010")
	if _, err := e.Append("c", "11"); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Sync failures: the append's, the rollback's, and the first recovery
	// attempt's — three consecutive.
	fsys := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{Nth: 1, Count: 3, Kinds: vfs.OpSync, Path: "wal-", Err: syscall.EIO})
	e2 := reopenFS(t, dir, fsys)
	if _, err := e2.Append("c", "00"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append: %v, want EIO", err)
	}
	// Second append attempts recovery immediately (first attempt is free),
	// which fails on the third injected sync → UnavailableError carrying a
	// backoff-shaped retry hint.
	_, err := e2.Append("c", "00")
	u, ok := IsUnavailable(err)
	if !ok {
		t.Fatalf("append while degraded: %v, want UnavailableError", err)
	}
	if u.RetryAfter <= 0 {
		t.Fatalf("no retry hint after a failed recovery attempt: %+v", u)
	}
	d := e2.LiveInfos()[0].Degraded
	if d == nil || d.Attempts != 1 {
		t.Fatalf("degraded info %+v, want 1 failed recovery attempt", d)
	}
	// Manual recovery skips the backoff; the fault plan is exhausted, so it
	// succeeds and appends resume.
	info, err := e2.Recover("c")
	if err != nil {
		t.Fatalf("manual recover: %v", err)
	}
	if info.Degraded != nil {
		t.Fatalf("recovered corpus still reports degraded: %+v", info.Degraded)
	}
	if _, err := e2.Append("c", "01"); err != nil {
		t.Fatalf("append after manual recover: %v", err)
	}
	e2.Close()
	wantSymbols(t, dir, "c", "0101101011"+"01")

	// Recover on a non-live corpus is a validation error, not a crash.
	if _, err := e2.Recover("nope"); !IsValidation(err) {
		t.Fatalf("recover of non-live corpus: %v, want validation error", err)
	}
}

// TestStoreSaveFaults: a failed snapshot write refuses the upload and
// leaves no stray temp file behind; the store keeps working afterwards.
func TestStoreSaveFaults(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{Nth: 1, Kinds: vfs.OpWrite, Path: ".tmp-", Err: syscall.ENOSPC})
	store, err := NewStoreFS(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	e := &Executor{Cache: NewCache(0), Store: store}
	if _, _, err := e.AddCorpus("c", "01011010", ModelSpec{}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("upload under ENOSPC: %v, want ENOSPC", err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed upload left %d stray files", len(entries))
	}
	if _, _, err := e.AddCorpus("c", "01011010", ModelSpec{}); err != nil {
		t.Fatalf("upload after fault cleared: %v", err)
	}
}

// crashWorkload is the deterministic sequence the crash harness walks: open
// the live corpus with a commit pipeline, append twice, compact, append once
// more. It returns the texts of the appends that were ACKNOWLEDGED
// (returned nil) — the history recovery must serve.
func crashWorkload(store *Store) (acked []string) {
	steps := []string{"0011", "1101", "", "10"} // "" marks the compaction
	c := NewCommitter(time.Millisecond)
	defer c.Stop()
	lc, err := store.OpenLive("c", c)
	if err != nil {
		return nil
	}
	defer lc.Close()
	for _, step := range steps {
		if step == "" {
			lc.Compact()
			continue
		}
		if _, err := lc.Append(step); err == nil {
			acked = append(acked, step)
		}
	}
	return acked
}

// crashSetup builds a fresh live corpus directory on the real filesystem:
// base text plus one acknowledged append (so generation 0 has a non-empty
// log before the workload runs).
func crashSetup(t *testing.T) string {
	t.Helper()
	e, dir := liveFixture(t, "010110")
	if _, err := e.Append("c", "11"); err != nil {
		t.Fatal(err)
	}
	e.Close()
	return dir
}

// TestCrashConsistencyHarness walks every filesystem operation of the
// append/compact workload through the group-commit pipeline — including
// between a batch's WAL write and its covering fsync — crashing at each in
// turn, and asserts after each crash that reopening on the clean filesystem
// serves the acknowledged history bit-identically — allowing only a single
// trailing unacknowledged append (a record can be durable without having
// been acknowledged; it must never split or truncate the acknowledged
// prefix).
func TestCrashConsistencyHarness(t *testing.T) {
	// Measure the workload: run it on a counting filesystem that never
	// fires.
	dir := crashSetup(t)
	counter := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{})
	store, err := NewStoreFS(dir, counter)
	if err != nil {
		t.Fatal(err)
	}
	allAcked := crashWorkload(store)
	total := counter.Ops()
	if total < 10 {
		t.Fatalf("workload performed only %d filesystem ops; harness is not exercising the stack", total)
	}
	if len(allAcked) != 3 {
		t.Fatalf("fault-free workload acknowledged %d appends, want 3", len(allAcked))
	}
	t.Logf("crash harness: workload spans %d filesystem operations", total)

	base := "010110" + "11" // setup text + setup append
	for n := 1; n <= total; n++ {
		dir := crashSetup(t)
		fsys := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{Nth: n, Crash: true})
		var acked []string
		// Crashing inside store creation itself is a legal crash point: the
		// workload simply never ran, and recovery must serve the setup state.
		if store, err := NewStoreFS(dir, fsys); err == nil {
			acked = crashWorkload(store)
		}
		if !fsys.Fired() {
			t.Fatalf("crash@%d never fired (workload only reached %d ops)", n, fsys.Ops())
		}

		// "Reboot": clean filesystem, fresh open, compare symbol-for-symbol.
		got, frozen := liveSymbols(t, dir, "c")
		expect := base
		for _, a := range acked {
			expect += a
		}
		want, err := frozen.Codec.Encode(expect)
		if err != nil {
			t.Fatalf("crash@%d: %v", n, err)
		}
		if len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("crash@%d: served %d symbols, acknowledged history of %d symbols not a prefix (acked %q)",
				n, len(got), len(want), acked)
		}
		if rest := got[len(want):]; len(rest) > 0 {
			// The only legal surplus: the one append that was in flight at
			// the crash — durable in the log but never acknowledged.
			if !isWorkloadStep(frozen, rest) {
				t.Fatalf("crash@%d: %d surplus symbols are not a single in-flight append (acked %q)",
					n, len(rest), acked)
			}
			t.Logf("crash@%d: unacknowledged in-flight append survived (legal): %d symbols", n, len(rest))
		}
	}
}

// isWorkloadStep reports whether syms is the encoding of one workload
// append step.
func isWorkloadStep(frozen *Corpus, syms []byte) bool {
	for _, step := range []string{"0011", "1101", "10"} {
		enc, err := frozen.Codec.Encode(step)
		if err == nil && bytes.Equal(syms, enc) {
			return true
		}
	}
	return false
}

// TestCompactCrashKeepsOldGeneration pins the compaction commit protocol:
// crashing at every operation of a lone Compact call leaves a directory
// that reopens to the identical history — either the old generation (crash
// before the manifest flip) or the new one (after).
func TestCompactCrashKeepsOldGeneration(t *testing.T) {
	full := "010110" + "11"
	// Count a fault-free compact.
	dir := crashSetup(t)
	counter := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{})
	store, err := NewStoreFS(dir, counter)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := openLive(t, store, "c")
	if err != nil {
		t.Fatal(err)
	}
	opensAt := counter.Ops() // ops consumed by OpenLive itself
	if err := lc.Compact(); err != nil {
		t.Fatal(err)
	}
	lc.Close()
	total := counter.Ops()
	if total <= opensAt {
		t.Fatal("compact performed no filesystem ops")
	}

	for n := opensAt + 1; n <= total; n++ {
		dir := crashSetup(t)
		fsys := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{Nth: n, Crash: true})
		store, err := NewStoreFS(dir, fsys)
		if err != nil {
			t.Fatal(err)
		}
		if lc, err := openLive(t, store, "c"); err == nil {
			lc.Compact() // expected to fail at some step; the protocol must absorb it
			lc.Close()
		}
		wantSymbols(t, dir, "c", full)
	}
	t.Logf("compaction crash walk: ops %d..%d all recovered", opensAt+1, total)
}

// TestFaultErrorsAreNotValidation: injected faults must surface as server
// errors (500/503 shaped), never as client mistakes.
func TestFaultErrorsAreNotValidation(t *testing.T) {
	e, dir := liveFixture(t, "01011010")
	if _, err := e.Append("c", "11"); err != nil {
		t.Fatal(err)
	}
	e.Close()
	fsys := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{Nth: 1, Kinds: vfs.OpSync, Path: "wal-"})
	e2 := reopenFS(t, dir, fsys)
	_, err := e2.Append("c", "00")
	if err == nil || IsValidation(err) {
		t.Fatalf("injected fault surfaced as %v; must not be a validation error", err)
	}
	e2.Close()
}
