// Replication harness: a real primary executor served over httptest, a real
// follower executor applying through the service tap, and fault injection on
// both the wire (NetFaulty: drop/dup/sever/error/partition at every frame
// boundary) and the follower's filesystem (vfs.Faulty: crash at every file
// operation). The invariant under every fault: the follower serves a
// bit-identical prefix of the primary's acknowledged history, and converges
// to equality once the fault lifts.
package replica

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/vfs"
)

// testText and testAppends build a primary history spanning several WAL
// records, so small chunk sizes turn it into several frames.
const testText = "01011010101001010110"

var testAppends = []string{"11111111", "0101010101", "1", "000111000111", "00", "1010101"}

// newNode builds an empty executor over a fresh store directory.
func newNode(t *testing.T) (*service.Executor, string) {
	t.Helper()
	dir := t.TempDir()
	return nodeOver(t, dir, vfs.OS), dir
}

// nodeOver builds an executor over dir with an injectable filesystem,
// replaying whatever catalog is there.
func nodeOver(t *testing.T, dir string, fsys vfs.FS) *service.Executor {
	t.Helper()
	store, err := service.NewStoreFS(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	e := &service.Executor{Cache: service.NewCache(0), Store: store}
	e.LoadCatalog(nil)
	t.Cleanup(func() { e.Close() })
	return e
}

// newPrimary builds a primary with the standard history.
func newPrimary(t *testing.T) (*service.Executor, string) {
	t.Helper()
	e, dir := newNode(t)
	if _, _, err := e.AddCorpus("c", testText, service.ModelSpec{}); err != nil {
		t.Fatal(err)
	}
	for _, a := range testAppends {
		if _, err := e.Append("c", a); err != nil {
			t.Fatal(err)
		}
	}
	return e, dir
}

// sourceFor serves e's replication endpoints over a real HTTP listener with
// a small chunk size, so the standard history ships as several frames.
func sourceFor(t *testing.T, e *service.Executor) *HTTPSource {
	t.Helper()
	mux := http.NewServeMux()
	(&Server{Exec: e, ChunkBytes: 48, Heartbeat: 20 * time.Millisecond}).Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &HTTPSource{Base: ts.URL}
}

// walBytes reads the on-disk log of generation gen (empty when absent).
func walBytes(t *testing.T, dir, name string, gen int) []byte {
	t.Helper()
	live := base64.RawURLEncoding.EncodeToString([]byte(name)) + ".live"
	b, err := os.ReadFile(filepath.Join(dir, live, fmt.Sprintf("wal-%d.log", gen)))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		t.Fatal(err)
	}
	return b
}

// mssOf runs the MSS query, returning the result row and corpus info.
func mssOf(t *testing.T, e *service.Executor) (service.Result, service.Info) {
	t.Helper()
	resp, err := e.Execute(service.BatchRequest{Corpus: "c", Queries: []service.Query{{Kind: "mss"}}})
	if err != nil {
		t.Fatalf("mss query: %v", err)
	}
	return resp.Results[0].Results[0], resp.Corpus
}

// assertPrefix asserts the follower's state is a bit-identical prefix of the
// primary's acknowledged history: same generation implies its log bytes are
// a literal prefix of the primary's log and its cursor points at their end.
// A follower mid-reseed (generation behind) trivially satisfies the
// invariant and is skipped.
func assertPrefix(t *testing.T, primary *service.Executor, pdir string, follower *service.Executor, fdir string) {
	t.Helper()
	fp, isReplica, exists := follower.ReplicaCursor("c")
	if !exists {
		return // not seeded yet: the empty prefix
	}
	if !isReplica {
		t.Fatal("follower corpus lost its replica flag")
	}
	pp := primary.Live("c").WALProgress()
	if fp.Gen != pp.Gen {
		return // across a compaction; prefix is judged per generation
	}
	pw, fw := walBytes(t, pdir, "c", pp.Gen), walBytes(t, fdir, "c", fp.Gen)
	if int64(len(fw)) != fp.Offset {
		t.Fatalf("follower log holds %d bytes but its cursor says %d", len(fw), fp.Offset)
	}
	if !bytes.HasPrefix(pw, fw) {
		t.Fatalf("follower log (%d bytes) is not a prefix of the primary log (%d bytes)", len(fw), len(pw))
	}
}

// assertConverged asserts full equality: cursors match, logs are
// bit-identical, and both nodes answer the MSS query identically.
func assertConverged(t *testing.T, primary *service.Executor, pdir string, follower *service.Executor, fdir string) {
	t.Helper()
	pp := primary.Live("c").WALProgress()
	fp, isReplica, exists := follower.ReplicaCursor("c")
	if !exists || !isReplica {
		t.Fatalf("follower: exists=%v isReplica=%v", exists, isReplica)
	}
	if fp != pp {
		t.Fatalf("follower cursor %+v, primary position %+v", fp, pp)
	}
	pw, fw := walBytes(t, pdir, "c", pp.Gen), walBytes(t, fdir, "c", fp.Gen)
	if !bytes.Equal(pw, fw) {
		t.Fatalf("logs differ: primary %d bytes, follower %d bytes", len(pw), len(fw))
	}
	pres, pinfo := mssOf(t, primary)
	fres, finfo := mssOf(t, follower)
	if pres != fres {
		t.Fatalf("follower MSS %+v, primary MSS %+v", fres, pres)
	}
	if finfo.N != pinfo.N {
		t.Fatalf("follower n=%d, primary n=%d", finfo.N, pinfo.N)
	}
}

// syncToConvergence drives SyncOnce until the follower matches the
// primary's committed position, tolerating up to budget transient failures
// and asserting the prefix invariant after every attempt.
func syncToConvergence(t *testing.T, sess *Session, primary *service.Executor, pdir string, follower *service.Executor, fdir string, budget int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; ; i++ {
		err := sess.SyncOnce(ctx)
		assertPrefix(t, primary, pdir, follower, fdir)
		if err == nil {
			if p, _, ok := follower.ReplicaCursor("c"); ok && p == primary.Live("c").WALProgress() {
				return
			}
			// A dropped tail frame can end a catch-up stream early; a fresh
			// attempt resumes from the durable cursor.
		}
		if i >= budget {
			t.Fatalf("no convergence after %d attempts, last error: %v", i+1, err)
		}
	}
}

// TestReplicationBasic: seed + catch-up produces a bit-identical follower;
// new appends ship incrementally; a primary compaction forces a clean
// snapshot re-seed; appends after the compaction ship on the new
// generation.
func TestReplicationBasic(t *testing.T) {
	primary, pdir := newPrimary(t)
	src := sourceFor(t, primary)
	follower, fdir := newNode(t)
	sess := &Session{Exec: follower, Src: src, Name: "c"}

	if err := sess.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, primary, pdir, follower, fdir)

	// Incremental: new history flows from the durable cursor.
	if _, err := primary.Append("c", "110011"); err != nil {
		t.Fatal(err)
	}
	if err := sess.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, primary, pdir, follower, fdir)

	// Compaction: the follower's generation is gone; it re-seeds and
	// resumes on the new log.
	if err := primary.Live("c").Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Append("c", "0001"); err != nil {
		t.Fatal(err)
	}
	if err := sess.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, primary, pdir, follower, fdir)

	// The discovery listing carries the corpus and its position.
	metas, err := src.Corpora(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || metas[0].Name != "c" || metas[0].Gen != primary.Live("c").WALProgress().Gen {
		t.Fatalf("discovery listing %+v", metas)
	}
}

// TestReplicationFollowerRestart: kill the follower (drop its executor),
// reopen the directory, and resume — the durable cursor carries replication
// forward with no re-seed and no divergence.
func TestReplicationFollowerRestart(t *testing.T) {
	primary, pdir := newPrimary(t)
	src := sourceFor(t, primary)
	follower, fdir := newNode(t)
	if err := (&Session{Exec: follower, Src: src, Name: "c"}).SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	cursor, _, _ := follower.ReplicaCursor("c")
	follower.Close()

	if _, err := primary.Append("c", "010101"); err != nil {
		t.Fatal(err)
	}
	f2 := nodeOver(t, fdir, vfs.OS)
	p2, isReplica, exists := f2.ReplicaCursor("c")
	if !exists || !isReplica || p2 != cursor {
		t.Fatalf("after restart: exists=%v isReplica=%v cursor=%+v want %+v", exists, isReplica, p2, cursor)
	}
	if err := (&Session{Exec: f2, Src: src, Name: "c"}).SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, primary, pdir, f2, fdir)
}

// TestReplicationNetFaultWalk injects one wire fault — an error, a severed
// stream, a dropped frame, a duplicated frame — at EVERY frame boundary of
// the catch-up stream, asserting the prefix invariant after the fault and
// full convergence on retry.
func TestReplicationNetFaultWalk(t *testing.T) {
	primary, pdir := newPrimary(t)
	src := sourceFor(t, primary)

	// Count the frames of a clean catch-up.
	counter := NewNetFaulty(src, NetPlan{Kinds: NetFrame})
	follower, fdir := newNode(t)
	sess := &Session{Exec: follower, Src: counter, Name: "c"}
	if err := sess.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, primary, pdir, follower, fdir)
	frames := counter.Ops()
	if frames < 3 {
		t.Fatalf("history shipped as %d frames; the walk needs several (shrink ChunkBytes)", frames)
	}

	effects := []struct {
		name string
		plan NetPlan
	}{
		{"err", NetPlan{Kinds: NetFrame}},
		{"sever", NetPlan{Kinds: NetFrame, Sever: true}},
		{"drop", NetPlan{Kinds: NetFrame, Drop: true}},
		{"dup", NetPlan{Kinds: NetFrame, Dup: true}},
	}
	for _, effect := range effects {
		for nth := 1; nth <= frames; nth++ {
			t.Run(fmt.Sprintf("%s/frame%d", effect.name, nth), func(t *testing.T) {
				plan := effect.plan
				plan.Nth = nth
				nf := NewNetFaulty(src, plan)
				f, fdir := newNode(t)
				sess := &Session{Exec: f, Src: nf, Name: "c"}
				syncToConvergence(t, sess, primary, pdir, f, fdir, 4)
				assertConverged(t, primary, pdir, f, fdir)
				if nf.Fired() == 0 {
					t.Fatalf("plan %v never fired in %d ops", plan, nf.Ops())
				}
			})
		}
	}
}

// TestReplicationCrashWalk crash-kills the follower at EVERY filesystem
// operation of its seed-and-apply run, then "reboots" it (fresh executor,
// clean filesystem, catalog replay) and asserts the surviving state is a
// bit-identical prefix that converges under a clean sync.
func TestReplicationCrashWalk(t *testing.T) {
	primary, pdir := newPrimary(t)
	src := sourceFor(t, primary)

	// Count the follower's filesystem ops during a clean run.
	counter := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{})
	{
		follower, fdir := newNode(t)
		_ = fdir
		store, err := service.NewStoreFS(t.TempDir(), counter)
		if err != nil {
			t.Fatal(err)
		}
		follower = &service.Executor{Cache: service.NewCache(0), Store: store}
		if err := (&Session{Exec: follower, Src: src, Name: "c"}).SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		follower.Close()
	}
	total := counter.Ops()
	if total < 10 {
		t.Fatalf("clean follower run made only %d filesystem ops", total)
	}

	for nth := 1; nth <= total; nth++ {
		t.Run(fmt.Sprintf("op%d", nth), func(t *testing.T) {
			dir := t.TempDir()
			crashy := vfs.NewFaulty(vfs.OS, vfs.FaultPlan{Nth: nth, Crash: true})
			store, err := service.NewStoreFS(dir, crashy)
			if err == nil {
				follower := &service.Executor{Cache: service.NewCache(0), Store: store}
				if err := (&Session{Exec: follower, Src: src, Name: "c"}).SyncOnce(context.Background()); err == nil {
					// The crash hits after the last sync step (during
					// shutdown); the run itself finished.
					t.Log("sync completed despite late crash")
				}
				follower.Close()
			} else if !errors.Is(err, vfs.ErrCrashed) {
				t.Fatal(err)
			}
			if !crashy.Fired() {
				t.Fatalf("crash plan never fired (%d ops)", crashy.Ops())
			}

			// Reboot: clean filesystem over whatever the crash left.
			f2 := nodeOver(t, dir, vfs.OS)
			assertPrefix(t, primary, pdir, f2, dir)
			if err := (&Session{Exec: f2, Src: src, Name: "c"}).SyncOnce(context.Background()); err != nil {
				t.Fatalf("post-crash sync: %v", err)
			}
			assertConverged(t, primary, pdir, f2, dir)
		})
	}
}

// TestReplicationPartitionHeal runs a live session, partitions the wire
// while the primary keeps committing, asserts the follower stalls on a
// served prefix, then heals and waits for convergence.
func TestReplicationPartitionHeal(t *testing.T) {
	primary, pdir := newPrimary(t)
	src := sourceFor(t, primary)
	nf := NewNetFaulty(src, NetPlan{})
	follower, fdir := newNode(t)
	sess := &Session{Exec: follower, Src: nf, Name: "c",
		BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond}

	ctx, cancel := context.WithCancel(context.Background())
	// A failing assertion must still end the session: its open WAL stream
	// would otherwise block the source server's Close.
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() { done <- sess.Run(ctx) }()

	waitCursor := func(want service.WALProgress) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if p, _, ok := follower.ReplicaCursor("c"); ok && p == want {
				return
			}
			if time.Now().After(deadline) {
				p, _, _ := follower.ReplicaCursor("c")
				t.Fatalf("follower stuck at %+v, want %+v (session %+v)", p, want, sess.Status())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitCursor(primary.Live("c").WALProgress())

	nf.Partition()
	stalled, _, _ := follower.ReplicaCursor("c")
	for i := 0; i < 4; i++ {
		if _, err := primary.Append("c", "1100"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // a few failed reconnects
	if p, _, _ := follower.ReplicaCursor("c"); p != stalled {
		t.Fatalf("cursor moved to %+v during partition", p)
	}
	assertPrefix(t, primary, pdir, follower, fdir)
	if res, _ := mssOf(t, follower); res.Length == 0 {
		t.Fatal("partitioned follower stopped serving scans")
	}

	nf.Heal()
	waitCursor(primary.Live("c").WALProgress())
	assertConverged(t, primary, pdir, follower, fdir)

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("session exit: %v", err)
	}
}

// TestReplicationCompactionDuringCatchup severs the stream mid-catch-up,
// compacts the primary (destroying the follower's generation), and asserts
// the next sync re-seeds and converges.
func TestReplicationCompactionDuringCatchup(t *testing.T) {
	primary, pdir := newPrimary(t)
	src := sourceFor(t, primary)
	nf := NewNetFaulty(src, NetPlan{Nth: 2, Kinds: NetFrame, Sever: true})
	follower, fdir := newNode(t)
	sess := &Session{Exec: follower, Src: nf, Name: "c"}

	err := sess.SyncOnce(context.Background())
	if err == nil {
		t.Fatal("sync survived a severed stream")
	}
	assertPrefix(t, primary, pdir, follower, fdir)

	if err := primary.Live("c").Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Append("c", "0110"); err != nil {
		t.Fatal(err)
	}
	if err := sess.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, primary, pdir, follower, fdir)
}

// TestReplicationPromoteStopsSession: after a local promote, the session
// stops permanently with ErrLocalNotReplica, the promoted corpus accepts
// writes, and the manager does not resurrect it.
func TestReplicationPromoteStopsSession(t *testing.T) {
	primary, _ := newPrimary(t)
	src := sourceFor(t, primary)
	follower, _ := newNode(t)
	sess := &Session{Exec: follower, Src: src, Name: "c"}
	if err := sess.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.Promote("c"); err != nil {
		t.Fatal(err)
	}
	if err := sess.SyncOnce(context.Background()); !errors.Is(err, ErrLocalNotReplica) {
		t.Fatalf("sync after promote: %v, want ErrLocalNotReplica", err)
	}
	if _, err := follower.Append("c", "0101"); err != nil {
		t.Fatalf("append after promote: %v", err)
	}
}

// TestManagerDiscovery: the manager discovers the primary's corpora, runs a
// session per corpus to convergence, and reports status with measurable
// lag fields.
func TestManagerDiscovery(t *testing.T) {
	primary, pdir := newPrimary(t)
	src := sourceFor(t, primary)
	follower, fdir := newNode(t)
	m := &Manager{Exec: follower, Src: src, Interval: 10 * time.Millisecond}

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel) // see TestReplicationPartitionHeal
	done := make(chan struct{})
	go func() { m.Run(ctx); close(done) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if p, _, ok := follower.ReplicaCursor("c"); ok && p == primary.Live("c").WALProgress() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("manager never converged; status %+v", m.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertConverged(t, primary, pdir, follower, fdir)

	sts := m.Status()
	if len(sts) != 1 || sts[0].Corpus != "c" {
		t.Fatalf("manager status %+v", sts)
	}
	if sts[0].Lag < 0 {
		t.Fatalf("converged session reports unmeasurable lag: %+v", sts[0])
	}

	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("manager did not stop")
	}
}
