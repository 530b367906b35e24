package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	sigsub "repro"
	"repro/internal/vfs"
)

// liveFixture uploads a corpus through an executor backed by a fresh store
// directory. The executor is closed at test end, stopping the commit
// pipeline its first durable append starts.
func liveFixture(t *testing.T, text string) (*Executor, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := &Executor{Cache: NewCache(0), Store: store}
	t.Cleanup(func() { e.Close() })
	if _, _, err := e.AddCorpus("c", text, ModelSpec{}); err != nil {
		t.Fatal(err)
	}
	return e, dir
}

// reopen simulates a daemon restart: a brand-new executor over the same
// directory, catalog replayed.
func reopen(t *testing.T, dir string) *Executor {
	return reopenFS(t, dir, vfs.OS)
}

// libraryMSS computes ground truth over the full concatenated text.
func libraryMSS(t *testing.T, text string) sigsub.Result {
	t.Helper()
	codec, err := sigsub.NewTextCodecSorted(text)
	if err != nil {
		t.Fatal(err)
	}
	syms, err := codec.Encode(text)
	if err != nil {
		t.Fatal(err)
	}
	model, err := codec.UniformModel()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sigsub.NewScanner(syms, model)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.MSS()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func execMSS(t *testing.T, e *Executor, corpus string) (sigsub.Result, Info) {
	t.Helper()
	resp, err := e.Execute(BatchRequest{Corpus: corpus, Queries: []Query{{Kind: "mss"}}})
	if err != nil {
		t.Fatal(err)
	}
	r := resp.Results[0].Results[0]
	return sigsub.Result{Start: r.Start, End: r.End, Length: r.Length, X2: r.X2, PValue: r.PValue}, resp.Corpus
}

// TestLiveAppendRestart is the durability contract: upload → appends →
// kill → restart serves the full appended history, answering exactly like
// the library over the concatenated string, with no re-upload.
func TestLiveAppendRestart(t *testing.T) {
	base := "01011010101001010110"
	appends := []string{"11111111", "0101010101", "1", "000111000111"}
	e, dir := liveFixture(t, base)

	full := base
	for _, a := range appends {
		info, err := e.Append("c", a)
		if err != nil {
			t.Fatal(err)
		}
		full += a
		if info.N != len(full) {
			t.Fatalf("after append: n=%d, want %d", info.N, len(full))
		}
		if !info.Live {
			t.Fatal("appended corpus not marked live")
		}
	}
	want := libraryMSS(t, full)
	got, info := execMSS(t, e, "c")
	if got != want {
		t.Fatalf("pre-restart MSS %+v, want %+v", got, want)
	}
	if info.Epoch != uint64(len(appends)) {
		t.Fatalf("pre-restart epoch %d, want %d", info.Epoch, len(appends))
	}

	// "Kill": drop the executor entirely; reopen over the same directory.
	e2 := reopen(t, dir)
	got2, info2 := execMSS(t, e2, "c")
	if got2 != want {
		t.Fatalf("post-restart MSS %+v, want %+v", got2, want)
	}
	if info2.N != len(full) {
		t.Fatalf("post-restart n=%d, want %d", info2.N, len(full))
	}
	if info2.Epoch != uint64(len(appends)) {
		t.Fatalf("post-restart epoch %d, want %d (one WAL record per append)", info2.Epoch, len(appends))
	}

	// The upgraded name must no longer have a frozen snapshot file.
	if _, err := os.Stat(filepath.Join(dir, fileName("c"))); !os.IsNotExist(err) {
		t.Fatalf("frozen snapshot survived the upgrade: %v", err)
	}
	// And appends continue after the restart.
	if _, err := e2.Append("c", "0110"); err != nil {
		t.Fatal(err)
	}
	full += "0110"
	got3, _ := execMSS(t, e2, "c")
	if want3 := libraryMSS(t, full); got3 != want3 {
		t.Fatalf("post-restart append MSS %+v, want %+v", got3, want3)
	}
}

// TestLiveTornWALRecovery: a crash mid-append leaves the WAL with a damaged
// tail — a record torn short, zeros past the last record (the file grew but
// the data never landed), or a flipped byte inside the last record. Replay
// stops at the last intact record boundary, the corpus serves exactly that
// prefix, and new appends land after it and survive another restart.
func TestLiveTornWALRecovery(t *testing.T) {
	base := "0101101010"
	for _, tc := range []struct {
		name string
		// damage corrupts the log, whose last record spans [last, end).
		damage func(f *os.File, last, end int64) error
		kept   []string // the acknowledged appends recovery serves
	}{
		{"torn", func(f *os.File, _, end int64) error {
			return f.Truncate(end - 3)
		}, []string{"111111"}},
		{"zero-tail", func(f *os.File, _, end int64) error {
			_, err := f.WriteAt(make([]byte, 4096), end)
			return err
		}, []string{"111111", "000000"}},
		{"flipped", func(f *os.File, last, _ int64) error {
			_, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, last+2)
			return err
		}, []string{"111111"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, dir := liveFixture(t, base)
			if _, err := e.Append("c", "111111"); err != nil {
				t.Fatal(err)
			}
			lc := e.liveGet("c")
			last := lc.WALProgress().Offset
			if _, err := e.Append("c", "000000"); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(filepath.Join(lc.dir, walName(lc.gen)), os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.damage(f, last, lc.WALProgress().Offset); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			e2 := reopen(t, dir)
			kept := base + strings.Join(tc.kept, "")
			got, info := execMSS(t, e2, "c")
			if want := libraryMSS(t, kept); got != want {
				t.Fatalf("recovered MSS %+v, want %+v", got, want)
			}
			if info.Epoch != uint64(len(tc.kept)) {
				t.Fatalf("recovered epoch %d, want %d", info.Epoch, len(tc.kept))
			}
			// New appends land after the recovered prefix and survive another
			// restart.
			if _, err := e2.Append("c", "0000011111"); err != nil {
				t.Fatal(err)
			}
			e3 := reopen(t, dir)
			got3, _ := execMSS(t, e3, "c")
			if want3 := libraryMSS(t, kept+"0000011111"); got3 != want3 {
				t.Fatalf("post-recovery append MSS %+v, want %+v", got3, want3)
			}
		})
	}
}

// TestLiveWALPreallocRecovery: data directories written by earlier builds
// with -wal-prealloc hold WAL files zero-padded well past their last
// record. Opening one replays the full history and cuts the padding off,
// so the next record lands right after the last one — not past a zero gap
// where replay would stop — and survives a restart.
func TestLiveWALPreallocRecovery(t *testing.T) {
	base := "01011010101001010110"
	e, dir := liveFixture(t, base)
	full := base
	for _, a := range []string{"11111111", "00001111"} {
		if _, err := e.Append("c", a); err != nil {
			t.Fatal(err)
		}
		full += a
	}
	lc := e.liveGet("c")
	logical := lc.WALProgress().Offset
	walPath := filepath.Join(lc.dir, walName(lc.gen))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Pad the log the way -wal-prealloc left it: zeros out to the target.
	const prealloc = 600 << 10
	if err := os.Truncate(walPath, prealloc); err != nil {
		t.Fatal(err)
	}

	e2 := reopen(t, dir)
	got, info := execMSS(t, e2, "c")
	if want := libraryMSS(t, full); got != want || info.Epoch != 2 {
		t.Fatalf("recovered MSS %+v epoch %d, want %+v epoch 2", got, info.Epoch, want)
	}
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != logical {
		t.Fatalf("recovered WAL is %d bytes on disk, want the %d-byte logical log", fi.Size(), logical)
	}
	if _, err := e2.Append("c", "0101"); err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3 := reopen(t, dir)
	got3, info3 := execMSS(t, e3, "c")
	if want3 := libraryMSS(t, full+"0101"); got3 != want3 || info3.Epoch != 3 {
		t.Fatalf("post-recovery append MSS %+v epoch %d, want %+v epoch 3", got3, info3.Epoch, want3)
	}
}

// TestLiveCompact: compaction folds the WAL into a fresh sealed base; the
// corpus stays appendable and restarts keep answering identically.
func TestLiveCompact(t *testing.T) {
	base := "010110101010"
	e, dir := liveFixture(t, base)
	if _, err := e.Append("c", "1111111100"); err != nil {
		t.Fatal(err)
	}
	full := base + "1111111100"
	if _, err := e.Compact("c"); err != nil {
		t.Fatal(err)
	}
	lc := e.liveGet("c")
	if lc.gen != 1 {
		t.Fatalf("post-compact generation %d, want 1", lc.gen)
	}
	if _, err := os.Stat(filepath.Join(lc.dir, baseName(0))); !os.IsNotExist(err) {
		t.Fatal("generation-0 base survived compaction")
	}
	if st, err := os.Stat(filepath.Join(lc.dir, walName(1))); err != nil || st.Size() != 0 {
		t.Fatalf("generation-1 WAL: %v size=%v, want empty", err, st)
	}
	got, _ := execMSS(t, e, "c")
	if want := libraryMSS(t, full); got != want {
		t.Fatalf("post-compact MSS %+v, want %+v", got, want)
	}

	// Append after compaction, restart, verify.
	if _, err := e.Append("c", "010101"); err != nil {
		t.Fatal(err)
	}
	full += "010101"
	e2 := reopen(t, dir)
	got2, _ := execMSS(t, e2, "c")
	if want2 := libraryMSS(t, full); got2 != want2 {
		t.Fatalf("post-compact restart MSS %+v, want %+v", got2, want2)
	}

	// Compacting a non-live corpus is a validation error.
	if _, _, err := e.AddCorpus("frozen", base, ModelSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compact("frozen"); !IsValidation(err) {
		t.Fatalf("compact of frozen corpus: %v, want validation error", err)
	}
}

// TestLiveAppendValidation: the alphabet is fixed at upload; appends with
// new characters are rejected without mutating the corpus, and appends to
// unknown corpora are not found.
func TestLiveAppendValidation(t *testing.T) {
	e, _ := liveFixture(t, "0101101010")
	if _, err := e.Append("c", "01012"); !IsValidation(err) {
		t.Fatalf("append with out-of-alphabet char: %v, want validation error", err)
	}
	if _, err := e.Append("c", ""); !IsValidation(err) {
		t.Fatalf("empty append: %v, want validation error", err)
	}
	if _, err := e.Append("missing", "01"); err == nil {
		t.Fatal("append to unknown corpus accepted")
	}
	// The failed appends left the corpus untouched and frozen-loadable.
	_, info := execMSS(t, e, "c")
	if info.N != 10 {
		t.Fatalf("n=%d after rejected appends, want 10", info.N)
	}
}

// TestLiveDeleteAndReupload: DELETE removes the live directory; a PUT over
// a live name replaces its history wholesale.
func TestLiveDeleteAndReupload(t *testing.T) {
	e, dir := liveFixture(t, "01011010")
	if _, err := e.Append("c", "111111"); err != nil {
		t.Fatal(err)
	}

	// Re-upload replaces history.
	if _, _, err := e.AddCorpus("c", "001100110011", ModelSpec{}); err != nil {
		t.Fatal(err)
	}
	got, info := execMSS(t, e, "c")
	if info.N != 12 || info.Live {
		t.Fatalf("re-uploaded corpus info %+v, want n=12 frozen", info)
	}
	if want := libraryMSS(t, "001100110011"); got != want {
		t.Fatalf("re-uploaded MSS %+v, want %+v", got, want)
	}
	e2 := reopen(t, dir)
	if _, info := execMSS(t, e2, "c"); info.N != 12 {
		t.Fatalf("restart after re-upload: n=%d, want 12", info.N)
	}

	// Delete removes everything.
	if _, err := e2.Append("c", "0101"); err != nil {
		t.Fatal(err)
	}
	deleted, err := e2.DeleteCorpus("c")
	if err != nil || !deleted {
		t.Fatalf("delete: %v %v", deleted, err)
	}
	if _, err := e2.Execute(BatchRequest{Corpus: "c", Queries: []Query{{Kind: "mss"}}}); err == nil {
		t.Fatal("deleted corpus still answers")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.Contains(ent.Name(), base64Name("c")) {
			t.Fatalf("deleted corpus left %q on disk", ent.Name())
		}
	}
	e3 := reopen(t, dir)
	if e3.Cache.Len() != 0 || len(e3.LiveInfos()) != 0 {
		t.Fatal("deleted corpus resurrected on restart")
	}
}

// TestLiveMemoryOnlyAppend: without a store, appends promote the cached
// corpus to an in-memory live one.
func TestLiveMemoryOnlyAppend(t *testing.T) {
	e := &Executor{Cache: NewCache(0)}
	if _, _, err := e.AddCorpus("c", "01011010", ModelSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append("c", "111111"); err != nil {
		t.Fatal(err)
	}
	got, info := execMSS(t, e, "c")
	if want := libraryMSS(t, "01011010111111"); got != want {
		t.Fatalf("memory-only append MSS %+v, want %+v", got, want)
	}
	if !info.Live || info.Epoch != 1 {
		t.Fatalf("memory-only info %+v, want live epoch 1", info)
	}
	if _, err := e.Compact("c"); !IsValidation(err) {
		t.Fatalf("compact of memory-only corpus: %v, want validation error", err)
	}
}

// TestLiveHalfUpgradeRecovery: a live directory without a manifest (crash
// before the commit point) is invisible; the frozen snapshot keeps serving
// and a later append completes the upgrade cleanly.
func TestLiveHalfUpgradeRecovery(t *testing.T) {
	e, dir := liveFixture(t, "0101101010")
	// Simulate a crash mid-upgrade: live dir with base but no manifest.
	store := e.Store
	half := store.liveDir("c")
	if err := os.MkdirAll(half, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(filepath.Join(dir, fileName("c")), filepath.Join(half, baseName(0))); err != nil {
		t.Fatal(err)
	}

	e2 := reopen(t, dir)
	if len(e2.LiveInfos()) != 0 {
		t.Fatal("manifest-less live dir treated as live")
	}
	got, _ := execMSS(t, e2, "c")
	if want := libraryMSS(t, "0101101010"); got != want {
		t.Fatalf("frozen corpus MSS %+v, want %+v", got, want)
	}
	// The append recycles the stray directory and completes the upgrade.
	if _, err := e2.Append("c", "1111"); err != nil {
		t.Fatal(err)
	}
	e3 := reopen(t, dir)
	got3, info := execMSS(t, e3, "c")
	if want3 := libraryMSS(t, "01011010101111"); got3 != want3 || !info.Live {
		t.Fatalf("completed upgrade MSS %+v live=%v, want %+v live", got3, info.Live, want3)
	}
}

// TestLiveAutoCompact covers the -auto-compact-wal-bytes trigger: once the
// WAL crosses the threshold, a background compaction rolls the corpus to a
// fresh generation without an explicit /compact call, serving stays exact
// throughout, and a restart replays the compacted generation.
func TestLiveAutoCompact(t *testing.T) {
	base := "0101101010"
	e, dir := liveFixture(t, base)
	// Must be set before the first append: the threshold is copied onto the
	// live corpus when the upgrade pins it.
	e.AutoCompactWALBytes = 48

	full := base
	for _, a := range []string{"11110000", "00110011", "10101010"} {
		if _, err := e.Append("c", a); err != nil {
			t.Fatal(err)
		}
		full += a
	}
	// Each 8-symbol record is 20 bytes, so the third append crosses the
	// 48-byte threshold. Compaction is asynchronous; wait for the
	// generation flip and then for the worker itself to finish.
	lc := e.liveGet("c")
	deadline := time.Now().Add(10 * time.Second)
	for lc.WALProgress().Gen == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never ran: %+v", lc.WALProgress())
		}
		time.Sleep(2 * time.Millisecond)
	}
	for lc.autoCompacting.Load() {
		time.Sleep(2 * time.Millisecond)
	}

	want := libraryMSS(t, full)
	if got, _ := execMSS(t, e, "c"); got != want {
		t.Fatalf("post-compaction MSS %+v, want %+v", got, want)
	}

	// Appends keep landing in the new generation.
	if _, err := e.Append("c", "000111"); err != nil {
		t.Fatal(err)
	}
	full += "000111"
	want = libraryMSS(t, full)
	if got, _ := execMSS(t, e, "c"); got != want {
		t.Fatalf("post-compaction append MSS %+v, want %+v", got, want)
	}

	// Crash-consistency: a restart recovers the compacted generation plus
	// the records appended after it.
	e2 := reopen(t, dir)
	got2, info2 := execMSS(t, e2, "c")
	if got2 != want || !info2.Live {
		t.Fatalf("post-restart MSS %+v live=%v, want %+v live", got2, info2.Live, want)
	}
	if info2.N != len(full) {
		t.Fatalf("post-restart n=%d, want %d", info2.N, len(full))
	}
}
