package service

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	sigsub "repro"
)

func sigsubResult(start, end int) sigsub.Result {
	return sigsub.Result{Start: start, End: end, Length: end - start}
}

const testText = "01011010111111111110010101"

func testExecutor(t *testing.T) *Executor {
	t.Helper()
	return &Executor{Cache: NewCache(4)}
}

func TestQueryPlanValidation(t *testing.T) {
	valid := []Query{
		{Kind: "mss"},
		{Kind: "topt", T: 3},
		{Kind: "threshold", Alpha: 5},
		{Kind: "disjoint", T: 2, MinLength: 4},
		{Kind: "mss", Lo: 2, Hi: 9, MinLength: 3},
	}
	for _, q := range valid {
		if _, err := q.Plan(); err != nil {
			t.Errorf("valid query %+v rejected: %v", q, err)
		}
	}
	invalid := []Query{
		{Kind: "nope"},
		{Kind: ""},
		{Kind: "topt"},
		{Kind: "topt", T: -1},
		{Kind: "disjoint"},
		{Kind: "threshold", Alpha: -2},
		{Kind: "mss", MinLength: -1},
		{Kind: "mss", Lo: -1},
		{Kind: "mss", Hi: -9},
		// A negative limit means "unlimited" to the library; the wire layer
		// must refuse it so one request cannot bypass the daemon's caps.
		{Kind: "threshold", Alpha: 1, Limit: -1},
	}
	for _, q := range invalid {
		if _, err := q.Plan(); err == nil {
			t.Errorf("invalid query %+v accepted", q)
		} else if !IsValidation(err) {
			t.Errorf("query %+v: error %v is not a ValidationError", q, err)
		}
	}
}

func TestBuildCorpusModels(t *testing.T) {
	uniform, err := BuildCorpus("u", testText, ModelSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if info := uniform.Info(); info.N != len(testText) || info.K != 2 {
		t.Errorf("uniform corpus info %+v", info)
	}
	mle, err := BuildCorpus("m", testText, ModelSpec{MLE: true})
	if err != nil {
		t.Fatal(err)
	}
	if mle.Model.String() == uniform.Model.String() {
		t.Error("MLE model equals the uniform model on a biased corpus")
	}
	if _, err := BuildCorpus("p", testText, ModelSpec{Probs: []float64{0.25, 0.75}}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		text string
		spec ModelSpec
	}{
		{"", ModelSpec{}},
		{"aaaa", ModelSpec{}}, // single-character alphabet
		{testText, ModelSpec{Probs: []float64{0.2, 0.3, 0.5}}}, // k mismatch
		{testText, ModelSpec{Probs: []float64{1.5, -0.5}}},
	} {
		if _, err := BuildCorpus("x", bad.text, bad.spec); err == nil {
			t.Errorf("BuildCorpus(%q, %+v) accepted", bad.text, bad.spec)
		} else if !IsValidation(err) {
			t.Errorf("BuildCorpus(%q, %+v): %v is not a ValidationError", bad.text, bad.spec, err)
		}
	}
}

func TestSnippetTruncationIsRuneSafe(t *testing.T) {
	// 300 multi-byte characters: truncation must cut on a rune boundary.
	text := strings.Repeat("αβ", 150)
	r := FromResult(sigsubResult(0, 300), text)
	if got := len([]rune(r.Text)); got != 200 {
		t.Errorf("snippet holds %d runes, want 200", got)
	}
	if !strings.HasSuffix(r.Text, "β") && !strings.HasSuffix(r.Text, "α") {
		t.Errorf("snippet ends mid-rune: %q", r.Text[len(r.Text)-4:])
	}
	for _, ru := range r.Text {
		if ru == '�' {
			t.Fatal("snippet contains a replacement character")
		}
	}
	// Short text passes through untouched.
	if r := FromResult(sigsubResult(0, 3), "αβγ"); r.Text != "αβγ" {
		t.Errorf("short snippet mangled: %q", r.Text)
	}
}

func TestExecutorLimits(t *testing.T) {
	e := &Executor{}
	if e.TextLimit() != 1<<20 || e.BodyLimit() <= int64(e.TextLimit()) {
		t.Errorf("default limits: text=%d body=%d", e.TextLimit(), e.BodyLimit())
	}
	small := &Executor{MaxTextLen: 1000}
	if small.TextLimit() != 1000 || small.BodyLimit() < 6000 {
		t.Errorf("configured limits: text=%d body=%d", small.TextLimit(), small.BodyLimit())
	}
}

func TestCacheLRU(t *testing.T) {
	// Budget the cache in bytes for exactly two copies of the test corpus.
	probe, err := BuildCorpus("probe", testText, ModelSpec{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(2 * probe.Bytes())
	put := func(name string) {
		t.Helper()
		corpus, err := BuildCorpus(name, testText, ModelSpec{})
		if err != nil {
			t.Fatal(err)
		}
		c.Put(corpus)
	}
	put("a")
	put("b")
	if _, ok := c.Get("a"); !ok { // touches a: b becomes LRU
		t.Fatal("a missing")
	}
	put("c") // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used a was evicted")
	}
	if got := c.Len(); got != 2 {
		t.Errorf("cache holds %d, want 2", got)
	}
	names := []string{}
	for _, info := range c.List() {
		names = append(names, info.Name)
	}
	if strings.Join(names, ",") != "c,a" {
		t.Errorf("LRU order %v", names)
	}
	if !c.Delete("a") || c.Delete("a") {
		t.Error("delete semantics broken")
	}
}

// TestBuildCorpusInvalidUTF8: the codec's strict UTF-8 rejection must
// surface as a client error (HTTP 400 at the daemon), not a server fault —
// previously such text silently canonicalized to U+FFFD and the stored
// corpus no longer round-tripped the upload.
func TestBuildCorpusInvalidUTF8(t *testing.T) {
	for _, text := range []string{"a\x80b", "\xff\xfe01", "01\xc3"} {
		_, err := BuildCorpus("x", text, ModelSpec{})
		if err == nil {
			t.Fatalf("BuildCorpus(%q): invalid UTF-8 accepted", text)
		}
		if !IsValidation(err) {
			t.Fatalf("BuildCorpus(%q): %v is not a validation error", text, err)
		}
		if !strings.Contains(err.Error(), "UTF-8") {
			t.Errorf("BuildCorpus(%q): error %q does not name the cause", text, err)
		}
	}
	// A literal U+FFFD is valid UTF-8 and remains accepted.
	if _, err := BuildCorpus("x", "0101�1�0", ModelSpec{}); err != nil {
		t.Fatalf("literal U+FFFD rejected: %v", err)
	}
}

// TestCacheRePutSameName: replacing a corpus under the same name must
// charge the budget for exactly one copy (the regression the order-slice
// rewrite guards: double-charging or double-linking the renamed entry).
func TestCacheRePutSameName(t *testing.T) {
	probe, err := BuildCorpus("x", testText, ModelSpec{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(10 * probe.Bytes())
	for i := 0; i < 5; i++ {
		corpus, err := BuildCorpus("x", testText, ModelSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if evicted := c.Put(corpus); len(evicted) != 0 {
			t.Fatalf("re-put %d evicted %v", i, evicted)
		}
	}
	if got := c.UsedBytes(); got != probe.Bytes() {
		t.Errorf("5 re-puts charge %d bytes, want one copy = %d", got, probe.Bytes())
	}
	if got := c.Len(); got != 1 {
		t.Errorf("cache holds %d entries, want 1", got)
	}
	if got := len(c.List()); got != 1 {
		t.Errorf("recency list holds %d entries, want 1", got)
	}
	// The refreshed entry must still be evictable in order.
	big, err := BuildCorpus("big", strings.Repeat(testText, 40), ModelSpec{})
	if err != nil {
		t.Fatal(err)
	}
	evicted := c.Put(big)
	if len(evicted) != 1 || evicted[0] != "x" {
		t.Errorf("evicted %v, want [x]", evicted)
	}
	if got := c.UsedBytes(); got != big.Bytes() {
		t.Errorf("after eviction %d bytes, want %d", got, big.Bytes())
	}
}

// TestCacheOversizedAdmission: a corpus larger than the whole budget is
// admitted alone, every prior resident is evicted, and accounting stays
// consistent through its later eviction.
func TestCacheOversizedAdmission(t *testing.T) {
	small, err := BuildCorpus("small", testText, ModelSpec{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(2 * small.Bytes())
	c.Put(small)
	huge, err := BuildCorpus("huge", strings.Repeat(testText, 100), ModelSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if huge.Bytes() <= c.MaxBytes() {
		t.Fatalf("test corpus not oversized: %d <= %d", huge.Bytes(), c.MaxBytes())
	}
	evicted := c.Put(huge)
	if len(evicted) != 1 || evicted[0] != "small" {
		t.Fatalf("evicted %v, want [small]", evicted)
	}
	if got := c.Len(); got != 1 {
		t.Errorf("cache holds %d, want the oversized corpus alone", got)
	}
	if got := c.UsedBytes(); got != huge.Bytes() {
		t.Errorf("used %d, want %d", got, huge.Bytes())
	}
	if _, ok := c.Get("huge"); !ok {
		t.Error("oversized corpus not admitted")
	}
	// A subsequent small put evicts the oversized resident and the books
	// return to exactly the small corpus.
	small2, err := BuildCorpus("small2", testText, ModelSpec{})
	if err != nil {
		t.Fatal(err)
	}
	evicted = c.Put(small2)
	if len(evicted) != 1 || evicted[0] != "huge" {
		t.Fatalf("evicted %v, want [huge]", evicted)
	}
	if got := c.UsedBytes(); got != small2.Bytes() {
		t.Errorf("used %d, want %d", got, small2.Bytes())
	}
}

// TestCacheTouchManyResidents drives Get/Put across many resident corpora —
// the pattern the linked-list recency makes O(1) per operation — and then
// verifies the recency order end to end.
func TestCacheTouchManyResidents(t *testing.T) {
	c := NewCache(1 << 40)
	const n = 200
	for i := 0; i < n; i++ {
		corpus, err := BuildCorpus(fmt.Sprintf("c%03d", i), testText, ModelSpec{})
		if err != nil {
			t.Fatal(err)
		}
		c.Put(corpus)
	}
	// Touch the even corpora in reverse; the odd ones keep insertion order
	// at the LRU end.
	for i := n - 2; i >= 0; i -= 2 {
		if _, ok := c.Get(fmt.Sprintf("c%03d", i)); !ok {
			t.Fatalf("c%03d missing", i)
		}
	}
	list := c.List()
	if len(list) != n {
		t.Fatalf("%d resident, want %d", len(list), n)
	}
	for i := 0; i < n/2; i++ {
		if want := fmt.Sprintf("c%03d", 2*i+1); list[i].Name != want {
			t.Fatalf("LRU slot %d is %s, want %s", i, list[i].Name, want)
		}
	}
	for i := 0; i < n/2; i++ {
		if want := fmt.Sprintf("c%03d", n-2-2*i); list[n/2+i].Name != want {
			t.Fatalf("MRU slot %d is %s, want %s", n/2+i, list[n/2+i].Name, want)
		}
	}
}

// TestExecuteMatchesLibrary: the executor's answers must equal direct
// library calls on the same corpus and model.
func TestExecuteMatchesLibrary(t *testing.T) {
	e := testExecutor(t)
	corpus, err := BuildCorpus("demo", testText, ModelSpec{})
	if err != nil {
		t.Fatal(err)
	}
	e.Cache.Put(corpus)

	resp, err := e.Execute(BatchRequest{
		Corpus: "demo",
		Queries: []Query{
			{Kind: "mss"},
			{Kind: "topt", T: 3},
			{Kind: "threshold", Alpha: 8},
		},
		IncludeText: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results", len(resp.Results))
	}

	mss, err := corpus.Scanner.MSS()
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Results[0].Results[0]
	if got.Start != mss.Start || got.End != mss.End || got.X2 != mss.X2 || got.PValue != mss.PValue {
		t.Errorf("daemon MSS %+v, library %+v", got, mss)
	}
	if want := testText[mss.Start:mss.End]; got.Text != want {
		t.Errorf("snippet %q, want %q", got.Text, want)
	}
	top, err := corpus.Scanner.Run(sigsub.TopTQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results[1].Results {
		if r.X2 != top.Results[i].X2 {
			t.Errorf("top-t %d: %v vs %v", i, r.X2, top.Results[i].X2)
		}
	}
	th, err := corpus.Scanner.Run(sigsub.ThresholdQuery(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results[2].Results) != len(th.Results) {
		t.Errorf("threshold sizes %d vs %d", len(resp.Results[2].Results), len(th.Results))
	}
	var sum Stats
	for _, qr := range resp.Results {
		sum.Evaluated += qr.Stats.Evaluated
		sum.Skipped += qr.Stats.Skipped
	}
	if sum.Evaluated == 0 || sum.Skipped < 0 {
		t.Errorf("implausible stats %+v", sum)
	}
}

func TestExecuteInlineTextAndErrors(t *testing.T) {
	e := testExecutor(t)
	// Inline text needs no upload.
	resp, err := e.Execute(BatchRequest{Text: testText, Queries: []Query{{Kind: "mss"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results[0].Results) != 1 {
		t.Fatalf("inline scan results: %+v", resp.Results)
	}

	// Per-query failures stay in their slot.
	resp, err = e.Execute(BatchRequest{Text: testText, Queries: []Query{
		{Kind: "mss"},
		{Kind: "bogus"},
		{Kind: "threshold", Alpha: 0.001, Limit: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" {
		t.Errorf("healthy slot failed: %v", resp.Results[0].Error)
	}
	if !strings.Contains(resp.Results[1].Error, "unknown query kind") {
		t.Errorf("bad-kind slot: %q", resp.Results[1].Error)
	}
	if resp.Results[2].Error == "" || len(resp.Results[2].Results) != 2 {
		t.Errorf("overflow slot: err=%q results=%d", resp.Results[2].Error, len(resp.Results[2].Results))
	}

	// A cached corpus's model is fixed at upload; a conflicting spec must
	// be rejected, not silently ignored.
	corpus, err := BuildCorpus("fixed", testText, ModelSpec{})
	if err != nil {
		t.Fatal(err)
	}
	e.Cache.Put(corpus)
	for _, spec := range []ModelSpec{{MLE: true}, {Probs: []float64{0.5, 0.5}}} {
		_, err := e.Execute(BatchRequest{Corpus: "fixed", Model: spec, Queries: []Query{{Kind: "mss"}}})
		if err == nil || !IsValidation(err) {
			t.Errorf("corpus+model spec %+v accepted: %v", spec, err)
		}
	}

	// Request-level failures.
	for _, req := range []BatchRequest{
		{},
		{Text: testText},
		{Corpus: "missing", Queries: []Query{{Kind: "mss"}}},
		{Corpus: "a", Text: "b", Queries: []Query{{Kind: "mss"}}},
		{Text: testText, Queries: []Query{{Kind: "mss"}}, Workers: 99},
		{Text: strings.Repeat("01", 30), Queries: make([]Query, 200)},
	} {
		if _, err := e.Execute(req); err == nil {
			t.Errorf("request %+v accepted", req)
		}
	}
	if _, err := e.Execute(BatchRequest{Corpus: "missing", Queries: []Query{{Kind: "mss"}}}); !IsNotFound(err) {
		t.Errorf("missing corpus error: %v", err)
	}
}

// TestExecuteHugeT: a client-chosen t far past the candidate count answers
// exactly as t = candidate count does, alone and beside a disjoint query,
// instead of allocating t heap slots up front (an out-of-memory error no
// recover can catch).
func TestExecuteHugeT(t *testing.T) {
	e := testExecutor(t)
	text := testText[:20]
	cands := len(text) * (len(text) + 1) / 2
	for _, kinds := range [][]string{{"topt"}, {"topt", "disjoint"}} {
		huge := make([]Query, len(kinds))
		exact := make([]Query, len(kinds))
		for i, k := range kinds {
			huge[i] = Query{Kind: k, T: 1 << 40}
			exact[i] = Query{Kind: k, T: cands}
		}
		got, err := e.Execute(BatchRequest{Text: text, Queries: huge})
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Execute(BatchRequest{Text: text, Queries: exact})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Errorf("%v: t = 2^40 answered %+v, t = %d answered %+v", kinds, got.Results, cands, want.Results)
		}
	}
}

// IsNotFound mirrors the daemon's status mapping for the test.
func IsNotFound(err error) bool {
	return err != nil && strings.Contains(err.Error(), "not found")
}

// TestExecuteBatchEqualsSingles: a daemon batch must agree with running the
// queries one at a time, including under request-level workers.
func TestExecuteBatchEqualsSingles(t *testing.T) {
	e := testExecutor(t)
	corpus, err := BuildCorpus("demo", strings.Repeat(testText, 20), ModelSpec{MLE: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Cache.Put(corpus)
	queries := []Query{
		{Kind: "mss"},
		{Kind: "mss", MinLength: 12},
		{Kind: "topt", T: 5},
		{Kind: "threshold", Alpha: 10},
		{Kind: "disjoint", T: 2, MinLength: 6},
	}
	for _, workers := range []int{0, 8} {
		batch, err := e.Execute(BatchRequest{Corpus: "demo", Queries: queries, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			single, err := e.Execute(BatchRequest{Corpus: "demo", Queries: []Query{q}})
			if err != nil {
				t.Fatal(err)
			}
			a, b := batch.Results[i], single.Results[0]
			if len(a.Results) != len(b.Results) {
				t.Fatalf("workers=%d query %d: %d vs %d results", workers, i, len(a.Results), len(b.Results))
			}
			for ri := range a.Results {
				if q.Kind == "topt" {
					if a.Results[ri].X2 != b.Results[ri].X2 {
						t.Errorf("workers=%d query %d result %d X² diverges", workers, i, ri)
					}
					continue
				}
				if a.Results[ri] != b.Results[ri] {
					t.Errorf("workers=%d query %d result %d: %+v vs %+v", workers, i, ri, a.Results[ri], b.Results[ri])
				}
			}
		}
	}
}

// TestConcurrentExecute hammers one cached corpus from many goroutines;
// run under -race this verifies the lock-free scan sharing.
func TestConcurrentExecute(t *testing.T) {
	e := testExecutor(t)
	corpus, err := BuildCorpus("demo", strings.Repeat(testText, 10), ModelSpec{})
	if err != nil {
		t.Fatal(err)
	}
	e.Cache.Put(corpus)
	want, err := corpus.Scanner.MSS()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 5; i++ {
				resp, err := e.Execute(BatchRequest{Corpus: "demo", Workers: 1 + g%4, Queries: []Query{
					{Kind: "mss"},
					{Kind: "topt", T: 4},
				}})
				if err != nil {
					done <- err
					return
				}
				if got := resp.Results[0].Results[0]; got.Start != want.Start || got.End != want.End {
					done <- fmt.Errorf("concurrent MSS diverged: [%d, %d) want [%d, %d)", got.Start, got.End, want.Start, want.End)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
