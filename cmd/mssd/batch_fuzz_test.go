package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	sigsub "repro"
	"repro/internal/service"
)

// fuzzCorpusText is the corpus FuzzBatchBody uploads: 256 uniform k=4
// symbols with a planted run, so MSS answers are non-trivial.
func fuzzCorpusText() string {
	rng := rand.New(rand.NewSource(3))
	b := make([]byte, 256)
	for i := range b {
		b[i] = "acgt"[rng.Intn(4)]
	}
	for i := 90; i < 120; i++ {
		b[i] = 'a'
	}
	return string(b)
}

// FuzzBatchBody feeds arbitrary bytes as the body of POST /v1/batch to the
// daemon's handler — ServeHTTP into a recorder, no listener — over a small
// uploaded corpus. Nothing may panic, and the status is 200, 400, 404
// (unknown corpus) or 413, never 500 (writeError's fall-through for
// unmapped errors). Every slot of a 200 must answer what a solo
// sigsub.Scanner.Run of the slot's Query.Plan() answers: MSS, threshold and
// disjoint results bit for bit with the same error text, top-t as an X²
// multiset, the same candidate count (evaluated + skipped), and every
// result inside the slot's range and at least max(min_length, 1) long.
func FuzzBatchBody(f *testing.F) {
	const batch3 = `{"kind":"mss","lo":10,"hi":130},{"kind":"topt","t":10,"lo":10,"hi":130},{"kind":"threshold","alpha":19,"limit":500,"lo":10,"hi":130}`
	for _, seed := range []string{
		// The serve shapes: batch, batch2 (a second-range MSS), text, single.
		`{"corpus":"fz","queries":[` + batch3 + `]}`,
		`{"corpus":"fz","queries":[` + batch3 + `,{"kind":"mss","lo":140,"hi":250}]}`,
		`{"corpus":"fz","include_text":true,"queries":[{"kind":"mss","lo":60,"hi":200},{"kind":"threshold","alpha":12,"limit":1000,"lo":60,"hi":200}]}`,
		`{"corpus":"fz","queries":[{"kind":"topt","t":5,"lo":0,"hi":250}]}`,
		// A duplicate MSS, on four workers with a warm start.
		`{"corpus":"fz","workers":4,"warm_start":true,"queries":[{"kind":"mss","lo":5,"hi":200},{"kind":"mss","lo":5,"hi":200},{"kind":"topt","t":3,"lo":5,"hi":200}]}`,
		// Two thresholds on one range with different α and limits.
		`{"corpus":"fz","queries":[{"kind":"threshold","alpha":3,"limit":4,"hi":200},{"kind":"threshold","alpha":9,"limit":50,"hi":200},{"kind":"mss","hi":200}]}`,
		// Mixed min_length on one range.
		`{"corpus":"fz","workers":2,"queries":[{"kind":"mss","min_length":5,"lo":20,"hi":220},{"kind":"topt","t":4,"lo":20,"hi":220},{"kind":"threshold","alpha":10,"min_length":12,"lo":20,"hi":220}]}`,
		// lo past the corpus end, beside an MSS that must still answer.
		`{"corpus":"fz","queries":[{"kind":"disjoint","t":2,"lo":300,"hi":350},{"kind":"mss","lo":400},{"kind":"mss"}]}`,
		// A client-sized t.
		`{"corpus":"fz","queries":[{"kind":"topt","t":1099511627776,"lo":200}]}`,
		// Empty and inverted ranges.
		`{"corpus":"fz","queries":[{"kind":"mss","lo":50,"hi":50},{"kind":"topt","t":2,"lo":80,"hi":40},{"kind":"threshold","alpha":1,"lo":7,"hi":9,"min_length":5}]}`,
		// A cut-off past every window's X².
		`{"corpus":"fz","queries":[{"kind":"threshold","alpha":1e300,"hi":100},{"kind":"mss","hi":100}]}`,
		// Rejected bodies: an unknown field, truncated JSON, an unknown corpus.
		`{"corpus":"fz","queries":[{"kind":"mss"}],"bogus":1}`,
		`{"corpus":"fz","queries":[{"kind":"mss","lo":`,
		`{"corpus":"nope","queries":[{"kind":"mss"}]}`,
		// Inline text with a model spec: skewed, MLE, and the probabilities
		// so small that Σ Y²/p overflows, which must be a 400.
		`{"text":"abcabcaabbccaaaabcabcab","model":{"probs":[0.5,0.3,0.2]},"queries":[{"kind":"mss","min_length":3},{"kind":"topt","t":4}]}`,
		`{"text":"xyxyyyxxyxyxyyyyyyxy","model":{"mle":true},"queries":[{"kind":"threshold","alpha":2},{"kind":"mss"}]}`,
		`{"text":"aabababbbaab","model":{"probs":[5e-324,0.9999999999999999]},"queries":[{"kind":"mss"}]}`,
		`{"text":"` + strings.Repeat("a", 14) + strings.Repeat("bc", 44) + `b","model":{"probs":[1e-306,0.5,0.5]},"queries":[{"kind":"mss"}]}`,
	} {
		f.Add([]byte(seed))
	}

	srv, err := newServer(serverConfig{cacheBytes: 1 << 20, maxQueries: 6, maxWorkers: 4, maxText: 256})
	if err != nil {
		f.Fatal(err)
	}
	text := fuzzCorpusText()
	put, _ := json.Marshal(map[string]string{"text": text})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/corpora/fz", bytes.NewReader(put)))
	if rec.Code != http.StatusOK {
		f.Fatalf("corpus upload: status %d: %s", rec.Code, rec.Body)
	}
	uploaded, err := service.BuildCorpus("fz", text, service.ModelSpec{})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		var req service.BatchRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("200 for a body the daemon's decoder rejects (%v): %q", err, body)
		}
		var resp service.BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("undecodable 200 body for %q: %v", body, err)
		}
		corpus := uploaded
		if req.Corpus == "" {
			if corpus, err = service.BuildCorpus("", req.Text, req.Model); err != nil {
				t.Fatalf("200 for inline text the library rejects (%v): %q", err, body)
			}
		}
		if len(resp.Results) != len(req.Queries) {
			t.Fatalf("%d slots answer %d queries: %q", len(resp.Results), len(req.Queries), body)
		}
		opts := []sigsub.Option{sigsub.WithWorkers(max(req.Workers, 1)), sigsub.WithWarmStart(req.WarmStart)}
		n := corpus.Scanner.Len()
		for i, wq := range req.Queries {
			got := resp.Results[i]
			var want sigsub.QueryResult
			plan, err := wq.Plan()
			if err == nil {
				if want, err = corpus.Scanner.Run(plan, opts...); err == nil {
					err = want.Err
				}
			}
			label := fmt.Sprintf("slot %d %+v of %q", i, wq, body)
			if wantErr := errText(err); got.Error != wantErr {
				t.Fatalf("%s: error %q, solo %q", label, got.Error, wantErr)
			}
			if gotTotal, wantTotal := got.Stats.Evaluated+got.Stats.Skipped, want.Stats.Evaluated+want.Stats.Skipped; gotTotal != wantTotal {
				t.Fatalf("%s: accounts for %d windows, solo %d", label, gotTotal, wantTotal)
			}
			lo, hi := wq.Lo, wq.Hi
			if hi == 0 || hi > n {
				hi = n
			}
			for _, r := range got.Results {
				if r.Start < lo || r.End > hi || r.Length != r.End-r.Start || r.Length < max(wq.MinLength, 1) {
					t.Fatalf("%s: result %+v outside the candidate set [%d, %d)", label, r, lo, hi)
				}
			}
			if wq.Kind == "topt" {
				if !slices.Equal(x2Bits(got.Results), x2Bits(sigsubAsWire(want.Results))) {
					t.Fatalf("%s: top-t X² %v, solo %v", label, got.Results, want.Results)
				}
				continue
			}
			if w := sigsubAsWire(want.Results); !slices.EqualFunc(got.Results, w, sameWireResult) {
				t.Fatalf("%s: %v, solo %v", label, got.Results, w)
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sigsubAsWire converts library results to the wire form, without text.
func sigsubAsWire(rs []sigsub.Result) []service.Result {
	out := make([]service.Result, len(rs))
	for i, r := range rs {
		out[i] = service.FromResult(r, "")
	}
	return out
}

// sameWireResult compares two wire results bit for bit, ignoring the
// optional text snippet.
func sameWireResult(a, b service.Result) bool {
	return a.Start == b.Start && a.End == b.End && a.Length == b.Length &&
		math.Float64bits(a.X2) == math.Float64bits(b.X2) && math.Float64bits(a.PValue) == math.Float64bits(b.PValue)
}

// x2Bits returns the sorted bit patterns of the results' X² values.
func x2Bits(rs []service.Result) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = math.Float64bits(r.X2)
	}
	slices.Sort(out)
	return out
}
