package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/service"
)

// FuzzDecodeBody checks decodeBody against the decoder it stands in for:
// for each request type the handlers decode, a json.Decoder with
// DisallowUnknownFields over the same bytes must accept exactly the bodies
// decodeBody accepts, into reflect.DeepEqual values. The seeds cover the
// edges of decodeBody's leading-literal shortcut: literals it must leave
// to the full decoder (escapes, raw control bytes, invalid UTF-8), text
// keys it does not match, members that follow the literal, and bytes after
// the object.
func FuzzDecodeBody(f *testing.F) {
	for _, seed := range []string{
		// The shortcut's shapes: a bare upload, later members, the query
		// bodies, a non-ASCII literal.
		`{"text":"ACGTTGCA"}`,
		`{"text":"ACGT","model":{"probs":[0.1,0.2,0.3,0.4]}}`,
		`{"text":"ACGT","durability":"relaxed"}`,
		`{"text":"abcab","query":{"kind":"topt","t":3}}`,
		`{"text":"abcab","model":{"mle":true},"queries":[{"kind":"mss","lo":1}]}`,
		`{"corpus":"x","queries":[{"kind":"mss"},{"kind":"threshold","alpha":4}]}`,
		`{"text":"héllo wörld ☃ 𝄞"}`,
		// Escapes: a newline, é, a surrogate pair, a lone surrogate.
		`{"text":"A\nB"}`,
		`{"text":"caf\u00e9"}`,
		`{"text":"\ud834\udd1e"}`,
		`{"text":"x\ud800y"}`,
		// A raw control byte and invalid UTF-8 inside the literal.
		"{\"text\":\"A\x01B\"}",
		"{\"text\":\"A\xffB\xc3\"}",
		"{\"text\":\"\xed\xa0\x80\"}",
		// Case variants and a second text member.
		`{"Text":"ACGT"}`,
		`{"TEXT":"ACGT"}`,
		`{"text":"A","TEXT":"B"}`,
		`{"text":"A","model":{"mle":true},"text":"B"}`,
		`{"text":"A","text":null}`,
		// Bodies the decoder must reject, or accept despite trailing bytes.
		`{"text":"A",}`,
		`{"text":"A"}junk`,
		`{"text":"A"} {"text":"B"}`,
		`{"text":null}`,
		`{"text":"A","bogus":1}`,
		`{"text":"A","model":5}`,
		`{"text":"A"`,
		`{"text":"A`,
		`{"text":"A",`,
		`{"text":"A","`,
		// Whitespace around every token.
		" \t{ \"text\" : \"A\" , \"model\" : { \"mle\" : true } }\n",
		// Not an object, and an empty body.
		`["text","A"]`,
		`"text"`,
		``,
	} {
		f.Add([]byte(seed))
	}
	srv, err := newServer(serverConfig{cacheBytes: 1 << 20, maxQueries: 6, maxWorkers: 4, maxText: 1 << 10})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, srv, body, func(v *putCorpusRequest) *string { return &v.Text })
		checkDecode(t, srv, body, func(v *appendCorpusRequest) *string { return &v.Text })
		checkDecode(t, srv, body, func(v *service.SingleRequest) *string { return &v.Text })
		checkDecode(t, srv, body, func(v *service.BatchRequest) *string { return &v.Text })
	})
}

// checkDecode runs body through decodeBody into a T and through the
// reference decoder into another, and fails unless both accept or both
// reject and the accepted values are equal. A body over the daemon's limit
// must get 413 from decodeBody, whatever the reference makes of it.
func checkDecode[T any](t *testing.T, srv *server, body []byte, text func(*T) *string) {
	t.Helper()
	var got, want T
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
	ok := srv.decodeBody(rec, req, &got, text(&got))
	if int64(len(body)) > srv.exec.BodyLimit() {
		if ok || rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%T: %d-byte body over the %d limit: accepted %v, status %d", got, len(body), srv.exec.BodyLimit(), ok, rec.Code)
		}
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	refErr := dec.Decode(&want)
	switch {
	case ok != (refErr == nil):
		t.Fatalf("%T: decodeBody accepted %v (status %d: %s), reference error %v, for %q", got, ok, rec.Code, rec.Body, refErr, body)
	case !ok && rec.Code != http.StatusBadRequest:
		t.Fatalf("%T: rejected with status %d, want 400, for %q", got, rec.Code, body)
	case ok && !reflect.DeepEqual(got, want):
		t.Fatalf("%T: decodeBody %+v, reference %+v, for %q", got, got, want, body)
	}
}

// TestHasControl checks the word-at-a-time control-byte test against a
// byte loop: every byte value at every offset of a buffer that spans two
// words and a tail, among fill bytes just above the cut-off, far above it
// and with the top bit set.
func TestHasControl(t *testing.T) {
	for _, fill := range []byte{0x20, 'A', 0x7f, 0x80, 0xff} {
		buf := bytes.Repeat([]byte{fill}, 19)
		for off := range buf {
			for c := range 256 {
				buf[off] = byte(c)
				if got, want := hasControl(buf), c < 0x20; got != want {
					t.Fatalf("fill %#x, byte %#x at %d: hasControl %v, want %v", fill, c, off, got, want)
				}
			}
			buf[off] = fill
		}
	}
}

// BenchmarkPutCorpus sends the serve workload's upload — a 10⁶-character
// {"text": …} PUT of uniform ACGT — through the daemon's handler
// (ServeHTTP into a recorder, no listener), so it times the body read, the
// JSON decode, the corpus build and the cache publish. It reports ns per
// body byte and allocations.
func BenchmarkPutCorpus(b *testing.B) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(1))
	text := make([]byte, n)
	for i := range text {
		text[i] = "ACGT"[rng.Intn(4)]
	}
	body, err := json.Marshal(map[string]string{"text": string(text)})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := newServer(serverConfig{cacheBytes: service.DefaultCacheBytes, maxQueries: 64, maxWorkers: 1, maxText: n})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/corpora/bench", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(body)), "ns/byte")
}
