package sigsub_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	sigsub "repro"
)

// snapshotCorpus builds a deterministic skewed-model corpus for round-trip
// testing.
func snapshotCorpus(t testing.TB, n, k int) ([]byte, *sigsub.Model) {
	t.Helper()
	probs := make([]float64, k)
	total := 0.0
	for i := range probs {
		probs[i] = float64(i + 1)
		total += probs[i]
	}
	for i := range probs {
		probs[i] /= total
	}
	m, err := sigsub.NewModel(probs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	s := make([]byte, n)
	for i := range s {
		r := rng.Float64()
		acc := 0.0
		for c, p := range probs {
			acc += p
			if r < acc || c == k-1 {
				s[i] = byte(c)
				break
			}
		}
	}
	return s, m
}

// queryAnswers runs the Problems 1–4 suite on a scanner and returns every
// result for equality comparison.
func queryAnswers(t testing.TB, sc *sigsub.Scanner) [][]sigsub.Result {
	t.Helper()
	qs := []sigsub.Query{
		sigsub.MSSQuery(),                           // Problem 1
		sigsub.TopTQuery(10),                        // Problem 2
		sigsub.ThresholdQuery(12),                   // Problem 3
		sigsub.MSSQuery().WithMinLength(20),         // Problem 4
		sigsub.TopTQuery(5).WithRange(100, 900),     // composed range query
		sigsub.ThresholdQuery(10).WithMinLength(15), // composed threshold
	}
	out := make([][]sigsub.Result, len(qs))
	for i, q := range qs {
		qr, err := sc.Run(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if qr.Err != nil {
			t.Fatalf("query %d: %v", i, qr.Err)
		}
		out[i] = qr.Results
	}
	return out
}

// TestSnapshotRoundTripLayouts writes a snapshot from a scanner over each
// in-memory index layout — a contiguous index (NewScanner) and a live
// corpus's epoch view, whose final block is a relocated private tail —
// reopens it both mmap'd and from a stream, and asserts every Problem 1–4
// answer is bit-identical to the source scanner's.
func TestSnapshotRoundTripLayouts(t *testing.T) {
	s, m := snapshotCorpus(t, 2000, 4)
	built, err := sigsub.NewScanner(s, m)
	if err != nil {
		t.Fatal(err)
	}
	live, err := sigsub.NewCorpus(m)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(s)-7; lo += 333 {
		if err := live.Append(s[lo:min(lo+333, len(s)-7)]); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []struct {
		layout string
		sc     *sigsub.Scanner
	}{{"contiguous", built}, {"epoch", live.View()}} {
		layout := src.layout
		want := queryAnswers(t, src.sc)

		var buf bytes.Buffer
		if err := src.sc.WriteSnapshot(&buf); err != nil {
			t.Fatalf("%v: WriteSnapshot: %v", layout, err)
		}
		path := filepath.Join(t.TempDir(), "c.snap")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}

		opened, err := sigsub.OpenSnapshot(path)
		if err != nil {
			t.Fatalf("%v: OpenSnapshot: %v", layout, err)
		}
		if got := queryAnswers(t, opened.Scanner()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: mmap-served results differ from the source scanner", layout)
		}
		if opened.Codec() != nil {
			t.Fatalf("%v: codec-less snapshot reports a codec", layout)
		}
		if opened.MappedBytes() > 0 && opened.HeapBytes() >= opened.MappedBytes() {
			t.Errorf("%v: mapped corpus charges %d heap bytes for %d mapped", layout, opened.HeapBytes(), opened.MappedBytes())
		}
		if err := opened.Close(); err != nil {
			t.Fatal(err)
		}

		read, err := sigsub.ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: ReadSnapshot: %v", layout, err)
		}
		if got := queryAnswers(t, read.Scanner()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: stream-read results differ from the source scanner", layout)
		}
	}
}

// TestSnapshotCodecRoundTrip checks that the codec table survives the trip
// and decodes the identical text.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	text := "the quick brown fox jumps over the lazy dog and the dog minds a lot"
	codec, err := sigsub.NewTextCodecSorted(text)
	if err != nil {
		t.Fatal(err)
	}
	symbols, err := codec.Encode(text)
	if err != nil {
		t.Fatal(err)
	}
	model, err := codec.UniformModel()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sigsub.NewScanner(symbols, model)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sigsub.WriteSnapshot(&buf, sc, codec); err != nil {
		t.Fatal(err)
	}
	sn, err := sigsub.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Codec() == nil {
		t.Fatal("snapshot dropped the codec table")
	}
	if got := sn.Codec().Alphabet(); got != codec.Alphabet() {
		t.Fatalf("alphabet drifted: %q -> %q", codec.Alphabet(), got)
	}
	back, err := sn.Codec().Decode(sn.Scanner().Symbols())
	if err != nil {
		t.Fatal(err)
	}
	if back != text {
		t.Fatalf("decoded corpus %q, want %q", back, text)
	}
	if sn.Model().String() != model.String() {
		t.Fatalf("model drifted: %s -> %s", model, sn.Model())
	}
}

// TestOpenSnapshotCorrupt asserts the public open path rejects damaged
// files with errors (not panics), including at the semantic layer the raw
// format cannot check (invalid model sums).
func TestOpenSnapshotCorrupt(t *testing.T) {
	s, m := snapshotCorpus(t, 500, 3)
	sc, err := sigsub.NewScanner(s, m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sc.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	for name, img := range map[string][]byte{
		"truncated": good[:len(good)/2],
		"flipped": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)/2] ^= 1
			return b
		}(),
		"empty":     {},
		"bad-magic": append([]byte("NOTASNAP"), good[8:]...),
	} {
		path := filepath.Join(dir, name+".snap")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := sigsub.OpenSnapshot(path); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}
