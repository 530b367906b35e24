package counts

import (
	"math/rand"
	"testing"
)

// randomString draws n symbols over alphabet k, biased so some symbols run
// hot (interesting nibble deltas).
func appendRandString(rng *rand.Rand, n, k int) []byte {
	s := make([]byte, n)
	for i := range s {
		if rng.Intn(4) == 0 {
			s[i] = 0
		} else {
			s[i] = byte(rng.Intn(k))
		}
	}
	return s
}

// randomBatches splits s into random-length append batches (including some
// empty ones).
func randomBatches(rng *rand.Rand, s []byte) [][]byte {
	var batches [][]byte
	for i := 0; i < len(s); {
		n := rng.Intn(2 * DefaultInterval)
		if i+n > len(s) {
			n = len(s) - i
		}
		batches = append(batches, s[i:i+n])
		i += n
	}
	return batches
}

// TestAppenderBitIdentical: a corpus grown by random append batches
// publishes epochs whose contiguous image is bit-identical to a
// from-scratch NewCheckpointed build over the same prefix, at every epoch.
func TestAppenderBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{2, 3, 4, 8, 11} {
		for _, interval := range []int{4, 8, 16} {
			s := appendRandString(rng, 700+rng.Intn(200), k)
			a, err := NewAppender(k, interval)
			if err != nil {
				t.Fatal(err)
			}
			done := 0
			for _, batch := range randomBatches(rng, s) {
				if err := a.Append(batch); err != nil {
					t.Fatal(err)
				}
				done += len(batch)
				cp := a.Snapshot()
				if cp.Len() != done {
					t.Fatalf("k=%d B=%d: epoch length %d, want %d", k, interval, cp.Len(), done)
				}
				ref, err := NewCheckpointed(s[:done], k, interval)
				if err != nil {
					t.Fatal(err)
				}
				got, want := cp.ContiguousWords(), ref.Words()
				if len(got) != len(want) {
					t.Fatalf("k=%d B=%d n=%d: %d words, want %d", k, interval, done, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("k=%d B=%d n=%d: word %d is %#x, want %#x", k, interval, done, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestAppenderProbes cross-checks every probe entry point of an epoch view
// against the batch-built index.
func TestAppenderProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{2, 5} {
		s := appendRandString(rng, 513, k)
		a, err := NewAppender(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range randomBatches(rng, s) {
			if err := a.Append(batch); err != nil {
				t.Fatal(err)
			}
		}
		cp := a.Snapshot()
		ref, err := NewCheckpointed(s, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, want := make([]int, k), make([]int, k)
		for trial := 0; trial < 500; trial++ {
			i := rng.Intn(len(s) + 1)
			j := rng.Intn(len(s) + 1)
			if i > j {
				i, j = j, i
			}
			cp.CumAt(j, got)
			ref.CumAt(j, want)
			for c := range got {
				if got[c] != want[c] {
					t.Fatalf("CumAt(%d)[%d] = %d, want %d", j, c, got[c], want[c])
				}
			}
			cp.Vector(i, j, got)
			ref.Vector(i, j, want)
			for c := range got {
				if got[c] != want[c] {
					t.Fatalf("Vector(%d,%d)[%d] = %d, want %d", i, j, c, got[c], want[c])
				}
			}
		}
	}
}

// TestAppenderEpochImmutability pins down the core published-view contract:
// epochs taken mid-growth keep answering for exactly their prefix after the
// appender has moved far past them.
func TestAppenderEpochImmutability(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k = 4
	s := appendRandString(rng, 900, k)
	a, err := NewAppender(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	type epoch struct {
		n  int
		cp *Checkpointed
	}
	var epochs []epoch
	for _, batch := range randomBatches(rng, s) {
		if err := a.Append(batch); err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, epoch{n: a.Len(), cp: a.Snapshot()})
	}
	got, want := make([]int, k), make([]int, k)
	for _, e := range epochs {
		ref, err := NewCheckpointed(s[:e.n], k, 0)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 100; trial++ {
			j := rng.Intn(e.n + 1)
			i := rng.Intn(j + 1)
			e.cp.Vector(i, j, got)
			ref.Vector(i, j, want)
			for c := range got {
				if got[c] != want[c] {
					t.Fatalf("epoch n=%d after growth to %d: Vector(%d,%d)[%d] = %d, want %d",
						e.n, a.Len(), i, j, c, got[c], want[c])
				}
			}
		}
	}
}

// TestAppendableFrom adopts a batch-built index mid-string and continues
// appending; the result must match the full from-scratch build.
func TestAppendableFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{2, 6} {
		for _, cut := range []int{0, 1, 15, 16, 17, 160, 301} {
			s := appendRandString(rng, 400, k)
			base, err := NewCheckpointed(s[:cut], k, 0)
			if err != nil {
				t.Fatal(err)
			}
			a, err := AppendableFrom(base, s[:cut])
			if err != nil {
				t.Fatal(err)
			}
			if a.CopiedBytes() == 0 && cut > 0 {
				t.Fatalf("adoption of %d symbols reported zero copied bytes", cut)
			}
			if err := a.Append(s[cut:]); err != nil {
				t.Fatal(err)
			}
			ref, err := NewCheckpointed(s, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, want := a.Snapshot().ContiguousWords(), ref.Words()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d cut=%d: word %d is %#x, want %#x", k, cut, i, got[i], want[i])
				}
			}
			if string(a.Symbols()) != string(s) {
				t.Fatalf("k=%d cut=%d: symbols diverged", k, cut)
			}
		}
	}

	// Adoption from an epoch view (appender → epoch → new appender).
	a1, err := NewAppender(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := appendRandString(rng, 123, 3)
	if err := a1.Append(s); err != nil {
		t.Fatal(err)
	}
	a2, err := AppendableFrom(a1.Snapshot(), a1.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	more := appendRandString(rng, 77, 3)
	if err := a2.Append(more); err != nil {
		t.Fatal(err)
	}
	full := append(append([]byte{}, s...), more...)
	ref, err := NewCheckpointed(full, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, want := a2.Snapshot().ContiguousWords(), ref.Words()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epoch adoption: word %d is %#x, want %#x", i, got[i], want[i])
		}
	}
}

// TestAppenderRejectsBadSymbols: an invalid batch must leave the index
// untouched (atomic batch semantics).
func TestAppenderRejectsBadSymbols(t *testing.T) {
	a, err := NewAppender(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]byte{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	before := a.Snapshot().ContiguousWords()
	if err := a.Append([]byte{1, 3, 0}); err == nil {
		t.Fatal("out-of-alphabet symbol accepted")
	}
	if a.Len() != 3 {
		t.Fatalf("failed append mutated length to %d", a.Len())
	}
	after := a.Snapshot().ContiguousWords()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("failed append mutated word %d", i)
		}
	}
}

// TestAppenderSharing: steady-state appends after a growth plateau copy no
// committed data — the zero-copy epoch-sharing property, stated in bytes.
func TestAppenderSharing(t *testing.T) {
	a, err := NewAppender(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	warm := appendRandString(rng, 1<<14, 4)
	if err := a.Append(warm); err != nil {
		t.Fatal(err)
	}
	// One more symbol flushes any growth pending exactly at the boundary;
	// geometric doubling then guarantees headroom for the measured appends.
	if err := a.Append([]byte{0}); err != nil {
		t.Fatal(err)
	}
	_ = a.Snapshot()
	copied := a.CopiedBytes()
	if err := a.Append(appendRandString(rng, 64, 4)); err != nil {
		t.Fatal(err)
	}
	_ = a.Snapshot()
	if a.CopiedBytes() != copied {
		t.Fatalf("steady-state append copied %d bytes", a.CopiedBytes()-copied)
	}
}

// BenchmarkAppend measures amortized append throughput (the BENCH_5 number):
// symbols per second through the full index-maintenance path, including one
// epoch publish per batch.
func BenchmarkAppend(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "k=2", 4: "k=4", 8: "k=8"}[k], func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			batch := appendRandString(rng, 256, k)
			a, err := NewAppender(k, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(batch)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Append(batch); err != nil {
					b.Fatal(err)
				}
				_ = a.Snapshot()
			}
			b.ReportMetric(float64(a.CopiedBytes())/float64(a.Len()), "copied-B/sym")
		})
	}
}
