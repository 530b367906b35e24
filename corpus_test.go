package sigsub

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// corpusRandString draws n symbols with a planted hot region so the MSS is
// non-trivial.
func corpusRandString(rng *rand.Rand, n, k int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(k))
	}
	// Plant a deviation window.
	lo := n / 3
	hi := lo + n/10
	for i := lo; i < hi && i < n; i++ {
		if rng.Intn(3) != 0 {
			s[i] = 0
		}
	}
	return s
}

// corpusBatches cuts s into random batches of 1 to maxBatch symbols.
func corpusBatches(rng *rand.Rand, s []byte, maxBatch int) [][]byte {
	var batches [][]byte
	for i := 0; i < len(s); {
		n := 1 + rng.Intn(maxBatch)
		if i+n > len(s) {
			n = len(s) - i
		}
		batches = append(batches, s[i:i+n])
		i += n
	}
	return batches
}

// corpusModels returns the model zoo the golden tests sweep, in a fixed
// order (each model draws from its own deterministic rng, so the corpora —
// and hence the expected result sets — never depend on iteration order).
type namedModel struct {
	name  string
	model *Model
}

func corpusModels(t *testing.T) []namedModel {
	t.Helper()
	uni, err := UniformModel(4)
	if err != nil {
		t.Fatal(err)
	}
	skew, err := NewModel([]float64{0.5, 0.25, 0.15, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := UniformModel(2)
	if err != nil {
		t.Fatal(err)
	}
	return []namedModel{{"uniform4", uni}, {"skew4", skew}, {"uniform2", bin}}
}

// TestCorpusGoldenEquivalence is the tentpole contract: a corpus built by N
// random Append batches yields Views whose Problems 1–4 and RunBatch
// results are bit-identical to NewScanner over the concatenated string, at
// workers 1 and 8.
func TestCorpusGoldenEquivalence(t *testing.T) {
	for mi, nm := range corpusModels(t) {
		name, model := nm.name, nm.model
		rng := rand.New(rand.NewSource(42 + int64(mi)))
		k := model.K()
		s := corpusRandString(rng, 1200+rng.Intn(300), k)
		corpus, err := NewCorpus(model)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range corpusBatches(rng, s, 97) {
			if err := corpus.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		view := corpus.View()
		if view.Len() != len(s) {
			t.Fatalf("%s: view length %d, want %d", name, view.Len(), len(s))
		}
		if !bytes.Equal(view.Symbols(), s) {
			t.Fatalf("%s: view symbols diverged", name)
		}

		batch := []Query{
			MSSQuery(),
			TopTQuery(7),
			ThresholdQuery(9.5),
			MSSQuery().WithMinLength(6),
			MSSQuery().WithRange(len(s)/4, 3*len(s)/4),
		}
		ref, err := NewScanner(s, model)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			opts := []Option{WithWorkers(workers)}

			wantMSS, err := ref.MSS(opts...)
			if err != nil {
				t.Fatal(err)
			}
			gotMSS, err := view.MSS(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if gotMSS != wantMSS {
				t.Fatalf("%s w=%d: MSS %+v, want %+v", name, workers, gotMSS, wantMSS)
			}

			wantTop, err := runResults(ref, TopTQuery(7), opts...)
			if err != nil {
				t.Fatal(err)
			}
			gotTop, err := runResults(view, TopTQuery(7), opts...)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotTop) != len(wantTop) {
				t.Fatalf("%s w=%d: top-t sizes %d vs %d", name, workers, len(gotTop), len(wantTop))
			}
			for i := range wantTop {
				if gotTop[i].X2 != wantTop[i].X2 {
					t.Fatalf("%s w=%d: top-t %d X² %v, want %v", name, workers, i, gotTop[i].X2, wantTop[i].X2)
				}
			}

			wantTh, err := runResults(ref, ThresholdQuery(9.5), opts...)
			if err != nil {
				t.Fatal(err)
			}
			gotTh, err := runResults(view, ThresholdQuery(9.5), opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTh, wantTh) {
				t.Fatalf("%s w=%d: threshold sets differ (%d vs %d results)", name, workers, len(gotTh), len(wantTh))
			}

			wantMin, err := runBest(ref, MSSQuery().WithMinLength(6), opts...)
			if err != nil {
				t.Fatal(err)
			}
			gotMin, err := runBest(view, MSSQuery().WithMinLength(6), opts...)
			if err != nil {
				t.Fatal(err)
			}
			if gotMin != wantMin {
				t.Fatalf("%s w=%d: min-length MSS %+v, want %+v", name, workers, gotMin, wantMin)
			}

			wantB, err := ref.RunBatch(batch, opts...)
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := view.RunBatch(batch, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for qi := range batch {
				g, w := gotB[qi], wantB[qi]
				if len(g.Results) != len(w.Results) {
					t.Fatalf("%s w=%d: batch query %d sizes %d vs %d", name, workers, qi, len(g.Results), len(w.Results))
				}
				for i := range w.Results {
					if batch[qi].Kind == QueryTopT {
						if g.Results[i].X2 != w.Results[i].X2 {
							t.Fatalf("%s w=%d: batch query %d result %d X² differs", name, workers, qi, i)
						}
					} else if g.Results[i] != w.Results[i] {
						t.Fatalf("%s w=%d: batch query %d result %d %+v, want %+v",
							name, workers, qi, i, g.Results[i], w.Results[i])
					}
				}
			}
		}
	}
}

// TestCorpusEpochPinning: Views taken mid-append answer for exactly their
// epoch's prefix, long after the corpus has grown past them — MSS, top-5
// and MSS at 8 workers equal a fresh scanner's over the prefix. The inputs
// are a uniform k=3 corpus and a skewed k=8 one whose short batches end
// most epochs mid-block, so its views probe relocated tail blocks.
func TestCorpusEpochPinning(t *testing.T) {
	uni3, err := UniformModel(3)
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, 8)
	rest := 1.0
	for c := range 7 {
		probs[c] = rest / 3
		rest -= probs[c]
	}
	probs[7] = rest
	skew8, err := NewModel(probs)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name     string
		model    *Model
		seed     int64
		n        int
		maxBatch int
	}{{"uniform3", uni3, 9, 800, 97}, {"skew8", skew8, 99, 600, 37}} {
		rng := rand.New(rand.NewSource(in.seed))
		s := corpusRandString(rng, in.n, in.model.K())
		corpus, err := NewCorpus(in.model)
		if err != nil {
			t.Fatal(err)
		}
		type pinned struct {
			n     int
			epoch uint64
			view  *Scanner
		}
		var pins []pinned
		n := 0
		for _, b := range corpusBatches(rng, s, in.maxBatch) {
			if err := corpus.Append(b); err != nil {
				t.Fatal(err)
			}
			n += len(b)
			pins = append(pins, pinned{n: n, epoch: corpus.Epoch(), view: corpus.View()})
		}
		for i, p := range pins {
			if p.epoch != uint64(i+1) {
				t.Fatalf("%s pin %d: epoch %d, want %d", in.name, i, p.epoch, i+1)
			}
			if p.view.Len() != p.n {
				t.Fatalf("%s pin %d: view length %d, want %d", in.name, i, p.view.Len(), p.n)
			}
			ref, err := NewScanner(s[:p.n], in.model)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.MSS()
			if err != nil {
				t.Fatal(err)
			}
			wantTop, err := runResults(ref, TopTQuery(5))
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.view.MSS()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s pin %d (n=%d): MSS %+v, want %+v", in.name, i, p.n, got, want)
			}
			gotTop, err := runResults(p.view, TopTQuery(5))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTop, wantTop) {
				t.Fatalf("%s pin %d (n=%d): top-5 %+v, want %+v", in.name, i, p.n, gotTop, wantTop)
			}
			gotPar, err := p.view.MSS(WithWorkers(8))
			if err != nil {
				t.Fatal(err)
			}
			if gotPar != want {
				t.Fatalf("%s pin %d (n=%d) w=8: MSS %+v, want %+v", in.name, i, p.n, gotPar, want)
			}
		}
		// Same-epoch Views are the same scanner (cached publish).
		if corpus.View() != corpus.View() {
			t.Fatalf("%s: same-epoch Views differ", in.name)
		}
	}
}

// TestCorpusConcurrentReadersWriter is the -race contract: 8 reader
// goroutines querying Views while a writer appends. Every reader must see a
// self-consistent epoch (its view's MSS matches a fresh scan of its view's
// own symbols).
func TestCorpusConcurrentReadersWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	model, err := UniformModel(4)
	if err != nil {
		t.Fatal(err)
	}
	s := corpusRandString(rng, 4000, 4)
	corpus, err := NewCorpus(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := corpus.Append(s[:256]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				view := corpus.View()
				var got Result
				var err error
				if worker%2 == 0 {
					got, err = view.MSS()
				} else {
					var top []Result
					top, err = runResults(view, TopTQuery(3), WithWorkers(2))
					if err == nil && len(top) > 0 {
						got = top[0]
					}
				}
				if err != nil {
					errs <- err
					return
				}
				// The view's own symbols are its pinned prefix; a fresh
				// from-scratch scan over them must agree.
				ref, err := NewScanner(view.Symbols(), model)
				if err != nil {
					errs <- err
					return
				}
				want, err := ref.MSS()
				if err != nil {
					errs <- err
					return
				}
				if worker%2 == 0 && got != want {
					errs <- err
					return
				}
			}
		}(r)
	}
	for i := 256; i < len(s); i += 64 {
		hi := i + 64
		if hi > len(s) {
			hi = len(s)
		}
		if err := corpus.Append(s[i:hi]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Final state matches a from-scratch scanner.
	ref, err := NewScanner(s, model)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MSS()
	if err != nil {
		t.Fatal(err)
	}
	got, err := corpus.View().MSS()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("final MSS %+v, want %+v", got, want)
	}
}

// TestCorpusFromSnapshot: a snapshot-seeded corpus serves the sealed epoch
// as-is, then grows past it correctly.
func TestCorpusFromSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	model, err := UniformModel(4)
	if err != nil {
		t.Fatal(err)
	}
	s := corpusRandString(rng, 600, 4)
	sealed, err := NewScanner(s[:400], model)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sealed.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sn, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := NewCorpusFromSnapshot(sn)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 0: the snapshot's own scanner, served with zero copying.
	if corpus.View() != sn.Scanner() {
		t.Fatal("epoch-0 view is not the snapshot scanner")
	}
	if corpus.CopiedBytes() != 0 {
		t.Fatalf("sealed corpus copied %d bytes before any append", corpus.CopiedBytes())
	}
	sealedMSS, err := sealed.MSS()
	if err != nil {
		t.Fatal(err)
	}
	got, err := corpus.View().MSS()
	if err != nil {
		t.Fatal(err)
	}
	if got != sealedMSS {
		t.Fatalf("sealed view MSS %+v, want %+v", got, sealedMSS)
	}
	// Grow past the seal.
	if err := corpus.Append(s[400:]); err != nil {
		t.Fatal(err)
	}
	if corpus.CopiedBytes() == 0 {
		t.Fatal("first append after a snapshot seed must adopt (copy) the sealed state")
	}
	ref, err := NewScanner(s, model)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MSS()
	if err != nil {
		t.Fatal(err)
	}
	got, err = corpus.View().MSS()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("grown MSS %+v, want %+v", got, want)
	}
}

// TestCorpusAppendText: codec-level appends share the scanner alphabet and
// reject characters outside it.
func TestCorpusAppendText(t *testing.T) {
	codec, err := NewTextCodecSorted("01")
	if err != nil {
		t.Fatal(err)
	}
	model, err := codec.UniformModel()
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := NewCorpus(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := corpus.AppendText(codec, "0101101011111"); err != nil {
		t.Fatal(err)
	}
	epoch := corpus.Epoch()
	if err := corpus.AppendText(codec, "01x1"); err == nil {
		t.Fatal("out-of-alphabet character accepted")
	}
	if corpus.Epoch() != epoch || corpus.Len() != 13 {
		t.Fatal("rejected append mutated the corpus")
	}
}
