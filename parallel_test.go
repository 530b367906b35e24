package sigsub

import (
	"math/rand"
	"sync"
	"testing"
)

// parallelFixture builds a moderately sized random string with a planted
// anomaly so the MSS is non-trivial.
func parallelFixture(t *testing.T, n, k int, seed int64) (*Scanner, *Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(k))
	}
	for i := n / 3; i < n/3+n/10 && i < n; i++ {
		s[i] = 0 // plant a run
	}
	m := mustUniform(t, k)
	sc, err := NewScanner(s, m)
	if err != nil {
		t.Fatal(err)
	}
	return sc, m
}

// The public options must hand back exactly the sequential results: same
// interval, same X², same Evaluated+Skipped total.
func TestWithWorkersGolden(t *testing.T) {
	for _, k := range []int{2, 4} {
		sc, _ := parallelFixture(t, 3000, k, int64(k))
		var seqSt, parSt Stats
		seq, err := sc.MSS(WithStats(&seqSt))
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range [][]Option{
			{WithWorkers(4), WithStats(&parSt)},
			{WithWorkers(8), WithStats(&parSt)},
			{WithWorkers(0), WithStats(&parSt)}, // all CPUs
		} {
			par, err := sc.MSS(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if par != seq {
				t.Errorf("k=%d: parallel MSS %+v, sequential %+v", k, par, seq)
			}
			if parSt.Evaluated+parSt.Skipped != seqSt.Evaluated+seqSt.Skipped {
				t.Errorf("k=%d: parallel accounts for %d substrings, sequential %d",
					k, parSt.Evaluated+parSt.Skipped, seqSt.Evaluated+seqSt.Skipped)
			}
			if parSt.Starts != seqSt.Starts {
				t.Errorf("k=%d: parallel starts %d, sequential %d", k, parSt.Starts, seqSt.Starts)
			}
		}

		seqTop, err := runResults(sc, TopTQuery(25))
		if err != nil {
			t.Fatal(err)
		}
		parTop, err := runResults(sc, TopTQuery(25), WithWorkers(8))
		if err != nil {
			t.Fatal(err)
		}
		if len(parTop) != len(seqTop) {
			t.Fatalf("k=%d: top-t sizes %d vs %d", k, len(parTop), len(seqTop))
		}
		for i := range parTop {
			if parTop[i].X2 != seqTop[i].X2 {
				t.Errorf("k=%d: top-t value %d is %v, sequential %v", k, i, parTop[i].X2, seqTop[i].X2)
			}
		}

		alpha := seq.X2 * 0.6
		seqTh, err := runResults(sc, ThresholdQuery(alpha))
		if err != nil {
			t.Fatal(err)
		}
		parTh, err := runResults(sc, ThresholdQuery(alpha), WithWorkers(8))
		if err != nil {
			t.Fatal(err)
		}
		if len(parTh) != len(seqTh) {
			t.Fatalf("k=%d: threshold sizes %d vs %d", k, len(parTh), len(seqTh))
		}
		for i := range parTh {
			if parTh[i] != seqTh[i] {
				t.Errorf("k=%d: threshold result %d is %+v, sequential %+v", k, i, parTh[i], seqTh[i])
				break
			}
		}

		seqMin, err := runBest(sc, MSSQuery().WithMinLength(51))
		if err != nil {
			t.Fatal(err)
		}
		parMin, err := runBest(sc, MSSQuery().WithMinLength(51), WithWorkers(8))
		if err != nil {
			t.Fatal(err)
		}
		if parMin != seqMin {
			t.Errorf("k=%d: min-length MSS %+v, sequential %+v", k, parMin, seqMin)
		}
	}
}

// Exercises WithWorkers(8) from several goroutines at once; run under
// `go test -race` (CI does) this doubles as the engine's data-race check.
func TestWithWorkers8Race(t *testing.T) {
	sc, _ := parallelFixture(t, 1500, 4, 99)
	want, err := sc.MSS()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine must build its own Scanner: a Scanner's scans
			// share scratch, only the engine's workers are isolated.
			own, err := NewScanner(sc.sc.Symbols(), &Model{m: sc.sc.Model()})
			if err != nil {
				t.Error(err)
				return
			}
			for iter := 0; iter < 3; iter++ {
				got, err := own.MSS(WithWorkers(8))
				if err != nil {
					t.Error(err)
					return
				}
				if got != want {
					t.Errorf("concurrent MSS %+v, want %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
