package sigsub

// Integration tests exercising whole pipelines across modules: generator →
// file → codec → scanner → results, datasets → encoders → scanners, and the
// agreement of every exposed algorithm on shared inputs.

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/seqio"
	"repro/internal/stream"
	"repro/internal/strgen"
)

// Pipeline 1: synthetic generation → text round trip → public scan.
func TestPipelineTextRoundTripScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := alphabet.MustUniform(2)
	gen, err := strgen.NewPlanted(base, []strgen.Window{
		{Start: 600, Len: 250, Probs: []float64{0.93, 0.07}},
	})
	if err != nil {
		t.Fatal(err)
	}
	symbols := gen.Generate(1500, rng)

	// Serialize to text and parse back through seqio.
	var buf bytes.Buffer
	if err := seqio.WriteText(&buf, symbols, "01", 80); err != nil {
		t.Fatal(err)
	}
	parsed, err := seqio.ReadText(&buf, "01")
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(symbols) {
		t.Fatalf("round trip length %d vs %d", len(parsed), len(symbols))
	}

	model := mustUniform(t, 2)
	res, err := FindMSS(parsed, model)
	if err != nil {
		t.Fatal(err)
	}
	if res.End <= 600 || res.Start >= 850 {
		t.Errorf("MSS %v misses planted window [600, 850)", res)
	}
	if res.PValue > 1e-10 {
		t.Errorf("planted window p-value %g", res.PValue)
	}
}

// Pipeline 2: dataset → encoder → scanner → offline results, then the same
// stream through the online monitor; the monitor must alert inside the
// offline MSS window.
func TestPipelineOfflineVsOnline(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	base := alphabet.MustUniform(2)
	gen, err := strgen.NewPlanted(base, []strgen.Window{
		{Start: 2000, Len: 400, Probs: []float64{0.9, 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	symbols := gen.Generate(5000, rng)

	// Offline: the exact MSS.
	model := mustUniform(t, 2)
	offline, err := FindMSS(symbols, model)
	if err != nil {
		t.Fatal(err)
	}

	// Online: a 100-event window monitor with a stringent threshold.
	mon, err := stream.New(base, 100, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.ObserveAll(symbols); err != nil {
		t.Fatal(err)
	}
	alerts := mon.Alerts()
	if len(alerts) == 0 {
		t.Fatal("online monitor never alerted on the planted anomaly")
	}
	overlap := false
	for _, a := range alerts {
		end := a.End
		if end == -1 {
			end = len(symbols)
		}
		if a.Start < offline.End && offline.Start < end {
			overlap = true
		}
	}
	if !overlap {
		t.Errorf("no online alert overlaps the offline MSS %v (alerts %+v)", offline, alerts)
	}
}

// Pipeline 3: CSV price series → up/down encoding → MLE model → scan,
// mirroring the finance flow end to end with the seqio loader.
func TestPipelineCSVFinance(t *testing.T) {
	// Build a small CSV: drifting up, then a crash, then up again.
	rng := rand.New(rand.NewSource(47))
	var sb strings.Builder
	sb.WriteString("date,close\n")
	price := 100.0
	for i := 0; i < 600; i++ {
		up := 0.55
		if i >= 250 && i < 350 {
			up = 0.12 // planted crash
		}
		mag := 0.005 + 0.01*rng.Float64()
		if rng.Float64() < up {
			price *= 1 + mag
		} else {
			price *= 1 - mag
		}
		sb.WriteString("day")
		sb.WriteString(strings.Repeat("0", 3-len(itoa(i)))) // zero-pad
		sb.WriteString(itoa(i))
		sb.WriteString(",")
		sb.WriteString(ftoa(price))
		sb.WriteString("\n")
	}
	pts, err := seqio.ReadCSVSeries(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 600 {
		t.Fatalf("%d points", len(pts))
	}
	// Up/down encoding by hand (mirrors encode.UpDown without the labels).
	symbols := make([]byte, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		if pts[i].Value > pts[i-1].Value {
			symbols[i-1] = 1
		}
	}
	model, err := ModelFromSample(symbols, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FindMSS(symbols, model)
	if err != nil {
		t.Fatal(err)
	}
	if res.End <= 250 || res.Start >= 350 {
		t.Errorf("MSS %v misses the planted crash [250, 350)", res)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func ftoa(v float64) string {
	// Two decimals suffice for the test CSV.
	scaled := int(v * 100)
	return itoa(scaled/100) + "." + itoa(scaled%100)
}

// Pipeline 4: the real-data experiment path — dataset, MLE, all algorithms
// agreeing (or heuristics underperforming) on the same answer.
func TestPipelineSportsAllAlgorithms(t *testing.T) {
	ds := datasets.NewBaseball(63)
	model, err := ModelFromSample(ds.Series.Symbols, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(ds.Series.Symbols, model)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := sc.MSS()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgoTrivial, AlgoTrivialIncremental, AlgoHeapPruned, AlgoARLM} {
		res, err := sc.MSS(WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.X2-exact.X2) > 1e-6 {
			t.Errorf("%v: %.6f differs from exact %.6f", alg, res.X2, exact.X2)
		}
	}
	agmm, err := sc.MSS(WithAlgorithm(AlgoAGMM))
	if err != nil {
		t.Fatal(err)
	}
	if agmm.X2 > exact.X2+1e-6 {
		t.Errorf("AGMM %.6f beat the optimum %.6f", agmm.X2, exact.X2)
	}
}

// Pipeline 5: core scanner consistency — the public disjoint query agrees
// with the internal range-scoped MSS scan its peel starts from.
func TestPipelineDisjointConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m := mustUniform(t, 3)
	s := randString(rng, 400, 3)
	sc, err := NewScanner(s, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runResults(sc, DisjointQuery(3).WithMinLength(4))
	if err != nil {
		t.Fatal(err)
	}

	im, err := alphabet.Uniform(3)
	if err != nil {
		t.Fatal(err)
	}
	isc, err := core.NewScanner(s, im)
	if err != nil {
		t.Fatal(err)
	}
	first := isc.RunQuery(core.Engine{Workers: 1}, core.Query{Kind: core.KindMSS, MinLen: 4, Hi: 400}).Best()
	if len(res) == 0 || math.Abs(res[0].X2-first.X2) > 1e-9 {
		t.Errorf("public disjoint query [0] %v vs internal range MSS %v", res[0], first)
	}
}
