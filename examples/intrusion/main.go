// Intrusion detection: find statistically anomalous windows in an event
// stream and check whether the same attack pattern recurs, motivated by the
// paper's §1 applications (chi-square anomaly detection in audit streams)
// and §2's observation that suffix structures complement — rather than
// replace — the statistic.
//
// The stream is a synthetic audit log over a 4-symbol alphabet of event
// classes (read / write / auth / error). Normal traffic follows a stable
// mix; two injected attack bursts flood the stream with auth-failures. The
// example finds the bursts with the chi-square scan and then uses a suffix
// array to report recurrences of the strongest burst's exact signature.
//
// Run with: go run ./examples/intrusion
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/patterns"
)

var eventNames = []string{"read", "write", "auth", "error"}

func main() {
	rng := rand.New(rand.NewSource(5))

	// Normal traffic: mostly reads and writes, few auth events and errors.
	normal := []float64{0.55, 0.30, 0.10, 0.05}
	// Attack: auth-failure flood.
	attack := []float64{0.05, 0.05, 0.60, 0.30}

	stream := make([]byte, 0, 6000)
	draw := func(probs []float64, n int) {
		for i := 0; i < n; i++ {
			u := rng.Float64()
			acc := 0.0
			for sym, p := range probs {
				acc += p
				if u < acc {
					stream = append(stream, byte(sym))
					break
				}
			}
		}
	}
	draw(normal, 2500)
	attack1 := len(stream)
	draw(attack, 300)
	draw(normal, 2000)
	attack2 := len(stream)
	draw(attack, 250)
	draw(normal, 950)

	fmt.Printf("audit stream: %d events; attacks injected at %d and %d\n\n", len(stream), attack1, attack2)

	// The defender models normal traffic (estimated from a clean sample in
	// practice; here we use the known mix).
	model, err := sigsub.NewModel(normal)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := sigsub.NewScanner(stream, model)
	if err != nil {
		log.Fatal(err)
	}

	// Alert on every disjoint window significant far beyond chance.
	windows, err := sc.Run(sigsub.DisjointQuery(5).WithMinLength(50))
	if err != nil {
		log.Fatal(err)
	}
	cv, err := sigsub.CriticalValue(1e-6, model.K())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("anomalous windows (alert when X² > %.1f, i.e. p < 1e-6):\n", cv)
	for _, w := range windows.Results {
		if w.X2 <= cv {
			continue
		}
		counts := make([]int, 4)
		for _, e := range stream[w.Start:w.End] {
			counts[e]++
		}
		fmt.Printf("  [%6d, %6d) X²=%8.1f p=%.1e mix:", w.Start, w.End, w.X2, w.PValue)
		for sym, c := range counts {
			fmt.Printf(" %s=%d", eventNames[sym], c)
		}
		fmt.Println()
	}

	// Recurrence analysis: does any anomalous signature repeat verbatim?
	// (Short signatures recur; whole bursts are unique.)
	coreModel, err := alphabet.NewModel(normal)
	if err != nil {
		log.Fatal(err)
	}
	csc, err := core.NewScanner(stream, coreModel)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := patterns.FindRecurring(csc, 10, 8, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrecurring anomalous signatures (exact content, ≥ 2 occurrences):")
	if len(recs) == 0 {
		fmt.Println("  none — each anomaly has a unique signature")
	}
	for _, r := range recs {
		sig := stream[r.Window.Start:r.Window.End]
		fmt.Printf("  len %d signature seen %d times at %v (X²=%.1f)\n",
			len(sig), r.Count(), r.Occurrences, r.Window.X2)
	}
}
