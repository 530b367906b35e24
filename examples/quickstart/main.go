// Quickstart: find the most significant substring of a binary string.
//
// A fair-coin model is assumed; the input contains a planted run where
// heads dominate. The example prints the MSS, its p-value, the top-3
// substrings, and everything above a significance threshold.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	// A sequence of coin flips: fair everywhere except positions 40..70,
	// where heads (symbol 1) come up 90% of the time.
	rng := rand.New(rand.NewSource(7))
	flips := make([]byte, 120)
	for i := range flips {
		p := 0.5
		if i >= 40 && i < 70 {
			p = 0.9
		}
		if rng.Float64() < p {
			flips[i] = 1
		}
	}

	// The null model: a fair coin.
	model, err := sigsub.UniformModel(2)
	if err != nil {
		log.Fatal(err)
	}

	// Problem 1: the Most Significant Substring.
	res, err := sigsub.FindMSS(flips, model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MSS: window [%d, %d) of length %d\n", res.Start, res.End, res.Length)
	fmt.Printf("     X² = %.2f, p-value = %.2e\n\n", res.X2, res.PValue)

	// Reuse one scanner for further queries.
	sc, err := sigsub.NewScanner(flips, model)
	if err != nil {
		log.Fatal(err)
	}

	// Problem 2: the top-3 substrings (they typically overlap the MSS).
	top, err := sc.Run(sigsub.TopTQuery(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-3 substrings by X²:")
	for i, r := range top.Results {
		fmt.Printf("  %d. %v\n", i+1, r)
	}
	fmt.Println()

	// Problem 3: everything significant at the 0.1% level.
	cv, err := sigsub.CriticalValue(0.001, model.K())
	if err != nil {
		log.Fatal(err)
	}
	hits, err := sc.Run(sigsub.ThresholdQuery(cv))
	if err != nil {
		log.Fatal(err)
	}
	if hits.Err != nil {
		log.Fatal(hits.Err) // more hits than the query's result cap
	}
	fmt.Printf("%d substrings are significant at alpha = 0.001 (X² > %.2f)\n\n", len(hits.Results), cv)

	// Problem 4: the MSS among windows longer than 50.
	long, err := sc.Run(sigsub.MSSQuery().WithMinLength(51))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MSS among windows longer than 50: %v\n", long.Results[0])

	// How much work did the skip algorithm save?
	var st sigsub.Stats
	if _, err := sc.MSS(sigsub.WithStats(&st)); err != nil {
		log.Fatal(err)
	}
	total := st.Evaluated + st.Skipped
	fmt.Printf("\nscan cost: evaluated %d of %d substrings (%.1f%% skipped)\n",
		st.Evaluated, total, 100*float64(st.Skipped)/float64(total))
}
