// Sports: find the dominant stretches of the Yankees–Red Sox rivalry, in
// the style of the paper's §7.5.1 (Table 3), and compare the algorithms on
// the same data (Table 4).
//
// The game log is the repository's synthetic stand-in for the
// baseball-reference.com data (see DESIGN.md §4): ~2080 games from 1901 to
// 2004 with the overall Yankees win rate near the historical 54.27%.
//
// Run with: go run ./examples/sports
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/datasets"
)

func main() {
	ds := datasets.NewBaseball(63) // the calibrated draw of the experiment harness
	series := ds.Series
	n := series.Len()
	fmt.Printf("rivalry log: %d games, Yankees won %d (%.2f%%)\n\n",
		n, ds.Wins, 100*float64(ds.Wins)/float64(n))

	model, err := sigsub.ModelFromSample(series.Symbols, 2)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := sigsub.NewScanner(series.Symbols, model)
	if err != nil {
		log.Fatal(err)
	}

	// Table-3 style: the five most significant disjoint patches.
	patches, err := sc.Run(sigsub.DisjointQuery(5).WithMinLength(10))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("most significant patches:")
	fmt.Printf("%-12s %-12s %8s %6s %5s %7s\n", "start", "end", "X²", "games", "wins", "win%")
	for _, r := range patches.Results {
		first, last, err := series.Span(r.Start, r.End)
		if err != nil {
			log.Fatal(err)
		}
		wins := series.CountOnes(r.Start, r.End)
		fmt.Printf("%-12s %-12s %8.2f %6d %5d %6.2f%%\n",
			first, last, r.X2, r.Length, wins, 100*float64(wins)/float64(r.Length))
	}

	// Table-4 style: how do the algorithms compare on this string?
	fmt.Println("\nalgorithm comparison (same MSS problem):")
	fmt.Printf("%-20s %8s %-12s %-12s %10s\n", "algorithm", "X²", "start", "end", "time")
	for _, alg := range []sigsub.Algorithm{
		sigsub.AlgoTrivial, sigsub.AlgoExact, sigsub.AlgoHeapPruned, sigsub.AlgoARLM, sigsub.AlgoAGMM,
	} {
		start := time.Now()
		res, err := sc.MSS(sigsub.WithAlgorithm(alg))
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		first, last, err := series.Span(res.Start, res.End)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %8.2f %-12s %-12s %10s\n", alg, res.X2, first, last, elapsed.Round(10*time.Microsecond))
	}
}
