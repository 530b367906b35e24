// Finance: find the statistically significant bull and bear periods of a
// security's daily closes, in the style of the paper's §7.5.2 (Table 5).
//
// Daily closes are encoded as a binary up/down string; the null model is
// estimated from the data (the fraction of up-days), and the top disjoint
// significant windows are reported as date ranges with their price changes.
//
// The price history is the repository's synthetic stand-in for the paper's
// Yahoo-Finance data (see DESIGN.md §4).
//
// Run with: go run ./examples/finance
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/datasets"
)

func main() {
	stock := datasets.NewStock("S&P 500", 68) // seed matching the experiment harness
	if stock == nil {
		log.Fatal("unknown security")
	}
	series := stock.Series

	// The paper's model for price strings: up-probability = fraction of
	// up-days over the whole history.
	model, err := sigsub.ModelFromSample(series.Symbols, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d trading days, model %s\n\n", stock.Name, len(stock.Dates), model)

	sc, err := sigsub.NewScanner(series.Symbols, model)
	if err != nil {
		log.Fatal(err)
	}

	// Top disjoint significant periods of at least two trading weeks.
	periods, err := sc.Run(sigsub.DisjointQuery(6).WithMinLength(10))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("most significant periods:")
	fmt.Printf("%-12s %-12s %9s %10s %9s %s\n", "start", "end", "days", "X²", "p-value", "change")
	for _, r := range periods.Results {
		first, last, err := series.Span(r.Start, r.End)
		if err != nil {
			log.Fatal(err)
		}
		change := stock.Change(r.Start, r.End)
		kind := "bull"
		if change < 0 {
			kind = "bear"
		}
		fmt.Printf("%-12s %-12s %9d %10.2f %9.1e %+7.1f%%  (%s)\n",
			first, last, r.Length, r.X2, r.PValue, 100*change, kind)
	}

	// Quantify the overall historical risk via the strongest deviation, as
	// the paper suggests investment managers might.
	mss, err := sc.MSS()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstrongest deviation X² = %.2f — a 1-in-%.0f event under the null model\n",
		mss.X2, 1/mss.PValue)
}
