package sigsub_test

// Tested godoc examples for the public API. Each output line is verified by
// `go test`, so the documentation cannot drift from the implementation.

import (
	"fmt"

	"repro"
)

func ExampleFindMSS() {
	// Eight fair-looking flips, then a run of heads, then fair again.
	codec, _ := sigsub.NewTextCodecSorted("01")
	s, _ := codec.Encode("01011010111111111110010101")
	model, _ := sigsub.UniformModel(2)

	res, _ := sigsub.FindMSS(s, model)
	fmt.Printf("window [%d, %d), X² = %.2f\n", res.Start, res.End, res.X2)
	// Output:
	// window [8, 19), X² = 11.00
}

func ExampleScanner_Run_topT() {
	codec, _ := sigsub.NewTextCodecSorted("01")
	s, _ := codec.Encode("0000011111")
	model, _ := sigsub.UniformModel(2)
	sc, _ := sigsub.NewScanner(s, model)

	top, _ := sc.Run(sigsub.TopTQuery(3))
	for i, r := range top.Results {
		fmt.Printf("%d. [%d, %d) X² = %.2f\n", i+1, r.Start, r.End, r.X2)
	}
	// Output:
	// 1. [0, 5) X² = 5.00
	// 2. [5, 10) X² = 5.00
	// 3. [5, 9) X² = 4.00
}

func ExampleScanner_Run_threshold() {
	codec, _ := sigsub.NewTextCodecSorted("01")
	s, _ := codec.Encode("000000110101")
	model, _ := sigsub.UniformModel(2)
	sc, _ := sigsub.NewScanner(s, model)

	// Everything significant at the 2% level for a binary alphabet.
	cv, _ := sigsub.CriticalValue(0.02, 2)
	hits, _ := sc.Run(sigsub.ThresholdQuery(cv))
	fmt.Printf("threshold X² > %.2f: %d windows\n", cv, len(hits.Results))
	// Output:
	// threshold X² > 5.41: 1 windows
}

func ExampleScanner_RunBatch() {
	codec, _ := sigsub.NewTextCodecSorted("01")
	s, _ := codec.Encode("01011010111111111110010101")
	model, _ := sigsub.UniformModel(2)
	sc, _ := sigsub.NewScanner(s, model)

	// One batch answers all three problems: the prefix counts are built
	// once, and every query keeps its own skip budget and exact stats.
	batch, _ := sc.RunBatch([]sigsub.Query{
		sigsub.MSSQuery(),
		sigsub.TopTQuery(3),
		sigsub.ThresholdQuery(8),
	})
	fmt.Printf("MSS:   %v\n", batch[0].Results[0])
	for _, r := range batch[1].Results {
		fmt.Printf("top-3: %v\n", r)
	}
	fmt.Printf("%d windows above X²=8\n", len(batch[2].Results))
	// Output:
	// MSS:   [8, 19) len=11 X²=11.0000 p=0.000911
	// top-3: [8, 19) len=11 X²=11.0000 p=0.000911
	// top-3: [8, 18) len=10 X²=10.0000 p=0.00157
	// top-3: [9, 19) len=10 X²=10.0000 p=0.00157
	// 13 windows above X²=8
}

func ExampleChiSquare() {
	model, _ := sigsub.UniformModel(2)
	// Twenty flips, nineteen of them heads — the paper's coin example.
	s := make([]byte, 20)
	s[7] = 1
	x2, _ := sigsub.ChiSquare(s, model)
	exact, _ := sigsub.ExactPValue(s, model)
	fmt.Printf("X² = %.1f, chi-square p = %.2e, exact p = %.2e\n",
		x2, sigsub.PValue(x2, 2), exact)
	// Output:
	// X² = 16.2, chi-square p = 5.70e-05, exact p = 4.01e-05
}

func ExampleModelFromSample() {
	// Estimate the null model from the data itself, as the paper does for
	// its real datasets (e.g. the fraction of up-days).
	s := []byte{0, 0, 0, 1, 0, 1, 0, 0, 1, 0}
	model, _ := sigsub.ModelFromSample(s, 2)
	fmt.Println(model)
	// Output:
	// {0.7, 0.3}
}
