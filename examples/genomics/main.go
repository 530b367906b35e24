// Genomics: locate compositionally anomalous regions of a DNA sequence —
// the computational-biology motivation of the paper's introduction
// (over-represented oligonucleotides, mutation-rate shifts).
//
// A synthetic 60 kb genome is generated with background base composition
// estimated from the sequence itself; two planted features deviate from it:
// a GC-rich island (CpG-island-like) and an AT-rich stretch (mutation
// hotspot-like). The example writes/reads the sequence through the FASTA
// codec, finds the most significant regions, and reports their base
// compositions; a Monte-Carlo calibration turns the strongest X² into an
// honest genome-wide p-value.
//
// Run with: go run ./examples/genomics
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/seqio"
)

func main() {
	rng := rand.New(rand.NewSource(13))

	// Background composition: slightly AT-rich, like many genomes.
	background := []float64{0.30, 0.20, 0.20, 0.30} // A C G T
	gcIsland := []float64{0.10, 0.40, 0.40, 0.10}
	atStretch := []float64{0.45, 0.05, 0.05, 0.45}

	const n = 60000
	genome := make([]byte, n)
	for i := range genome {
		probs := background
		switch {
		case i >= 20000 && i < 21500:
			probs = gcIsland
		case i >= 45000 && i < 46000:
			probs = atStretch
		}
		u := rng.Float64()
		acc := 0.0
		for sym, p := range probs {
			acc += p
			if u < acc {
				genome[i] = byte(sym)
				break
			}
		}
	}

	// Round-trip through FASTA, as a real pipeline would.
	var fasta bytes.Buffer
	fmt.Fprintln(&fasta, ">synthetic_chr1 60kb with planted GC island and AT stretch")
	if err := seqio.WriteText(&fasta, genome, seqio.DNAAlphabet, 70); err != nil {
		log.Fatal(err)
	}
	recs, err := seqio.ReadFASTA(&fasta)
	if err != nil {
		log.Fatal(err)
	}
	seq := recs[0].Symbols
	fmt.Printf("loaded %q: %d bases\n\n", recs[0].Header, len(seq))

	// Model: base frequencies estimated from the whole sequence (the
	// standard genomic null).
	model, err := sigsub.ModelFromSample(seq, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("background model (A C G T): %s\n\n", model)

	sc, err := sigsub.NewScanner(seq, model)
	if err != nil {
		log.Fatal(err)
	}
	regions, err := sc.Run(sigsub.DisjointQuery(4).WithMinLength(200))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("most significant regions (≥ 200 bp):")
	fmt.Printf("%-16s %8s %9s %7s %27s\n", "region", "len", "X²", "GC%", "composition A/C/G/T")
	for _, r := range regions.Results {
		counts := [4]int{}
		for _, b := range seq[r.Start:r.End] {
			counts[b]++
		}
		gc := 100 * float64(counts[1]+counts[2]) / float64(r.Length)
		fmt.Printf("[%6d,%6d) %8d %9.1f %6.1f%% %8d/%d/%d/%d\n",
			r.Start, r.End, r.Length, r.X2, gc, counts[0], counts[1], counts[2], counts[3])
	}

	// Genome-wide significance of the strongest region: the naive χ²(3)
	// p-value ignores that we maximized over ~1.8e9 windows; calibrate the
	// null X²max on shorter simulated genomes of the same composition.
	mss, err := sc.MSS()
	if err != nil {
		log.Fatal(err)
	}
	cal, err := sigsub.Calibrate(len(seq), model, 25, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstrongest region X² = %.1f\n", mss.X2)
	fmt.Printf("  naive per-window p-value:      %.2e\n", mss.PValue)
	fmt.Printf("  genome-wide calibrated p-value: %.3f (null E[X²max] = %.1f over %d simulations)\n",
		cal.MaxPValue(mss.X2), cal.MeanMax(), cal.Samples())
}
