// Command ssexp regenerates the tables and figures of the paper's
// evaluation (§7). Each experiment prints the same rows or series the paper
// reports.
//
// Examples:
//
//	ssexp -list
//	ssexp -exp fig1a
//	ssexp -exp all -scale 1 -seed 1          # full paper scale
//	ssexp -exp table1 -scale 0.25 -runs 3
//	ssexp -exp fig2 -format csv
//	ssexp -exp fig1a -workers 8                # parallel exact scans
//	ssexp -exp table1 -cpuprofile cpu.pprof    # profile the hot paths
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssexp:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ssexp", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "", "experiment id (fig1a..fig7, table1..table6) or 'all'")
		scale   = fs.Float64("scale", 0.25, "string-length scale relative to the paper (1 = full scale)")
		seed    = fs.Int64("seed", 1, "random seed")
		runs    = fs.Int("runs", 3, "averaging runs where the paper averages (table1)")
		format  = fs.String("format", "text", "text | csv")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		workers = fs.Int("workers", 1, "parallel scan workers for the exact algorithm (0 = all CPUs)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ssexp: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ssexp: memprofile:", err)
			}
		}()
	}

	if *list {
		desc := experiments.Describe()
		for _, id := range experiments.IDs() {
			fmt.Fprintf(out, "%-8s %s\n", id, desc[id])
		}
		return nil
	}
	if *exp == "" {
		return fmt.Errorf("no experiment selected: use -exp <id> or -list")
	}

	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	cfg := experiments.Config{Seed: *seed, Scale: *scale, Runs: *runs, Workers: w}

	var tables []*experiments.Table
	if *exp == "all" {
		tables = experiments.RunAll(cfg)
	} else {
		fn, err := experiments.Lookup(*exp)
		if err != nil {
			return err
		}
		tables = []*experiments.Table{fn(cfg)}
	}

	for _, t := range tables {
		var err error
		switch *format {
		case "text":
			err = t.Render(out)
		case "csv":
			err = t.RenderCSV(out)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
