// Command mss finds statistically significant substrings of a text string
// using the chi-square statistic.
//
// The input is read from -text or from a file (-file); every distinct
// character becomes an alphabet symbol (sorted order). By default the
// uniform model is assumed; -probs overrides it with comma-separated
// probabilities (in sorted character order), and -mle estimates the model
// from the input itself.
//
// Modes:
//
//	mss -text 0001101000000111 -mode mss
//	mss -file games.txt -mle -mode topt -t 5
//	mss -text ... -mode threshold -alpha 10
//	mss -text ... -mode minlen -gamma 20
//	mss -text ... -mode disjoint -t 5 -minlen 10
//
// -alg selects the algorithm for mss mode: exact (default), trivial,
// trivial-incremental, heap-pruned, arlm, agmm.
//
// -format json emits machine-consumable output using the same result schema
// the mssd daemon serves (internal/service), so pipelines can consume both
// interchangeably.
//
// Snapshots connect the CLI to the daemon's durable store: -snapshot-out
// writes the built corpus (codec, model, symbols, count index) as a
// checksummed snapshot file (combine with -mode none to build offline
// indexes without running a query), and -snapshot-in scans straight from
// such a file, mmap-served, skipping the O(n·k) build:
//
//	mss -file corpus.txt -mle -snapshot-out corpus.snap -mode none
//	mss -snapshot-in corpus.snap -mode topt -t 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"

	"repro"
	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/internal/vfs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mss:", err)
		os.Exit(1)
	}
}

// buildVersion reports the module version stamped by the Go toolchain, or
// "devel" for plain source builds.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mss", flag.ContinueOnError)
	var (
		text     = fs.String("text", "", "input string (e.g. 01101000)")
		file     = fs.String("file", "", "read the input string from a file (whitespace is stripped)")
		probsCS  = fs.String("probs", "", "comma-separated model probabilities in sorted character order")
		mle      = fs.Bool("mle", false, "estimate the model from the input (overrides -probs)")
		mode     = fs.String("mode", "mss", "mss | topt | disjoint | threshold | minlen | none (none: with -snapshot-out, build and write the index only)")
		algName  = fs.String("alg", "exact", "algorithm for mss mode: exact|trivial|trivial-incremental|heap-pruned|arlm|agmm")
		tFlag    = fs.Int("t", 5, "number of results for topt/disjoint modes")
		alpha    = fs.Float64("alpha", 10, "chi-square threshold for threshold mode")
		gamma    = fs.Int("gamma", 0, "minimum length bound for minlen mode (strictly greater)")
		minLen   = fs.Int("minlen", 1, "minimum substring length for disjoint mode")
		stats    = fs.Bool("stats", false, "print evaluated/skipped substring counts")
		calib    = fs.Int("calibrate", 0, "mss mode: simulate this many null strings and report the multiple-testing-corrected p-value of X²max")
		workers  = fs.Int("workers", 1, "parallel scan workers (0 = all CPUs)")
		format   = fs.String("format", "text", "output format: text | json")
		snapOut  = fs.String("snapshot-out", "", "write the built corpus (codec, model, symbols, count index) to this snapshot file — the offline index build mssd -data-dir serves directly")
		snapIn   = fs.String("snapshot-in", "", "scan a corpus from a snapshot file (mmap-served) instead of -text/-file; the model and codec come from the snapshot")
		segments = fs.Int("segments", 0, "with -snapshot-out: cut the corpus into this many suffix segments and write one snapshot plus .segment.json sidecar per shard (for mssd -shard-of serving) instead of a single file")
		version  = fs.Bool("version", false, "print the version")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintf(out, "mss %s\n", buildVersion())
		return nil
	}

	var (
		codec   *sigsub.TextCodec
		symbols []byte
		model   *sigsub.Model
		sc      *sigsub.Scanner
	)
	if *snapIn != "" {
		if *text != "" || *file != "" {
			return fmt.Errorf("-snapshot-in replaces -text/-file; use one input")
		}
		if *mle || *probsCS != "" {
			return fmt.Errorf("a snapshot's model is fixed at write time; drop -mle/-probs")
		}
		sn, err := sigsub.OpenSnapshot(*snapIn)
		if err != nil {
			return err
		}
		defer sn.Close()
		sc, model, codec = sn.Scanner(), sn.Model(), sn.Codec()
		symbols = sc.Symbols()
	} else {
		raw := *text
		if *file != "" {
			data, err := os.ReadFile(*file)
			if err != nil {
				return err
			}
			raw = strings.Join(strings.Fields(string(data)), "")
		}
		if raw == "" {
			return fmt.Errorf("no input: use -text, -file, or -snapshot-in")
		}

		var err error
		codec, err = sigsub.NewTextCodecSorted(raw)
		if err != nil {
			return err
		}
		symbols, err = codec.Encode(raw)
		if err != nil {
			return err
		}

		switch {
		case *mle:
			model, err = sigsub.ModelFromSample(symbols, codec.K())
		case *probsCS != "":
			var probs []float64
			for _, f := range strings.Split(*probsCS, ",") {
				v, perr := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if perr != nil {
					return fmt.Errorf("bad probability %q: %v", f, perr)
				}
				probs = append(probs, v)
			}
			if len(probs) != codec.K() {
				return fmt.Errorf("-probs has %d entries but the input uses %d distinct characters", len(probs), codec.K())
			}
			model, err = sigsub.NewModel(probs)
		default:
			model, err = codec.UniformModel()
		}
		if err != nil {
			return err
		}

		sc, err = sigsub.NewScanner(symbols, model)
		if err != nil {
			return err
		}
	}

	if *segments > 1 && *snapOut == "" {
		return fmt.Errorf("-segments requires -snapshot-out (segment builds are offline)")
	}
	if *snapOut != "" {
		if *segments > 1 {
			if err := writeSegmentFiles(*snapOut, sc, codec, model, *segments); err != nil {
				return err
			}
		} else if err := writeSnapshotFile(*snapOut, sc, codec); err != nil {
			return err
		}
		if *mode == "none" {
			return nil
		}
	}
	if *mode == "none" {
		return fmt.Errorf("-mode none requires -snapshot-out (build the index, run no query)")
	}

	asJSON := false
	switch *format {
	case "text":
	case "json":
		asJSON = true
	default:
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}

	if !asJSON {
		fmt.Fprintf(out, "input: n=%d k=%d model=%s\n", len(symbols), model.K(), model)
	}

	var st sigsub.Stats
	opts := []sigsub.Option{sigsub.WithStats(&st), sigsub.WithWorkers(*workers)}

	decode := func(r sigsub.Result, cap int) string {
		if codec == nil {
			// Codec-less snapshots scan fine; they just cannot echo text.
			return ""
		}
		end := r.End
		if cap > 0 && r.Length > cap {
			end = r.Start + cap
		}
		txt, derr := codec.Decode(symbols[r.Start:end])
		if derr != nil {
			return ""
		}
		return txt
	}

	var results []sigsub.Result
	var calibration *calibrationJSON
	var q sigsub.Query
	switch *mode {
	case "mss":
		alg, aerr := sigsub.ParseAlgorithm(*algName)
		if aerr != nil {
			return aerr
		}
		res, merr := sc.MSS(append(opts, sigsub.WithAlgorithm(alg))...)
		if merr != nil {
			return merr
		}
		results = []sigsub.Result{res}
		if *calib > 0 {
			cal, cerr := sigsub.Calibrate(len(symbols), model, *calib, 1)
			if cerr != nil {
				return cerr
			}
			calibration = &calibrationJSON{
				MaxPValue:   cal.MaxPValue(res.X2),
				NullMeanMax: cal.MeanMax(),
				Samples:     cal.Samples(),
			}
		}
	case "topt":
		q = sigsub.TopTQuery(*tFlag)
	case "disjoint":
		q = sigsub.DisjointQuery(*tFlag).WithMinLength(*minLen)
	case "threshold":
		q = sigsub.ThresholdQuery(*alpha)
	case "minlen":
		if *gamma >= sc.Len() {
			return fmt.Errorf("sigsub: no substring of length > %d in a string of length %d", *gamma, sc.Len())
		}
		q = sigsub.MSSQuery().WithMinLength(max(*gamma, 0) + 1)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if *mode != "mss" {
		qr, qerr := sc.Run(q, opts...)
		if qerr != nil {
			return qerr
		}
		if qr.Err != nil {
			// A threshold scan past its result cap.
			return qr.Err
		}
		results = qr.Results
	}

	if asJSON {
		// The result/stats schema is shared with the mssd daemon
		// (internal/service), so the CLI and the service encode alike.
		doc := outputJSON{
			Input:       inputJSON{N: len(symbols), K: model.K(), Model: model.String()},
			Mode:        *mode,
			Results:     make([]service.Result, len(results)),
			Calibration: calibration,
		}
		for i, r := range results {
			doc.Results[i] = service.FromResult(r, decode(r, 200))
		}
		if *stats {
			s := service.FromStats(st)
			doc.Stats = &s
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	printResult := func(r sigsub.Result) {
		content := ""
		if r.Length <= 60 {
			if txt := decode(r, 0); txt != "" {
				content = " " + txt
			}
		}
		fmt.Fprintf(out, "%s%s\n", r, content)
	}
	switch *mode {
	case "threshold":
		fmt.Fprintf(out, "%d substrings with X² > %g\n", len(results), *alpha)
		max := len(results)
		if max > 20 {
			max = 20
		}
		for _, r := range results[:max] {
			printResult(r)
		}
		if len(results) > max {
			fmt.Fprintf(out, "... and %d more\n", len(results)-max)
		}
	default:
		for _, r := range results {
			printResult(r)
		}
		if calibration != nil {
			fmt.Fprintf(out, "calibrated max p-value: %.4f (null E[X²max] = %.2f over %d simulations)\n",
				calibration.MaxPValue, calibration.NullMeanMax, calibration.Samples)
		}
	}
	if *stats {
		fmt.Fprintf(out, "evaluated %d substrings, skipped %d\n", st.Evaluated, st.Skipped)
	}
	return nil
}

// writeSnapshotFile writes the corpus snapshot atomically and durably
// (temp file, fsync, rename, directory fsync), so an interrupted build
// never leaves a torn file where a daemon's -data-dir might pick it up.
func writeSnapshotFile(path string, sc *sigsub.Scanner, codec *sigsub.TextCodec) error {
	err := vfs.WriteAtomic(vfs.OS, path, ".mss-snap-*", func(w io.Writer) error {
		return sigsub.WriteSnapshot(w, sc, codec)
	})
	if err != nil {
		return fmt.Errorf("writing snapshot: %w", err)
	}
	return nil
}

// writeSegmentFiles cuts the corpus into `count` suffix segments and writes
// each as a self-contained snapshot (symbols [offset, n) with its own count
// index) plus the .segment.json sidecar locating it in the parent corpus.
// For -snapshot-out dir/name.snap, shard i lands in dir/name.seg<i>-of<count>.snap;
// dropped into a peer daemon's -data-dir under the parent corpus's file
// name, the sidecar is what registers it in that shard's catalog.
func writeSegmentFiles(path string, sc *sigsub.Scanner, codec *sigsub.TextCodec, model *sigsub.Model, count int) error {
	n := sc.Len()
	if count > n {
		return fmt.Errorf("-segments %d exceeds the corpus length %d", count, n)
	}
	base := strings.TrimSuffix(path, ".snap")
	corpus := filepath.Base(base)
	starts := sigsub.SegmentStarts(n, count)
	for i, off := range starts {
		seg, err := sigsub.NewScanner(sc.Symbols()[off:], model)
		if err != nil {
			return fmt.Errorf("building segment %d: %w", i, err)
		}
		segPath := fmt.Sprintf("%s.seg%d-of%d.snap", base, i, count)
		if err := writeSnapshotFile(segPath, seg, codec); err != nil {
			return fmt.Errorf("writing segment %d: %w", i, err)
		}
		meta := snapshot.SegmentMeta{
			Version:  snapshot.SegmentVersion,
			Corpus:   corpus,
			Index:    i,
			Count:    count,
			Offset:   off,
			TotalLen: n,
		}
		data, err := snapshot.MarshalSegmentMeta(meta)
		if err != nil {
			os.Remove(segPath)
			return err
		}
		err = vfs.WriteAtomic(vfs.OS, snapshot.SegmentSidecarPath(segPath), ".mss-segment-*", func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
		if err != nil {
			os.Remove(segPath)
			return fmt.Errorf("writing segment %d sidecar: %w", i, err)
		}
	}
	return nil
}

// inputJSON describes the scanned corpus in -format json output.
type inputJSON struct {
	N     int    `json:"n"`
	K     int    `json:"k"`
	Model string `json:"model"`
}

// calibrationJSON carries the -calibrate summary in -format json output.
type calibrationJSON struct {
	MaxPValue   float64 `json:"max_p_value"`
	NullMeanMax float64 `json:"null_mean_max"`
	Samples     int     `json:"samples"`
}

// outputJSON is the -format json document; Results and Stats reuse the mssd
// daemon's wire schema.
type outputJSON struct {
	Input       inputJSON        `json:"input"`
	Mode        string           `json:"mode"`
	Results     []service.Result `json:"results"`
	Stats       *service.Stats   `json:"stats,omitempty"`
	Calibration *calibrationJSON `json:"calibration,omitempty"`
}
