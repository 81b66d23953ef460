// Command harmony-classify runs HARMONY's two-step task characterization
// (Section V) over a trace file produced by tracegen, prints the resulting
// task classes, and optionally saves the characterization as JSON for
// later online use.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"harmony/internal/classify"
	"harmony/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "harmony-classify:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: args are parsed with ContinueOnError
// and all report output goes to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("harmony-classify", flag.ContinueOnError)
	var (
		in      = fs.String("trace", "", "input trace file (JSON lines, from tracegen)")
		outPath = fs.String("o", "", "write the characterization JSON to this file")
		maxK    = fs.Int("max-classes", 0, "maximum classes per priority group (0 = default 12)")
		gain    = fs.Float64("elbow-gain", 0, "elbow threshold for choosing k (0 = default 0.05)")
		seed    = fs.Int64("seed", 1, "clustering seed")
		verbose = fs.Bool("v", false, "also print per-class duration sub-classes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("missing -trace (generate one with tracegen)")
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("trace invalid: %w", err)
	}

	ch, err := classify.Characterize(tr, classify.Config{
		MaxK:    *maxK,
		MinGain: *gain,
		Seed:    *seed,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%d tasks -> %d classes, %d task types\n",
		len(tr.Tasks), len(ch.Classes), len(ch.TaskTypes()))
	for i := range ch.Classes {
		c := &ch.Classes[i]
		fmt.Fprintf(out, "class %3d [%-10s] cpu %.4f±%.4f mem %.4f±%.4f tasks %6d\n",
			c.ID, c.Group, c.CPU, c.CPUStd, c.Mem, c.MemStd, c.Count)
		if *verbose {
			for si, sub := range c.Sub {
				kind := "short"
				if si > 0 {
					kind = "long"
				}
				fmt.Fprintf(out, "    %-5s mean %9.1fs cv2 %6.2f max %10.1fs tasks %6d\n",
					kind, sub.MeanDuration, sub.SqCV, sub.MaxDuration, sub.Count)
			}
		}
	}

	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer of.Close()
		if err := classify.Save(of, ch); err != nil {
			return err
		}
		fmt.Fprintf(out, "characterization saved to %s\n", *outPath)
	}
	return nil
}
