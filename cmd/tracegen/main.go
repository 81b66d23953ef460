// Command tracegen generates a synthetic Google-like workload trace
// (Section III statistics) and writes it as a JSON-lines or CSV stream,
// or prints summary statistics about an existing trace file. With
// -stream the trace is generated and written chunk by chunk, so a
// 25M-task Google-scale month never lives in memory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"harmony/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "RNG seed")
		hours    = fs.Float64("hours", 24, "trace length in hours")
		rate     = fs.Float64("rate", 1.0, "mean task arrival rate (tasks/second)")
		machines = fs.Int("machines", 1200, "approximate machine population")
		scale    = fs.Int("scale", 0, "Google-scale divisor: machines = 12000/scale, rate = 10.14/scale (overrides -machines and -rate)")
		outPath  = fs.String("o", "", "output file (default stdout)")
		format   = fs.String("format", "jsonl", "output format: jsonl | csv")
		stream   = fs.Bool("stream", false, "generate and write chunk by chunk (constant memory)")
		chunk    = fs.Int("chunk", 4096, "streaming chunk size in tasks")
		inspect  = fs.String("inspect", "", "print statistics of an existing trace file instead of generating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *inspect != "" {
		return inspectTrace(*inspect, out)
	}

	if *scale < 0 {
		return fmt.Errorf("-scale must be 0 (off) or positive, got %d", *scale)
	}
	if *scale > 0 {
		// The Google trace: 12 000 machines, 25.4M tasks over 29 days
		// (≈10.14 tasks/s). -scale N keeps the shape at 1/N the size.
		*machines = 12000 / *scale
		if *machines < 1 {
			*machines = 1
		}
		*rate = 10.14 / float64(*scale)
	} else if *machines < 1 {
		return fmt.Errorf("-machines must be at least 1, got %d", *machines)
	}

	cfg := trace.DefaultConfig(*seed)
	cfg.Horizon = *hours * trace.Hour
	cfg.RatePerS = *rate
	cfg.Machines = trace.GoogleLikeMachines(*machines)

	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	var (
		nTasks      int64
		nMachines   int
		horizonHrs  float64
		writeChunks = func(src trace.TaskSource) (int64, error) {
			switch *format {
			case "jsonl":
				return trace.WriteStream(w, src)
			case "csv":
				return trace.WriteCSVStream(w, src)
			default:
				return 0, fmt.Errorf("unknown format %q", *format)
			}
		}
	)
	if *stream {
		src, err := trace.NewGenSource(cfg, *chunk)
		if err != nil {
			return err
		}
		n, err := writeChunks(src)
		if err != nil {
			return err
		}
		m := src.Meta()
		for _, mt := range m.Machines {
			nMachines += mt.Count
		}
		nTasks, horizonHrs = n, m.Horizon/trace.Hour
	} else {
		tr, err := trace.Generate(cfg)
		if err != nil {
			return err
		}
		n, err := writeChunks(trace.NewSliceSource(tr))
		if err != nil {
			return err
		}
		nTasks, nMachines, horizonHrs = n, tr.TotalMachines(), tr.Horizon/trace.Hour
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d tasks, %d machines, %.1f hours\n",
		nTasks, nMachines, horizonHrs)
	return nil
}

func inspectTrace(path string, out io.Writer) error {
	f, err := os.Open(path)
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
	fmt.Fprintf(out, "tasks:    %d\n", len(tr.Tasks))
	fmt.Fprintf(out, "machines: %d (%d types)\n", tr.TotalMachines(), len(tr.Machines))
	fmt.Fprintf(out, "horizon:  %.1f hours\n", tr.Horizon/trace.Hour)
	counts := trace.GroupCounts(tr)
	for _, g := range trace.Groups() {
		fmt.Fprintf(out, "  %-10s %8d tasks (%.1f%%)\n",
			g, counts[g], 100*float64(counts[g])/float64(len(tr.Tasks)))
	}
	for _, h := range trace.MachineHeterogeneity(tr) {
		fmt.Fprintf(out, "  type %2d %-6s cpu %.3f mem %.3f count %5d (%.1f%%)\n",
			h.Type.ID, h.Type.Platform, h.Type.CPU, h.Type.Mem, h.Type.Count, 100*h.Fraction)
	}
	return nil
}
