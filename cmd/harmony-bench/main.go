// Command harmony-bench regenerates the paper's tables and figures: each
// experiment id produces the corresponding data series and headline
// numbers. Run with -list to see the available experiments, -exp all to
// regenerate everything (comma-separated ids select a subset; results
// print in input order). The -golden write|check modes persist each
// experiment's full rendering under -golden-dir and diff against it, so
// CI can catch unintended result drift.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"harmony"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "harmony-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("harmony-bench", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "", "experiment id or comma-separated ids (see -list), or 'all'")
		list      = fs.Bool("list", false, "list experiment ids")
		seed      = fs.Int64("seed", 1, "RNG seed")
		hours     = fs.Float64("hours", 12, "workload length in hours")
		rate      = fs.Float64("rate", 0.8, "task arrival rate (tasks/second)")
		scale     = fs.Int("scale", 40, "cluster scale divisor")
		cluster   = fs.String("cluster", "tableii", "cluster: tableii | googlelike")
		full      = fs.Bool("full-series", false, "print full series (default: summaries only)")
		epsilon   = fs.Float64("epsilon", 0, "container-sizing overflow bound (0 = default 0.25)")
		golden    = fs.String("golden", "", "golden mode: 'write' records per-experiment renderings, 'check' diffs against them")
		goldenDir = fs.String("golden-dir", filepath.Join("testdata", "golden"), "directory for golden files")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memprofile = fs.String("memprofile", "", "write a heap profile at the end of the run to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *golden {
	case "", "write", "check":
	default:
		return fmt.Errorf("invalid -golden %q: must be 'write' or 'check'", *golden)
	}
	// The facade would quietly replace these with its defaults (24 h,
	// 1 task/s, scale 10); NaN and ±Inf fall through to its finite checks.
	if *hours <= 0 {
		return fmt.Errorf("-hours must be positive, got %v", *hours)
	}
	if *rate <= 0 {
		return fmt.Errorf("-rate must be positive, got %v", *rate)
	}
	if *scale < 1 {
		return fmt.Errorf("-scale must be at least 1, got %d", *scale)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := runExperiments(out, *exp, *list, *seed, *hours, *rate, *scale,
		*cluster, *full, *epsilon, *golden, *goldenDir); err != nil {
		return err
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}

// runExperiments regenerates the selected experiments (optionally
// against goldens).
func runExperiments(out io.Writer, exp string, list bool, seed int64, hours, rate float64,
	scale int, cluster string, full bool, epsilon float64,
	golden, goldenDir string) error {
	if list {
		for _, id := range harmony.ExperimentIDs() {
			fmt.Fprintln(out, id)
		}
		return nil
	}
	if exp == "" {
		return fmt.Errorf("missing -exp (use -list to see ids)")
	}

	kind := harmony.ClusterTableII
	switch cluster {
	case "tableii":
	case "googlelike":
		kind = harmony.ClusterGoogleLike
	default:
		return fmt.Errorf("unknown cluster %q", cluster)
	}

	known := make(map[string]bool)
	for _, id := range harmony.ExperimentIDs() {
		known[id] = true
	}
	var ids []string
	if exp == "all" {
		ids = harmony.ExperimentIDs()
	} else {
		for _, id := range strings.Split(exp, ",") {
			id = strings.TrimSpace(id)
			if id != "" {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("missing -exp (use -list to see ids)")
	}
	for _, id := range ids {
		if !known[id] {
			return fmt.Errorf("unknown experiment %q (use -list to see ids)", id)
		}
	}

	env := harmony.NewEnv(
		harmony.WorkloadConfig{
			Seed:           seed,
			Hours:          hours,
			TasksPerSecond: rate,
			Cluster:        kind,
			ClusterScale:   scale,
		},
		harmony.CharacterizeConfig{Seed: seed},
		harmony.SimulationConfig{Epsilon: epsilon},
	)

	// The ids share one Env, so each workload, characterization and
	// per-policy simulation is computed once however many experiments
	// read it. Golden mode always records the full rendering, so the
	// series data is what gets diffed.
	texts := make([]string, len(ids))
	for i, id := range ids {
		result, err := env.Run(id)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if full || golden != "" {
			texts[i] = result.Render()
		} else {
			texts[i] = summarize(result)
		}
	}
	if golden != "" {
		return runGolden(golden, goldenDir, ids, texts, out)
	}
	for i := range ids {
		fmt.Fprint(out, texts[i])
	}
	return nil
}

// runGolden writes or checks per-experiment golden files: one
// <dir>/<id>.txt per experiment holding its full rendering.
func runGolden(mode, dir string, ids, texts []string, out io.Writer) error {
	if mode == "write" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for i, id := range ids {
			path := filepath.Join(dir, id+".txt")
			if err := os.WriteFile(path, []byte(texts[i]), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "golden: wrote %s\n", path)
		}
		return nil
	}
	var stale []string
	for i, id := range ids {
		path := filepath.Join(dir, id+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("golden: %w (record with -golden write)", err)
		}
		if string(want) != texts[i] {
			stale = append(stale, id)
			fmt.Fprintf(out, "golden: %s differs from %s%s\n", id, path, firstDiff(string(want), texts[i]))
			continue
		}
		fmt.Fprintf(out, "golden: %s ok\n", id)
	}
	if len(stale) > 0 {
		return fmt.Errorf("golden mismatch for %s (intentional changes: rerun with -golden write)",
			strings.Join(stale, ", "))
	}
	return nil
}

// firstDiff locates the first line where the two renderings diverge.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf(" (line %d: %q vs %q)", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf(" (length %d vs %d lines)", len(wl), len(gl))
}

func summarize(e *harmony.Experiment) string {
	var b strings.Builder
	full := e.Render()
	inSeries := false
	for _, line := range strings.Split(full, "\n") {
		if strings.HasPrefix(line, "# series:") {
			fmt.Fprintf(&b, "  %s\n", line)
			inSeries = true
			continue
		}
		if !inSeries && line != "" {
			fmt.Fprintln(&b, line)
		}
	}
	return b.String()
}
