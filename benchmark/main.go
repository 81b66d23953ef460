// Command benchmark is the repo benchmark of BENCHMARK.json: four named
// workloads over the two end-to-end paths (offline harmony.SimulateStream,
// online the harmonyd binary of the commit under test driven over
// loopback HTTP), every metric printed by name with unit and direction,
// outputs checked, and — in a separate traced run — time attributed to
// layers from outside. See README.md.
//
//	go run . -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	go run . -smoke
//	go run . -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// runContext is everything one run of one workload needs.
type runContext struct {
	W        workload
	Size     size
	Seed     int64 // contract seed: request framing and reader phase
	Scenario int64 // trace generator and characterization seed
	Seconds  int
	Trace    bool
	Smoke    bool
	Root     string // repo root (the module under test)
	BuildDir string // <root>/.bench_build: binaries and per-run scratch
	OutDir   string // reports and span files
}

func (rc *runContext) setupReps() int {
	if rc.Smoke {
		return 1
	}
	return setupReps
}

// check is one correctness assertion of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// outcome is what a workload's run function hands back.
type outcome struct {
	EndToEnd  values
	Layers    values
	Attempted int
	Failed    int
	Checks    []check
	Measured  float64 // seconds the measured phase took (the contract's -seconds is its target)
	Spans     any     // written to <workload>.trace.json when tracing
}

func newOutcome() *outcome { return &outcome{EndToEnd: values{}, Layers: values{}} }

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.Checks = append(o.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run (see -list)")
		seed     = fs.Int64("seed", 1, "run seed: request framing and reader phase (the scenario is -scenario)")
		scenario = fs.Int64("scenario", defaultScenario, "scenario seed: trace generator and characterization (1 default, 4 held out; README \"Seeds\")")
		seconds  = fs.Int("seconds", defaultSeconds, "length of the measured phase")
		trace    = fs.Int("trace", 0, "1 = also run traced and report the per-layer metrics")
		smoke    = fs.Bool("smoke", false, "run every workload once at toy size and only check correctness")
		compare  = fs.Bool("compare", false, "compare two report files: -compare a.json b.json")
		list     = fs.Bool("list", false, "list workloads and metrics")
		outDir   = fs.String("out", "out", "directory for reports and span files")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *list:
		printList()
		return nil
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two report files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	rc := runContext{
		Seed: *seed, Scenario: *scenario, Seconds: *seconds, Trace: *trace == 1, Smoke: *smoke,
		Root: root, BuildDir: filepath.Join(root, ".bench_build"), OutDir: *outDir,
	}
	if *smoke {
		return runSmoke(rc)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	rc.W, rc.Size = w, w.size(*seconds, false)
	rep, err := rc.execute()
	if err != nil {
		return err
	}
	rep.printTable(os.Stdout)
	if err := rep.write(rc.OutDir); err != nil {
		return err
	}
	line, err := json.Marshal(rep.contractLine())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

const (
	defaultScenario = 1
	defaultSeconds  = 15
)

// execute runs the workload and resolves its measurements into a report.
func (rc *runContext) execute() (*report, error) {
	out, err := rc.W.run(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rc.W.Name, err)
	}
	return rc.newReport(out)
}

// runSmoke is the rot guard: every workload once at toy size, subprocess
// harmonyd included, correctness checks only.
func runSmoke(rc runContext) error {
	for _, w := range workloads {
		rc.W, rc.Size = w, w.size(rc.Seconds, true)
		rep, err := rc.execute()
		if err != nil {
			return err
		}
		for _, c := range rep.Checks {
			if !c.OK {
				return fmt.Errorf("%s: check %s failed: %s", w.Name, c.Name, c.Detail)
			}
		}
		fmt.Printf("smoke %-24s ok (%d checks, %d attempted, %d failed)\n", w.Name, len(rep.Checks), rep.Attempted, rep.Failed)
	}
	return nil
}

// repoRoot is the module under test: the parent of this module's
// directory, which `go run .` makes the working directory.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	root := filepath.Dir(wd)
	if _, err := os.Stat(filepath.Join(root, "cmd", "harmonyd", "main.go")); err != nil {
		return "", fmt.Errorf("no harmony checkout above %s (run from benchmark/): %w", wd, err)
	}
	return root, nil
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-24s %s\n", w.Name, w.Why)
	}
	for _, g := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end metrics (-trace 0)", endToEnd}, {"per-layer metrics (-trace 1)", perLayer}} {
		fmt.Printf("%s:\n", g.title)
		for _, d := range g.defs {
			fmt.Printf("  %-34s %-6s %-6s %s\n", d.Name, d.Unit, d.Better, d.Doc)
		}
	}
}
