package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// stamp records where a run's numbers came from.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpuModel"`
	Seed       int64  `json:"seed"`
	Scenario   int64  `json:"scenario"`
}

func newStamp(rc *runContext) stamp {
	s := stamp{
		Commit:     "unknown", // a driver checkout is not a git repository
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Seed:       rc.Seed,
		Scenario:   rc.Scenario,
	}
	if out, err := exec.Command("git", "-C", rc.Root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return s
}

// report is one run of one workload: the file written under out/ and
// the input of -compare.
type report struct {
	Workload  string  `json:"workload"`
	Seconds   int     `json:"seconds"`
	Measured  float64 `json:"measuredSeconds"`
	Traced    bool    `json:"traced"`
	Smoke     bool    `json:"smoke,omitempty"`
	Stamp     stamp   `json:"stamp"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Checks    []check `json:"checks"`
	EndToEnd  []row   `json:"endToEnd"`
	PerLayer  []row   `json:"perLayer,omitempty"`

	spans any
}

func (rc *runContext) newReport(out *outcome) (*report, error) {
	rep := &report{
		Workload: rc.W.Name, Seconds: rc.Seconds, Traced: rc.Trace, Smoke: rc.Smoke,
		Stamp: newStamp(rc), Measured: out.Measured,
		Correct: out.correct(), Attempted: out.Attempted, Failed: out.Failed, Checks: out.Checks,
		spans: out.Spans,
	}
	var err error
	if rep.EndToEnd, err = rows(endToEnd, out.EndToEnd, true); err != nil {
		return nil, err
	}
	if rc.Trace {
		if rep.PerLayer, err = rows(perLayer, out.Layers, false); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// contractLine is the last line of standard output the driver parses:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func (r *report) contractLine() map[string]any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	rows := r.EndToEnd
	if r.Traced {
		rows = r.PerLayer
	}
	metrics := make(map[string]mv, len(rows))
	for _, row := range rows {
		metrics[row.Name] = mv{row.Value, row.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

func (r *report) printTable(w io.Writer) {
	fmt.Fprintf(w, "%s  seed %d  scenario %d  %d s (measured %.1f s)  commit %s  %s  GOMAXPROCS %d  nproc %d  %s\n",
		r.Workload, r.Stamp.Seed, r.Stamp.Scenario, r.Seconds, r.Measured, r.Stamp.Commit,
		r.Stamp.GoVersion, r.Stamp.GOMAXPROCS, r.Stamp.NumCPU, r.Stamp.CPUModel)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tbetter\tn\tq1\tmedian\tq3")
	for _, group := range [][]row{r.EndToEnd, r.PerLayer} {
		for _, m := range group {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\n",
				m.Name, m.Value, m.Unit, m.Better, m.N, m.Q1, m.Median, m.Q3)
		}
	}
	tw.Flush()
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-22s %-6s %s\n", c.Name, status, c.Detail)
	}
}

// write stores the report (and the spans of a traced run) under dir.
func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := r.Workload + ".json"
	if r.Traced {
		name = r.Workload + ".layers.json"
		if err := writeJSON(filepath.Join(dir, r.Workload+".trace.json"), r.spans); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(dir, name), r)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
