package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harmony/internal/lint"
)

// -update rewrites the golden files from the current output instead of
// diffing against them: go test ./cmd/harmony-lint -update
var update = flag.Bool("update", false, "rewrite golden files from current output")

// checkGolden diffs got against the named golden file, rewriting the
// file instead when -update is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("output drifted from testdata/%s (run with -update to regenerate):\n--- golden\n%s--- got\n%s",
			name, golden, got)
	}
}

func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run -list = %d, stderr %q", code, errOut.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "deferclose detertaint divzero errflow floateq nansource sortedemit unusedallow"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list names = %q, want the 8 analyzers %q", got, want)
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("run -nosuch = %d, want 2", code)
	}
	if errOut.Len() == 0 {
		t.Error("expected usage output on stderr")
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-only", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("run -only nosuch = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr %q missing unknown-analyzer error", errOut.String())
	}
}

// -only selects an analyzer subset; the retired -analyzers spelling is an
// unknown flag.
func TestRunOnlyFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-only", "floateq,errflow", "-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run -only floateq,errflow -list = %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "floateq") || !strings.Contains(out.String(), "errflow") {
		t.Errorf("-only subset missing from -list output:\n%s", out.String())
	}
	if strings.Contains(out.String(), "detertaint") {
		t.Errorf("-only subset should exclude detertaint:\n%s", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-only", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("run -only nosuch = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr %q missing unknown-analyzer error", errOut.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-analyzers", "floateq"}, &out, &errOut); code != 2 {
		t.Fatalf("run -analyzers = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "flag provided but not defined") {
		t.Errorf("stderr %q missing unknown-flag error", errOut.String())
	}
}

// TestRunBadPkgPattern: a -pkg pattern that cannot be parsed, or that
// matches none of the loaded packages, is a usage error, not a clean run.
func TestRunBadPkgPattern(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
		load bool // shells out to go list
	}{
		{[]string{"-pkg", "[", "./..."}, "bad -pkg pattern", false},
		{[]string{"-pkg", "nosuchpkg", "./internal/queueing"}, `"nosuchpkg" matches none of the 1 loaded packages`, true},
	} {
		t.Run(tc.args[1], func(t *testing.T) {
			if tc.load && testing.Short() {
				t.Skip("shells out to go list")
			}
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut); code != 2 {
				t.Fatalf("run %q = %d, want 2", tc.args, code)
			}
			if !strings.Contains(errOut.String(), tc.want) {
				t.Errorf("stderr %q missing %q", errOut.String(), tc.want)
			}
		})
	}
}

func TestPkgPatternMatches(t *testing.T) {
	cases := []struct {
		pattern, pkg string
		want         bool
	}{
		{"harmony/internal/*", "harmony/internal/daemon", true},
		{"harmony/internal/*", "harmony/cmd/harmonyd", false},
		{"daemon", "harmony/internal/daemon", true},
		{"daemon", "harmony/internal/tenant", false},
		{"harmony/*/daemon", "harmony/internal/daemon", true},
	}
	for _, c := range cases {
		if got := pkgPatternMatches(c.pattern, c.pkg); got != c.want {
			t.Errorf("pkgPatternMatches(%q, %q) = %v, want %v", c.pattern, c.pkg, got, c.want)
		}
	}
}

// TestRunCleanPackage drives the real loader over a small deterministic
// package that must be finding-free.
func TestRunCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"./internal/queueing"}, &out, &errOut); code != 0 {
		t.Fatalf("run ./internal/queueing = %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("unexpected findings:\n%s", out.String())
	}
}

// TestRunListGolden pins the -list output to the documented analyzer
// set; CI diffs the binary's output against the same golden file, so
// adding an analyzer without documenting it fails both.
func TestRunListGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run -list = %d, stderr %q", code, errOut.String())
	}
	checkGolden(t, "analyzers.txt", out.Bytes())
}

func TestRunListJSONConflict(t *testing.T) {
	for _, args := range [][]string{
		{"-list", "-json"},
		{"-list", "-sarif"},
		{"-json", "-sarif"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("run %v = %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "cannot be combined") {
			t.Errorf("run %v: stderr %q missing conflict error", args, errOut.String())
		}
	}
}

// TestWriteFindingsJSON pins the -json shape against a golden file:
// sorted order preserved, paths relativized only under the base, the
// witness path present only when non-empty.
func TestWriteFindingsJSON(t *testing.T) {
	base := "/work/repo"
	diags := []lint.Diagnostic{
		{
			Pos:      token.Position{Filename: "/work/repo/internal/sched/harmony.go", Line: 42, Column: 7},
			Analyzer: "detertaint",
			Message:  "call of x transitively reads time.Now (wall clock)",
			Path:     []string{"sched.(*Harmony).Period", "impure.Stamp", "time.Now (wall clock)"},
		},
		{
			Pos:      token.Position{Filename: "/elsewhere/outside.go", Line: 7, Column: 1},
			Analyzer: "floateq",
			Message:  "float == comparison",
		},
		{
			Pos:      token.Position{Filename: "/work/repo/internal/energy/energy.go", Line: 133, Column: 14},
			Analyzer: "divzero",
			Message:  "possible division by zero: n is assigned len(xs) with no nonempty guard; guard the division",
			Path:     []string{"xs (parameter)", "n := float64(len(xs)) (energy.go:132)"},
		},
	}
	var out bytes.Buffer
	if err := writeFindingsJSON(&out, base, diags); err != nil {
		t.Fatalf("writeFindingsJSON: %v", err)
	}
	checkGolden(t, "findings.json", out.Bytes())
}

// TestWriteFindingsSARIF pins the -sarif shape against a golden file:
// SARIF 2.1.0 envelope, one rule per analyzer that ran, witness paths
// folded into the message text.
func TestWriteFindingsSARIF(t *testing.T) {
	base := "/work/repo"
	azs, err := lint.ByName([]string{"detertaint", "divzero", "floateq"})
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	diags := []lint.Diagnostic{
		{
			Pos:      token.Position{Filename: "/work/repo/internal/sched/harmony.go", Line: 42, Column: 7},
			Analyzer: "detertaint",
			Message:  "call of x transitively reads time.Now (wall clock)",
			Path:     []string{"sched.(*Harmony).Period", "impure.Stamp", "time.Now (wall clock)"},
		},
		{
			Pos:      token.Position{Filename: "/elsewhere/outside.go", Line: 7, Column: 1},
			Analyzer: "floateq",
			Message:  "float == comparison",
		},
		{
			Pos:      token.Position{Filename: "/work/repo/internal/energy/energy.go", Line: 133, Column: 14},
			Analyzer: "divzero",
			Message:  "possible division by zero: n is assigned len(xs) with no nonempty guard; guard the division",
			Path:     []string{"xs (parameter)", "n := float64(len(xs)) (energy.go:132)"},
		},
	}
	var out bytes.Buffer
	if err := writeFindingsSARIF(&out, base, azs, diags); err != nil {
		t.Fatalf("writeFindingsSARIF: %v", err)
	}
	checkGolden(t, "findings.sarif", out.Bytes())
}

// TestRunTiming drives -timing through the real loader: timings land on
// stderr (stdout stays clean for findings), one line per analyzer, and
// only when asked for.
func TestRunTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-timing", "-only", "floateq,divzero", "./internal/queueing"}, &out, &errOut); code != 0 {
		t.Fatalf("run -timing = %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("timing output leaked onto stdout:\n%s", out.String())
	}
	for _, name := range []string{"timing: divzero", "timing: floateq"} {
		if !strings.Contains(errOut.String(), name) {
			t.Errorf("stderr missing %q:\n%s", name, errOut.String())
		}
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-only", "floateq", "./internal/queueing"}, &out, &errOut); code != 0 {
		t.Fatalf("run without -timing = %d\nstderr: %s", code, errOut.String())
	}
	if strings.Contains(errOut.String(), "timing:") {
		t.Errorf("timings printed without -timing:\n%s", errOut.String())
	}
}

// TestRunSARIFCleanPackage drives -sarif through the real loader: a
// clean package must produce a valid SARIF log with no results, exit 0.
func TestRunSARIFCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-sarif", "./internal/queueing"}, &out, &errOut); code != 0 {
		t.Fatalf("run -sarif ./internal/queueing = %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	var log sarifLog
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF envelope: %+v", log)
	}
	if got := log.Runs[0].Tool.Driver.Name; got != "harmony-lint" {
		t.Errorf("driver name %q", got)
	}
	if len(log.Runs[0].Results) != 0 {
		t.Errorf("unexpected findings: %+v", log.Runs[0].Results)
	}
	if len(log.Runs[0].Tool.Driver.Rules) != len(lint.All()) {
		t.Errorf("rules = %d, want one per analyzer (%d)", len(log.Runs[0].Tool.Driver.Rules), len(lint.All()))
	}
}

// TestRunJSONCleanPackage drives -json through the real loader: a clean
// package must produce an empty JSON array and exit 0.
func TestRunJSONCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", "./internal/queueing"}, &out, &errOut); code != 0 {
		t.Fatalf("run -json ./internal/queueing = %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	var findings []jsonFinding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(findings) != 0 {
		t.Errorf("unexpected findings: %+v", findings)
	}
}
