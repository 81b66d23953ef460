// Command harmony-lint runs the determinism and concurrency analyzers of
// internal/lint over the module — the multichecker CI runs alongside go
// vet. Exit status: 0 clean, 1 findings, 2 usage or load failure.
//
//	harmony-lint [-only a,b,...] [-pkg pattern] [-json|-sarif] [-timing] [packages...]
//
// With no packages it checks ./... from the enclosing module root.
// -only restricts the run to a comma-separated analyzer subset. -pkg restricts *reporting* to packages whose import
// path matches a glob (or contains the pattern as a substring when it
// has no glob metacharacters); the analysis itself still sees the whole
// module, so interprocedural facts stay accurate. -json emits the
// findings as a JSON array (file, line, column, analyzer, message, and
// the call-path witness for interprocedural findings), sorted the same
// way as the text output, with file paths relative to the working
// directory. -sarif emits the same findings as a SARIF 2.1.0 log for
// code-scanning upload. -timing prints each analyzer's wall-clock cost
// to stderr (stdout stays machine-parseable); it is advisory, the whole
// suite runs in well under a second. Findings can be suppressed in place
// with
// `//harmony:allow <analyzer> <reason>` on the flagged line or the line
// above it; see internal/lint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"strings"
	"time"

	"harmony/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("harmony-lint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		only     = fs.String("only", "", "comma-separated analyzer subset (default: all)")
		pkgPat   = fs.String("pkg", "", "report findings only in packages whose import path matches this glob (substring match when the pattern has no metacharacters)")
		list     = fs.Bool("list", false, "list analyzers and exit")
		jsonOut  = fs.Bool("json", false, "emit findings as a JSON array")
		sarifOut = fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
		timing   = fs.Bool("timing", false, "print per-analyzer wall-clock timings to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list && (*jsonOut || *sarifOut) {
		fmt.Fprintln(errOut, "harmony-lint: -list and -json/-sarif cannot be combined")
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(errOut, "harmony-lint: -json and -sarif cannot be combined")
		return 2
	}
	if *pkgPat != "" {
		if _, err := path.Match(*pkgPat, "probe"); err != nil {
			fmt.Fprintf(errOut, "harmony-lint: bad -pkg pattern %q: %v\n", *pkgPat, err)
			return 2
		}
	}

	analyzers := lint.All()
	if *only != "" {
		var err error
		analyzers, err = lint.ByName(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 2
		}
	}
	if *list {
		for _, az := range analyzers {
			fmt.Fprintf(out, "%-14s %s\n", az.Name, az.Doc)
		}
		return 0
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 2
	}
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 2
	}
	diags, timings := lint.CheckTimed(pkgs, analyzers)
	if *pkgPat != "" {
		diags = filterDiagsByPkg(diags, pkgs, *pkgPat)
	}
	if *jsonOut || *sarifOut {
		cwd, err := os.Getwd()
		if err != nil {
			cwd = "" // keep absolute paths rather than fail the run
		}
		write := writeFindingsJSON
		if *sarifOut {
			write = func(out io.Writer, base string, diags []lint.Diagnostic) error {
				return writeFindingsSARIF(out, base, analyzers, diags)
			}
		}
		if err := write(out, cwd, diags); err != nil {
			fmt.Fprintln(errOut, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	// Timings go to stderr so -json/-sarif stdout stays machine-parseable.
	if *timing {
		for _, tm := range timings {
			fmt.Fprintf(errOut, "timing: %-14s %12s\n", tm.Name, tm.Elapsed.Round(time.Microsecond))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(errOut, "harmony-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonFinding is one finding in -json output. Path is the call-chain
// witness of an interprocedural finding, outermost caller first.
type jsonFinding struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Column   int      `json:"column"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Path     []string `json:"path,omitempty"`
}

// writeFindingsJSON renders the diagnostics as a JSON array, preserving
// their sorted order, with file paths relative to base when they lie
// under it.
func writeFindingsJSON(out io.Writer, base string, diags []lint.Diagnostic) error {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			File:     relativeTo(base, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Path:     d.Path,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// relativeTo renders file relative to base when it lies under it.
func relativeTo(base, file string) string {
	if base != "" {
		if rel, err := filepath.Rel(base, file); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return file
}

// pkgPatternMatches reports whether an import path matches the -pkg
// pattern: path.Match semantics when the pattern carries glob
// metacharacters, substring containment otherwise.
func pkgPatternMatches(pattern, pkgPath string) bool {
	if strings.ContainsAny(pattern, "*?[") {
		ok, err := path.Match(pattern, pkgPath)
		return err == nil && ok
	}
	return strings.Contains(pkgPath, pattern)
}

// filterDiagsByPkg keeps the findings whose file belongs to a package
// matching the -pkg pattern. The mapping goes through package
// directories, so analysis stays whole-module while reporting narrows.
func filterDiagsByPkg(diags []lint.Diagnostic, pkgs []*lint.Package, pattern string) []lint.Diagnostic {
	dirs := make(map[string]bool)
	for _, pkg := range pkgs {
		if pkgPatternMatches(pattern, pkg.Path) {
			dirs[pkg.Dir] = true
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if dirs[filepath.Dir(d.Pos.Filename)] {
			out = append(out, d)
		}
	}
	return out
}

// --- SARIF 2.1.0 output -------------------------------------------------

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// writeFindingsSARIF renders the diagnostics as a SARIF 2.1.0 log. The
// rules array carries every analyzer that ran (so zero-finding runs
// still document the rule set), and interprocedural witness paths fold
// into the message text.
func writeFindingsSARIF(out io.Writer, base string, azs []*lint.Analyzer, diags []lint.Diagnostic) error {
	ruleIndex := make(map[string]int, len(azs))
	rules := make([]sarifRule, 0, len(azs))
	for _, az := range azs {
		ruleIndex[az.Name] = len(rules)
		rules = append(rules, sarifRule{ID: az.Name, ShortDescription: sarifMessage{Text: az.Doc}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		file := relativeTo(base, d.Pos.Filename)
		text := d.Message
		if len(d.Path) > 0 {
			text += "\nwitness: " + strings.Join(d.Path, " → ")
		}
		idx, ok := ruleIndex[d.Analyzer]
		if !ok {
			idx = len(rules)
			ruleIndex[d.Analyzer] = idx
			rules = append(rules, sarifRule{ID: d.Analyzer, ShortDescription: sarifMessage{Text: d.Analyzer}})
		}
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMessage{Text: text},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysicalLocation{
				ArtifactLocation: sarifArtifactLocation{URI: filepath.ToSlash(file)},
				Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "harmony-lint", Rules: rules}}, Results: results}},
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
