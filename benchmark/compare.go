package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// -compare a.json b.json judges a change (b) against its parent (a).
// Each file holds one or more run reports of one commit, concatenated
// (cat out/<workload>.json >> a.json after every run). Every pairing of
// workload and end-to-end metric gets the benchmark's own bound applied
// to the medians, and the verdict is "unresolved" instead of
// "unchanged" when the parent's own run-to-run spread exceeds the bound.

type verdict string

const (
	improved   verdict = "improved"
	regressed  verdict = "REGRESSED"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
)

// judge applies one metric's bound. a and b are the values of the
// parent's and the change's runs; higher says which direction is better.
func judge(a, b []float64, higher bool, bound float64) (v verdict, medA, medB, spread float64) {
	sa, sb := summarize(a), summarize(b)
	medA, medB = sa.Median, sb.Median
	if medA != 0 {
		spread = (sa.Q3 - sa.Q1) / medA
	}
	worse := (medB - medA) / medA // share of the parent's median b is worse by
	if higher {
		worse = -worse
	}
	switch {
	case worse > bound:
		return regressed, medA, medB, spread
	case spread > bound && !everyRunBetter(a, b, higher):
		// The runs cannot tell a change within the bound from noise.
		return unresolved, medA, medB, spread
	case worse < -bound:
		return improved, medA, medB, spread
	default:
		return unchanged, medA, medB, spread
	}
}

// everyRunBetter: every run of b reads better than every run of a.
func everyRunBetter(a, b []float64, higher bool) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func loadReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	dec := json.NewDecoder(f)
	for {
		var r report
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no reports", path)
	}
	return out, nil
}

// metricKey is one pairing of workload and end-to-end metric.
type metricKey struct{ workload, metric string }

func collect(reports []report) (map[metricKey][]float64, map[metricKey]row) {
	vals := map[metricKey][]float64{}
	defs := map[metricKey]row{}
	for _, r := range reports {
		for _, m := range r.EndToEnd {
			k := metricKey{r.Workload, m.Name}
			vals[k] = append(vals[k], m.Value)
			defs[k] = m
		}
	}
	return vals, defs
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	ra, err := loadReports(pathA)
	if err != nil {
		return err
	}
	rb, err := loadReports(pathB)
	if err != nil {
		return err
	}
	va, defs := collect(ra)
	vb, _ := collect(rb)
	var keys []metricKey
	for k := range va {
		if len(vb[k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbetter\tbound\ta median (n)\tb median (n)\tchange\ta spread\tverdict")
	regressions := 0
	for _, k := range keys {
		d := defs[k]
		v, medA, medB, spread := judge(va[k], vb[k], d.Better == "higher", d.Bound)
		if v == regressed {
			regressions++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.1f%%\t%.6g (%d)\t%.6g (%d)\t%+.2f%%\t%.2f%%\t%s\n",
			k.workload, k.metric, d.Unit, d.Better, 100*d.Bound, medA, len(va[k]), medB, len(vb[k]),
			100*(medB-medA)/medA, 100*spread, v)
	}
	tw.Flush()
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressions)
	}
	return nil
}
