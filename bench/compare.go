package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Verdicts of one workload x end-to-end metric comparison.
const (
	agree      = "agree"
	worse      = "worse"
	unresolved = "unresolved"
)

// side is one side of a comparison: one or more result documents of the
// same code and settings (a set of runs), compared by their median.
type side []*document

// readSide reads a comma-separated list of result documents.
func readSide(arg string) (side, error) {
	var s side
	for _, path := range strings.Split(arg, ",") {
		d, err := readDocument(path)
		if err != nil {
			return nil, err
		}
		s = append(s, d)
	}
	return s, nil
}

func compareFiles(a, b string) ([]comparison, error) {
	sa, err := readSide(a)
	if err != nil {
		return nil, err
	}
	sb, err := readSide(b)
	if err != nil {
		return nil, err
	}
	return compare(sa, sb)
}

// values collects one end-to-end metric of one workload across the runs.
func (s side) values(workload, name string) []float64 {
	var v []float64
	for _, d := range s {
		if r := d.workload(workload); r != nil {
			if m, ok := r.EndToEnd[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// comparison is one row of -compare's output.
type comparison struct {
	Workload, Metric, Unit string
	A, B                   float64 // medians
	Ratio                  float64 // B / A
	Bound                  float64
	SpreadA, SpreadB       float64 // (max-min)/median within each side
	Verdict                string
}

// judge compares side b (the change) against side a (the base). A metric is
// worse when b's median is worse than a's by more than the bound; when
// either side's own run-to-run spread is wider than the bound the row is
// unresolved rather than agreed — the runs cannot tell.
func judge(def metricDef, workload string, a, b []float64) comparison {
	c := comparison{Workload: workload, Metric: def.Name, Unit: def.Unit, Bound: def.Bound,
		A: medianFloat(a), B: medianFloat(b), SpreadA: relSpread(a), SpreadB: relSpread(b)}
	if c.A != 0 {
		c.Ratio = c.B / c.A
	}
	worsening := (c.B - c.A) / c.A
	if def.Better == higher {
		worsening = -worsening
	}
	switch {
	case c.SpreadA > def.Bound || c.SpreadB > def.Bound:
		c.Verdict = unresolved
	case worsening > def.Bound:
		c.Verdict = worse
	default:
		c.Verdict = agree
	}
	return c
}

// compare judges every workload x end-to-end metric present on both sides.
func compare(a, b side) ([]comparison, error) {
	da, db := a[0], b[0]
	for _, s := range []side{a, b} {
		for _, d := range s {
			if d.settings() != da.settings() {
				return nil, fmt.Errorf("documents were not measured with the same settings: %+v and %+v", da.settings(), d.settings())
			}
		}
	}
	var rows []comparison
	for _, wl := range workloads {
		if da.workload(wl.name) == nil || db.workload(wl.name) == nil {
			continue
		}
		for _, def := range endToEnd {
			rows = append(rows, judge(def, wl.name, a.values(wl.name, def.Name), b.values(wl.name, def.Name)))
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the documents share no workload")
	}
	return rows, nil
}

// printComparison renders the rows and returns the process exit status:
// 0 all agree, 1 some metric is worse, 2 none worse but some unresolved.
func printComparison(w io.Writer, rows []comparison) int {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta (base)\tb\tb/a\tbound\tspread a\tspread b\tverdict")
	status := 0
	for _, c := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f of %.6g\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
			c.Workload, c.Metric, c.A, c.Unit, c.B, c.Unit, c.Ratio, c.A, 100*c.Bound, 100*c.SpreadA, 100*c.SpreadB, c.Verdict)
		switch c.Verdict {
		case worse:
			status = 1
		case unresolved:
			if status == 0 {
				status = 2
			}
		}
	}
	tw.Flush()
	return status
}
