package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one query
// share its Query id; Parent is the index of the span that caused this one
// in the same slice, -1 for a query's root. Start and End are offsets from
// the beginning of the replay.
type span struct {
	Name   string        `json:"name"`
	Query  int           `json:"query"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) duration() time.Duration { return s.End - s.Start }

// selfTimes returns, per span, its duration minus the part of its interval
// its child spans cover (children clipped to the parent, overlapping
// children counted once). Summed over a tree whose children lie inside
// their parents, self times add up to the root's duration.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.duration() - covered
	}
	return self
}

// layerRow is one line of the "where the time goes" table.
type layerRow struct {
	Layer string `json:"layer"`
	Span  string `json:"span"`
	// SelfMedianUs is the median over queries of the layer's self time in
	// that query's span tree. SharePct is the time-weighted view: the
	// layer's spans summed over all queries, minus its children's, over the
	// summed root spans — the shares of one table add up to 100.
	SelfMedianUs float64 `json:"self_median_us"`
	SharePct     float64 `json:"share_pct"`
}

// layerTable aggregates the spans of a replay into one row per span name,
// in the order given.
func layerTable(spans []span, order []replayLayer) []layerRow {
	self := selfTimes(spans)
	perQuery := map[string][]time.Duration{}
	total := map[string]time.Duration{}
	var rootTotal time.Duration
	for i, s := range spans {
		perQuery[s.Name] = append(perQuery[s.Name], self[i])
		total[s.Name] += s.duration()
		if s.Parent >= 0 {
			total[spans[s.Parent].Name] -= s.duration()
		} else {
			rootTotal += s.duration()
		}
	}
	rows := make([]layerRow, 0, len(order))
	for _, l := range order {
		row := layerRow{Layer: l.layer, Span: l.span, SelfMedianUs: us(medianDuration(perQuery[l.span]))}
		if rootTotal > 0 {
			row.SharePct = 100 * float64(total[l.span]) / float64(rootTotal)
		}
		rows = append(rows, row)
	}
	return rows
}

func printLayerTable(w io.Writer, workload string, rows []layerRow) {
	fmt.Fprintf(w, "\nwhere the time goes: %s (layer replay, 1 client)\n", workload)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  layer\tspan\tself us (median)\tshare of query %")
	for _, r := range rows {
		fmt.Fprintf(tw, "  %s\t%s\t%.1f\t%.1f\n", r.Layer, r.Span, r.SelfMedianUs, r.SharePct)
	}
	tw.Flush()
}

// traceFile is what a traced run leaves in bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string     `json:"workload"`
	Queries  int        `json:"queries"`
	Layers   []layerRow `json:"layers"`
	Spans    []span     `json:"spans"`
}
