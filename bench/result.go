package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// schemaVersion is bumped whenever a metric is renamed, redefined or
// removed; -compare refuses documents of different versions.
const schemaVersion = 1

const (
	higher = "higher"
	lower  = "lower"
)

// metricDef names one metric of the benchmark. End-to-end metrics carry
// the regression bound BENCHMARK.json repeats; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string // per-layer metrics: the module measured
}

// endToEnd is the gated vocabulary: what a user of the system sees. Every
// workload reports every one of them (see README for the per-workload
// meaning of add_docs_per_s).
var endToEnd = []metricDef{
	{Name: "qps", Unit: "queries/s", Better: higher, Bound: 0.20},
	{Name: "p50_ms", Unit: "ms", Better: lower, Bound: 0.20},
	{Name: "p95_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "add_docs_per_s", Unit: "docs/s", Better: higher, Bound: 0.25},
	{Name: "disk_bytes_per_posting", Unit: "bytes", Better: lower, Bound: 0.02},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// ungated metrics are printed beside the end-to-end ones but never fail a
// comparison: their run-to-run spread exceeds a tenth (p99), or they
// describe the harness rather than the system.
var ungated = []metricDef{
	{Name: "tail_p99_ms", Unit: "ms", Better: lower},
	{Name: "failed_share", Unit: "ratio", Better: lower},
	{Name: "corpus_gen_s", Unit: "s", Better: lower},
}

// perLayer is measured from outside, around exported calls of each module.
// A metric whose layer is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{Layer: "repro", Name: "engine_overhead_us", Unit: "us", Better: lower},
	{Layer: "repro", Name: "pool_wait_p99_us", Unit: "us", Better: lower},
	{Layer: "internal/ir", Name: "ir_search_us", Unit: "us", Better: lower},
	{Layer: "internal/ir", Name: "plan_us", Unit: "us", Better: lower},
	{Layer: "internal/ir", Name: "candidates_per_query", Unit: "count", Better: lower},
	{Layer: "internal/ir", Name: "second_pass_share", Unit: "ratio", Better: lower},
	{Layer: "internal/engine", Name: "scan_mtuples_s", Unit: "Mtuples/s", Better: higher},
	{Layer: "internal/engine", Name: "mergejoin_mtuples_s", Unit: "Mtuples/s", Better: higher},
	{Layer: "internal/primitives", Name: "bm25_ns_per_value", Unit: "ns", Better: lower},
	{Layer: "internal/compress", Name: "decode_docid_mvalues_s", Unit: "Mvalues/s", Better: higher},
	{Layer: "internal/compress", Name: "decode_tf_mvalues_s", Unit: "Mvalues/s", Better: higher},
	{Layer: "internal/compress", Name: "exception_rate_docid", Unit: "ratio", Better: lower},
	{Layer: "internal/compress", Name: "exception_rate_tf", Unit: "ratio", Better: lower},
	{Layer: "internal/compress", Name: "bits_per_posting_docid", Unit: "bits", Better: lower},
	{Layer: "internal/compress", Name: "bits_per_posting_tf", Unit: "bits", Better: lower},
	{Layer: "internal/colbm", Name: "cursor_mvalues_s", Unit: "Mvalues/s", Better: higher},
	{Layer: "internal/colbm", Name: "parse_chunk_us", Unit: "us", Better: lower},
	{Layer: "internal/storage", Name: "chunk_hit_rate", Unit: "%", Better: higher},
	{Layer: "internal/storage", Name: "evictions_per_query", Unit: "count", Better: lower},
	{Layer: "internal/storage", Name: "shared_waits_per_query", Unit: "count", Better: lower},
	{Layer: "internal/storage", Name: "getchunk_hit_ns", Unit: "ns", Better: lower},
	{Layer: "internal/storage", Name: "getchunk_miss_us", Unit: "us", Better: lower},
	{Layer: "internal/storage", Name: "filestore_read_mb_s", Unit: "MB/s", Better: higher},
	{Layer: "internal/storage", Name: "file_reads_per_query", Unit: "count", Better: lower},
	{Layer: "internal/storage", Name: "file_kb_per_query", Unit: "KB", Better: lower},
	{Layer: "internal/storage", Name: "add_batch_p50_ms", Unit: "ms", Better: lower},
	{Layer: "internal/storage", Name: "add_batch_p95_ms", Unit: "ms", Better: lower},
	{Layer: "internal/storage", Name: "merges", Unit: "count", Better: higher},
	{Layer: "internal/storage", Name: "segments_final", Unit: "count", Better: lower},
	{Layer: "internal/storage", Name: "virtual_final", Unit: "count", Better: lower},
	{Layer: "internal/dist", Name: "broker_overhead_us", Unit: "us", Better: lower},
	{Layer: "internal/dist", Name: "server_max_us", Unit: "us", Better: lower},
	{Layer: "internal/dist", Name: "hedged", Unit: "count", Better: lower},
	{Layer: "internal/dist", Name: "retried", Unit: "count", Better: lower},
	{Layer: "internal/trace", Name: "trace_overhead_pct", Unit: "%", Better: lower},
	{Layer: "go runtime", Name: "allocs_per_op", Unit: "count", Better: lower},
	{Layer: "go runtime", Name: "kb_per_op", Unit: "KB", Better: lower},
	{Layer: "go runtime", Name: "gc_pause_ms", Unit: "ms", Better: lower},
	{Layer: "go runtime", Name: "gc_cycles", Unit: "count", Better: lower},
	// The layer replay's "where the time goes" rows: median self time of
	// each layer in one replayed query, and the checks made on them.
	{Layer: "replay", Name: "replay_search_us", Unit: "us", Better: lower},
	{Layer: "replay", Name: "self_repro_us", Unit: "us", Better: lower},
	{Layer: "replay", Name: "self_ir_us", Unit: "us", Better: lower},
	{Layer: "replay", Name: "self_engine_us", Unit: "us", Better: lower},
	{Layer: "replay", Name: "self_colbm_us", Unit: "us", Better: lower},
	{Layer: "replay", Name: "self_storage_us", Unit: "us", Better: lower},
	{Layer: "replay", Name: "self_compress_us", Unit: "us", Better: lower},
	{Layer: "replay", Name: "storage_self_pct", Unit: "%", Better: lower},
	{Layer: "replay", Name: "selftime_sum_ratio", Unit: "ratio", Better: lower},
	{Layer: "replay", Name: "harness_trace_overhead_pct", Unit: "%", Better: lower},
}

// metric is one measured value. Samples is the sample count behind a
// percentile or median (0 where the value is a plain count or ratio).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// workloadResult is one workload's outcome. PerLayer is filled from
// counters on every run; its replay and kernel rows only under -trace.
type workloadResult struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Ungated   map[string]metric `json:"ungated"`
	PerLayer  map[string]metric `json:"per_layer"`
}

// document is the self-describing result of one benchmark command.
type document struct {
	SchemaVersion    int              `json:"schema_version"`
	Commit           string           `json:"commit"`
	GoVersion        string           `json:"go_version"`
	NProc            int              `json:"nproc"`
	GOMAXPROCS       int              `json:"gomaxprocs"`
	Clients          int              `json:"clients"`
	Docs             int              `json:"docs"`
	Seed             int64            `json:"seed"`
	TimedSeconds     float64          `json:"timed_phase_seconds"`
	WarmupQueries    int              `json:"warmup_queries"`
	SetupReps        int              `json:"setup_repetitions"`
	ColdPoolFraction float64          `json:"cold_pool_fraction"`
	TraceSample      int              `json:"trace_sample_queries"`
	Traced           bool             `json:"traced"`
	Workloads        []workloadResult `json:"workloads"`
}

// settings are the fields two documents must share to be compared: the
// inputs (docs, seed), the load (clients, phase length) and how set-up was
// measured (a traced run sets up once, without priming, so its setup_s is
// not an untraced run's).
type settings struct {
	Docs         int
	Seed         int64
	TimedSeconds float64
	Clients      int
	SetupReps    int
	Traced       bool
}

func (d *document) settings() settings {
	return settings{d.Docs, d.Seed, d.TimedSeconds, d.Clients, d.SetupReps, d.Traced}
}

func (d *document) workload(name string) *workloadResult {
	for i := range d.Workloads {
		if d.Workloads[i].Name == name {
			return &d.Workloads[i]
		}
	}
	return nil
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.SchemaVersion != schemaVersion {
		return nil, fmt.Errorf("%s: schema version %d, this program reads %d", path, d.SchemaVersion, schemaVersion)
	}
	return &d, nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// contractLine is the one-object summary the PR driver reads from the last
// line of standard output: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func contractLine(w io.Writer, r *workloadResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	defs, src := endToEnd, r.EndToEnd
	if traced {
		defs, src = perLayer, r.PerLayer
	}
	for _, def := range defs {
		out.Metrics[def.Name] = value{Value: src[def.Name].Value, Unit: def.Unit}
	}
	return json.NewEncoder(w).Encode(out)
}

// printTable renders the human view: every metric by name with its unit,
// one block per workload.
func printTable(w io.Writer, d *document) {
	fmt.Fprintf(w, "x100 bench  commit=%s %s nproc=%d GOMAXPROCS=%d clients=%d docs=%d seed=%d timed=%gs\n",
		d.Commit, d.GoVersion, d.NProc, d.GOMAXPROCS, d.Clients, d.Docs, d.Seed, d.TimedSeconds)
	for _, r := range d.Workloads {
		fmt.Fprintf(w, "\n== %s  correct=%t attempted=%d failed=%d\n", r.Name, r.Correct, r.Attempted, r.Failed)
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		row := func(kind string, def metricDef, m metric) {
			n := ""
			if m.Samples > 0 {
				n = fmt.Sprintf("n=%d", m.Samples)
			}
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%s\t%s\n", kind, def.Name, m.Value, def.Unit, n)
		}
		for _, def := range endToEnd {
			row("end-to-end", def, r.EndToEnd[def.Name])
		}
		for _, def := range ungated {
			row("ungated", def, r.Ungated[def.Name])
		}
		for _, def := range perLayer {
			if m, ok := r.PerLayer[def.Name]; ok {
				row(def.Layer, def, m)
			}
		}
		tw.Flush()
	}
}
