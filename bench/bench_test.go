package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestCheckedPercentile pins the ">= 10 samples beyond" rule onto
// loadgen.Percentile's nearest-rank definition.
func TestCheckedPercentile(t *testing.T) {
	for _, tc := range []struct{ n, p, beyond int }{
		{100, 50, 50}, {100, 95, 5}, {100, 99, 1}, {100, 100, 0},
		{200, 95, 10}, {199, 95, 9}, {1, 50, 0}, {0, 95, 0},
	} {
		if got := beyond(tc.n, tc.p); got != tc.beyond {
			t.Errorf("beyond(n=%d, p=%d) = %d, want %d", tc.n, tc.p, got, tc.beyond)
		}
	}
	// Unsorted on purpose: the percentile does not depend on sample order.
	sample := make([]time.Duration, 200)
	for i := range sample {
		sample[i] = time.Duration((i*7)%200+1) * time.Millisecond
	}
	// 100 samples leave 5 beyond p95: too few. 200 leave exactly 10.
	if _, err := checkedPercentile(sample[:100], 95); err == nil {
		t.Error("p95 of 100 samples passed the >=10-beyond rule")
	}
	got, err := checkedPercentile(sample, 95)
	if err != nil || got != 190*time.Millisecond {
		t.Errorf("p95 of 1..200 ms = %v, %v; want 190ms", got, err)
	}
	if n := len(sample) - 190; n != beyond(len(sample), 95) {
		t.Errorf("%d samples lie above the p95 returned, beyond() says %d", n, beyond(len(sample), 95))
	}
}

func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	// root [0,100] has children a [10,40] and b [30,70] (overlapping: they
	// cover [10,70] = 60) and c [90,120] (clipped to the root: 10).
	// a has a child d [15,25]. A second query's root [200,250] is childless.
	spans := []span{
		{Name: "root", Query: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", Query: 0, Parent: 0, Start: 10, End: 40},
		{Name: "b", Query: 0, Parent: 0, Start: 30, End: 70},
		{Name: "c", Query: 0, Parent: 0, Start: 90, End: 120},
		{Name: "d", Query: 0, Parent: 1, Start: 15, End: 25},
		{Name: "root", Query: 1, Parent: -1, Start: 200, End: 250},
	}
	want := []time.Duration{30, 20, 40, 30, 10, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}

	// A chain laid out the way the replay lays it out: self times sum to the
	// root, and the time-weighted shares to 100.
	chain := []span{
		{Name: "L0", Parent: -1, Start: 0, End: 100},
		{Name: "L1", Parent: 0, Start: 0, End: 80},
		{Name: "L2", Parent: 1, Start: 0, End: 30},
		{Name: "L3", Parent: 1, Start: 30, End: 50},
	}
	var sum time.Duration
	for _, d := range selfTimes(chain) {
		sum += d
	}
	if sum != 100 {
		t.Errorf("chain self times sum to %v, want the root's 100", sum)
	}
	rows := layerTable(chain, []replayLayer{{span: "L0"}, {span: "L1"}, {span: "L2"}, {span: "L3"}})
	var share float64
	for _, r := range rows {
		share += r.SharePct
	}
	if share < 99.999 || share > 100.001 {
		t.Errorf("shares sum to %v, want 100", share)
	}
	if rows[1].SharePct != 30 {
		t.Errorf("L1 share = %v, want 30 (80 minus children 30+20)", rows[1].SharePct)
	}
}

// fixtureDoc is a one-workload result document with the given end-to-end
// values.
func fixtureDoc(qps, p50, p95 float64) *document {
	return &document{
		SchemaVersion: schemaVersion, Docs: 1000, Seed: 2007, TimedSeconds: 1, Clients: 2, SetupReps: 5, ColdPoolFraction: 0.02,
		Workloads: []workloadResult{{
			Name: "hot-scan", Correct: true, Attempted: 10,
			EndToEnd: map[string]metric{
				"qps":                    {Value: qps, Unit: "queries/s"},
				"p50_ms":                 {Value: p50, Unit: "ms"},
				"p95_ms":                 {Value: p95, Unit: "ms"},
				"add_docs_per_s":         {Value: 1000, Unit: "docs/s"},
				"disk_bytes_per_posting": {Value: 16.5, Unit: "bytes"},
				"setup_s":                {Value: 2, Unit: "s"},
			},
		}},
	}
}

func TestCompareVerdicts(t *testing.T) {
	verdicts := func(rows []comparison) map[string]string {
		m := map[string]string{}
		for _, r := range rows {
			m[r.Metric] = r.Verdict
		}
		return m
	}
	base := side{fixtureDoc(1000, 1.0, 2.0), fixtureDoc(1010, 1.01, 2.02), fixtureDoc(990, 0.99, 1.98)}

	// Same code, small wobble: everything agrees, status 0.
	rows, err := compare(base, side{fixtureDoc(1005, 1.0, 2.01), fixtureDoc(995, 1.02, 2.0), fixtureDoc(1000, 0.99, 1.99)})
	if err != nil {
		t.Fatal(err)
	}
	for m, v := range verdicts(rows) {
		if v != agree {
			t.Errorf("A/A: %s is %s", m, v)
		}
	}
	if status := printComparison(&bytes.Buffer{}, rows); status != 0 {
		t.Errorf("A/A exit status %d", status)
	}

	// qps 40% down (higher is better) and p50 40% up (lower is better) are
	// worse; a 40% qps *gain* is not.
	rows, _ = compare(base, side{fixtureDoc(600, 1.4, 2.0)})
	if v := verdicts(rows); v["qps"] != worse || v["p50_ms"] != worse || v["p95_ms"] != agree {
		t.Errorf("regression verdicts: %v", v)
	}
	if status := printComparison(&bytes.Buffer{}, rows); status != 1 {
		t.Errorf("regression exit status %d", status)
	}
	rows, _ = compare(base, side{fixtureDoc(1400, 0.6, 2.0)})
	if v := verdicts(rows); v["qps"] != agree || v["p50_ms"] != agree {
		t.Errorf("improvement verdicts: %v", v)
	}

	// A side whose own runs spread wider than the bound cannot resolve.
	rows, _ = compare(base, side{fixtureDoc(1000, 1.0, 1.6), fixtureDoc(1000, 1.0, 2.0), fixtureDoc(1000, 1.0, 2.4)})
	if v := verdicts(rows); v["p95_ms"] != unresolved || v["qps"] != agree {
		t.Errorf("noisy verdicts: %v", v)
	}
	if status := printComparison(&bytes.Buffer{}, rows); status != 2 {
		t.Errorf("unresolved exit status %d", status)
	}

	// Documents measured with different settings do not compare.
	for name, change := range map[string]func(*document){
		"docs":   func(d *document) { d.Docs = 2000 },
		"seed":   func(d *document) { d.Seed = 7002 },
		"traced": func(d *document) { d.Traced, d.SetupReps = true, 1 },
	} {
		other := fixtureDoc(1000, 1, 2)
		change(other)
		if _, err := compare(base, side{other}); err == nil {
			t.Errorf("compared documents of different %s", name)
		}
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	doc := fixtureDoc(1234.5678, 0.987654321, 2.5)
	doc.Commit, doc.GoVersion, doc.Seed = "abc1234", "go1.24.0", 2007
	doc.Workloads[0].PerLayer = map[string]metric{"chunk_hit_rate": {Value: 99.97, Unit: "%"}}
	doc.Workloads[0].Ungated = map[string]metric{"tail_p99_ms": {Value: 4.2, Unit: "ms", Samples: 31000}}
	path := filepath.Join(t.TempDir(), "doc.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(f, doc); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := readDocument(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, back) {
		t.Errorf("round trip changed the document:\n%+v\n%+v", doc, back)
	}

	// A document of another schema version is refused.
	doc.SchemaVersion++
	f, _ = os.Create(path)
	writeJSON(f, doc)
	f.Close()
	if _, err := readDocument(path); err == nil {
		t.Error("read a document of a different schema version")
	}
}

// TestBenchmarkJSONMatchesTables keeps the contract file and the program's
// metric and workload tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory:", err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if bj.Workloads[i].Name != wl.name || bj.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, bj.Workloads[i], wl.name, wl.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, def := range endToEnd {
		if got := bj.EndToEnd[i]; got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, got, def)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, def := range perLayer {
		if got := bj.PerLayer[i]; got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, got, def)
		}
	}
}

// TestSmokeAllWorkloads runs the whole command at toy scale: four
// workloads, correctness gate, traced run, and the driver's summary line.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		docs: 2000, seed: 2007, seconds: 0.5, warmQueries: 100, setupReps: 1, clients: 2,
		// At toy scale a chunk is a whole column; a pool of a few of them is
		// what 2% is at full scale.
		coldPoolFrac: 0.3, traceSample: 50, trace: true,
		workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out"),
	}
	doc, err := measure(cfg, workloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workload results, want %d", len(doc.Workloads), len(workloads))
	}
	for _, r := range doc.Workloads {
		t.Logf("%s: %d searches", r.Name, r.Attempted)
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d", r.Name, r.Correct, r.Attempted, r.Failed)
		}
		for _, def := range endToEnd {
			if m, ok := r.EndToEnd[def.Name]; !ok || m.Value <= 0 || m.Unit != def.Unit {
				t.Errorf("%s: end-to-end %s = %+v", r.Name, def.Name, m)
			}
		}
		for _, traced := range []bool{false, true} {
			var buf bytes.Buffer
			if err := contractLine(&buf, &r, traced); err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct           *bool
				Attempted, Failed *int
				Metrics           map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
				t.Fatalf("%s summary line: %v", r.Name, err)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != want {
				t.Errorf("%s summary line (traced=%t) has %d metrics, want %d: %s", r.Name, traced, len(line.Metrics), want, buf.String())
			}
		}
	}
	hot, dist, ingest := doc.workload("hot-scan"), doc.workload("dist-fanout"), doc.workload("ingest-mix")
	if v := hot.PerLayer["chunk_hit_rate"].Value; v < 99 {
		t.Errorf("hot-scan chunk_hit_rate = %v, want >= 99", v)
	}
	if v := hot.PerLayer["replay_search_us"].Value; v <= 0 {
		t.Errorf("hot-scan layer replay did not run: replay_search_us = %v", v)
	}
	if v := dist.PerLayer["broker_overhead_us"].Value; v <= 0 {
		t.Errorf("dist-fanout broker_overhead_us = %v, want > 0", v)
	}
	if v := hot.PerLayer["broker_overhead_us"].Value; v != 0 {
		t.Errorf("hot-scan broker_overhead_us = %v, want 0", v)
	}
	if v := ingest.PerLayer["add_batch_p50_ms"].Value; v <= 0 {
		t.Errorf("ingest-mix add_batch_p50_ms = %v, want > 0", v)
	}
	// The writer's script is fixed by the settings — one 500-doc batch at
	// 0.5 s — and runs to its end however long the readers' phase is.
	if n := ingest.EndToEnd["add_docs_per_s"].Samples; n != 1 {
		t.Errorf("ingest-mix acknowledged %d batches, the script has 1", n)
	}
	for _, name := range []string{"hot-scan", "cold-scan"} {
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil {
			t.Errorf("no trace file for %s: %v", name, err)
		}
	}
	if entries, _ := os.ReadDir(cfg.workDir); len(entries) != 0 {
		t.Errorf("work directory not cleaned up: %d entries left", len(entries))
	}
}
