// Command bench is the repository's one benchmark: four named workloads
// over the whole stack, end-to-end and per-layer metrics, a correctness
// gate, a traced layer replay, and -compare for judging two results. See
// README.md in this directory for the vocabulary.
//
//	bash bench/run.sh                         every workload, human table + JSON document
//	bash bench/run.sh --trace 1               ... plus the layer replay and kernel metrics
//	bash bench/run.sh --workload hot-scan ... one workload, summary object on the last line
//	bash bench/run.sh -compare a.json b.json  judge b against a
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// maxClients caps the closed loop: threads stay at or below cores so the
// numbers measure the program, not the scheduler.
const maxClients = 4

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	workloadName := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 2007, "seed of the generated collection and queries (7002 is the hold-out seed: do not develop against it)")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of each workload's timed phase")
	trace := fs.Int("trace", 0, "1 adds the traced run: layer replay, trace file and kernel metrics")
	fs.IntVar(&cfg.docs, "docs", 50000, "documents in the generated collection")
	fs.StringVar(&cfg.workDir, "work", filepath.Join("bench", ".work"), "directory for the workloads' index directories")
	fs.StringVar(&cfg.outDir, "out-dir", filepath.Join("bench", "out"), "directory for trace files")
	out := fs.String("out", "", "also write the result document to this file")
	cmp := fs.Bool("compare", false, "compare two result documents (or comma-separated sets): -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return runCompare(fs.Args())
	}
	cfg.trace = *trace != 0
	cfg.warmQueries, cfg.coldPoolFrac, cfg.traceSample = warmQueries, coldPoolFrac, traceSample
	cfg.setupReps = setupReps
	if cfg.trace {
		cfg.setupReps = 1 // the driver reads only per-layer metrics from a traced run
	}
	cfg.clients = min(runtime.NumCPU(), maxClients)
	runtime.GOMAXPROCS(cfg.clients)

	selected := workloads
	if *workloadName != "all" {
		wl := findWorkload(*workloadName)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []workload{*wl}
	}
	doc, err := measure(cfg, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printTable(os.Stderr, doc)
	if *out != "" {
		f, err := os.Create(*out)
		if err == nil {
			if err = writeJSON(f, doc); err == nil {
				err = f.Close()
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *workloadName == "all" {
		err = writeJSON(os.Stdout, doc)
	} else {
		err = contractLine(os.Stdout, &doc.Workloads[0], cfg.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

// measure generates the inputs and runs the selected workloads one after
// another. Any correctness failure or failed operation is an error: a
// result is only printed for a run on which nothing failed.
func measure(cfg config, selected []workload) (*document, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	e := newEnv(cfg)
	doc := &document{
		SchemaVersion: schemaVersion, Commit: commit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: cfg.clients,
		Docs: cfg.docs, Seed: cfg.seed, TimedSeconds: cfg.seconds, WarmupQueries: cfg.warmQueries,
		SetupReps: cfg.setupReps, ColdPoolFraction: cfg.coldPoolFrac, TraceSample: cfg.traceSample, Traced: cfg.trace,
	}
	for i := range selected {
		res, err := runWorkload(e, &selected[i])
		if err != nil {
			return nil, err
		}
		doc.Workloads = append(doc.Workloads, res)
	}
	return doc, nil
}

// commit names the code measured when the command runs at the root of a git
// work tree; any other checkout says "unknown" rather than let git wander
// up the directory tree.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func runCompare(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two result documents (or two comma-separated sets of them)")
		return 2
	}
	rows, err := compareFiles(paths[0], paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return printComparison(os.Stdout, rows)
}
