// Command perfbench is REDI's end-to-end benchmark. It runs one workload —
// a request mix against an in-process redi serve, or CLI-equivalent batch
// commands over column files — checks every output against an independent
// library call, and prints the metrics. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (throughput, latency
// percentiles, set-up time, live heap); with -trace 1 they are the
// per-layer ones, folded from span trees recorded around each call into a
// layer plus exact work counts from a sequential pass. Lines before the last
// one start with "# " and carry the run record, the per-operation metrics
// that only some workloads have, and the per-layer tables.
//
// Usage (from the checkout root):
//
//	bash perfbench/run.sh --workload serve-read-large --seed 1 --seconds 30 --trace 0
//
// Every input is generated from -seed through internal/rng and
// internal/synth; the program under test receives only the generated rows,
// requests and commands.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// scale multiplies every data size; 1 is the benchmark, tests use a
	// small fraction.
	scale   float64
	workdir string
	// clients is the closed-loop client count and workers the worker
	// budget: a served request gets workers/clients, a batch command all.
	clients int
	workers int
	// setupReps is how many times set-up is timed; setup_s is the median.
	setupReps int
	// corrupt, when set, may alter a response before the correctness gate
	// sees it. Tests use it to show the gate fires.
	corrupt func(kind string, body []byte) []byte
}

// window is the length of one window of a traced run's alternation.
func (c config) window() time.Duration { return min(windowLen, c.seconds) }

// workload is one registered benchmark workload. clients is its
// closed-loop client count, capped at the CPU count; setupReps how many
// times its set-up is timed at least.
type workload struct {
	name      string
	why       string
	clients   int
	setupReps int
	run       func(cfg config) (*result, error)
}

// workloads is the registry: name → generator, load loop and gates.
var workloads = []workload{
	{
		name: "serve-read-large",
		why:  "200k resident rows, read only: completeness scans, the predicate VM and the coverage walk scale with resident rows",
		// One client: with two, both CPUs scan memory at once, and on a
		// shared 2-vCPU host the run-to-run spread of throughput grew from
		// 4% to 25% (interleaved runs, six seeds each). Concurrency is
		// covered by serve-ingest-mix.
		clients:   1,
		setupReps: 31,
		run:       runReadLarge,
	},
	{
		name:      "serve-ingest-mix",
		why:       "a 20k-row seed grows by 200-row ingests beside reads: index advance and the writer/reader lock do the work",
		clients:   2,
		setupReps: 7,
		run:       runIngestMix,
	},
	{
		name:      "batch-colfile",
		why:       "CLI-equivalent audit/query/tailor over 500k-row column files: out-of-core kernels, partitioned compile and the E12 pipeline",
		clients:   1,
		setupReps: 5,
		run:       runBatch,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 10, "length of each timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build/work", "directory for the column files the batch workload writes")
	export := flag.String("export-replay", "", "write the serve workload's seed CSV, schema and JSONL request log to this directory and exit")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; known: %s\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	cfg := configFor(w)
	cfg.seed = *seed
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *traceFlag == 1
	cfg.workdir = *workdir

	if *export != "" {
		if err := exportReplay(w.name, cfg, *export); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	printRecord(w, cfg)
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout, cfg.trace)
}

// configFor is the benchmark's fixed configuration of a workload: full
// size, its client count capped at the CPU count, and every CPU as the
// worker budget, shared among the clients.
func configFor(w workload) config {
	nproc := runtime.NumCPU()
	return config{
		seconds:   10 * time.Second,
		scale:     1,
		workdir:   ".bench_build/work",
		clients:   min(w.clients, nproc),
		workers:   nproc,
		setupReps: w.setupReps,
	}
}

// runRecord describes the machine and settings a result was measured with.
type runRecord struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Clients    int     `json:"clients"`
	Workers    int     `json:"worker_budget"`
	Note       string  `json:"note"`
}

func printRecord(w workload, cfg config) {
	rec := runRecord{
		Workload:   w.name,
		Why:        w.why,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds.Seconds(),
		Trace:      cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Clients:    cfg.clients,
		Workers:    cfg.workers,
		Note: fmt.Sprintf("measured on %d CPUs; parallel scaling beyond %d cores is unmeasured",
			runtime.NumCPU(), runtime.NumCPU()),
	}
	b, err := json.Marshal(rec)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	fmt.Printf("# run %s\n", b)
}
