// Command perfbench is Aquila's benchmark. It runs one workload from a
// seed as a closed loop with one client, checks every verdict against a
// known answer, and prints the workload's metrics as one JSON object on
// the last line of standard output:
//
//	bash perfbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, measured with
// no tracing. With --trace 1 it carries the per-layer metrics: the
// benchmark calls each pipeline layer's public functions itself, records
// a span around every call, and writes the spans as Chrome trace-event
// JSON under --out. The program under test carries no instrumentation of
// the benchmark's; every run uses the options `aquila -all` uses (library
// defaults plus FindAll).
//
// Exit codes: 0 when every checked output was correct, 1 when a verdict
// or report disagreed with its known answer (the result is still
// printed), 2 on a usage or set-up error (no result is printed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a --trace 0 run reports, in BENCHMARK.json
// order. An operation is one fresh verification on corpus and bigtable
// and one delta round trip on churn. The cpu_* times are the process's
// CPU time (all threads: find-all workers, collector, daemon), which the
// host's CPU steal inflates less than wall-clock time; wall_p50_ms is the
// time to a verdict, which shows what CPU time cannot: lost parallelism
// and waiting. The percentiles are taken per input and combined by
// geometric mean (rowGeomean).
var endToEnd = []metricDef{
	{"cpu_p50_ms", "ms"},
	{"cpu_p90_ms", "ms"},
	{"wall_p50_ms", "ms"},
	{"ops_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// corpusRows maps each corpus program to its per-program metric prefix.
var corpusRows = []struct{ Program, Key string }{
	{"Simple Router", "simple_router"},
	{"NetPaxos Acceptor", "netpaxos_acceptor"},
	{"NetPaxos Coordinator", "netpaxos_coordinator"},
	{"NDP", "ndp"},
	{"Flowlet Switching", "flowlet_switching"},
	{"DC Gateway", "dc_gateway"},
	{"Skewed Telemetry", "skewed_telemetry"},
}

// perLayer are the metrics a --trace 1 run reports, in BENCHMARK.json
// order. Times are self times per operation: a span's duration minus the
// part its child spans cover, averaged over the run's operations. A layer
// a workload's operation does not pass through reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"p4.parse_ms", "ms"},
		{"lpi.parse_ms", "ms"},
		{"tables.parse_ms", "ms"},
		{"tables.entries", "count"},
		{"lpi.compile_ms", "ms"},
		{"encode.terms", "count"},
		{"gcl.vcgen_ms", "ms"},
		{"gcl.size", "count"},
		{"gcl.terms", "count"},
		{"gcl.assertions", "count"},
		{"smt.blast_ms", "ms"},
		{"smt.sat_vars", "count"},
		{"smt.clauses", "count"},
		{"sat.search_ms", "ms"},
		{"sat.conflicts", "count"},
		{"sat.decisions", "count"},
		{"sat.propagations", "count"},
		{"smt.model_ms", "ms"},
		{"verify.render_ms", "ms"},
		{"verify.report_bytes", "bytes"},
		{"verify.run_ms", "ms"},
		{"verify.solve_wall_ms", "ms"},
		{"verify.solve_cpu_ms", "ms"},
		{"verify.workers", "count"},
		{"verify.parallel_eff", "ratio"},
		{"verify.tseitin_clauses", "count"},
		{"verify.slice_dropped", "count"},
		{"session.apply_ms", "ms"},
		{"session.reuse_frac", "ratio"},
		{"session.conflicts", "count"},
		{"session.tseitin_clauses", "count"},
		{"serve.apply_ms", "ms"},
		{"serve.queue_wait_ms", "ms"},
		{"serve.overhead_ms", "ms"},
		{"go.gc_cpu_frac", "ratio"},
		{"go.alloc_mb_per_op", "MB"},
		{"go.allocs_per_op", "count"},
		{"trace.overhead_ms", "ms"},
	}
	for _, r := range corpusRows {
		defs = append(defs, metricDef{"corpus." + r.Key + ".ms", "ms"})
	}
	return append(defs, metricDef{"corpus.geomean_ms", "ms"})
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's parameters.
type config struct {
	Workload string
	Seed     int64
	Seconds  time.Duration
	Traced   bool
	Out      string // directory for span files
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"corpus":   runCorpus,
	"bigtable": runBigtable,
	"churn":    runChurn,
}

func main() {
	if os.Getenv(refEnv) == "1" {
		os.Exit(runReferenceChild())
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "corpus, bigtable or churn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span file")
	out := fs.String("out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload corpus|bigtable|churn, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := config{Workload: *workload, Seed: *seed, Seconds: time.Duration(*seconds) * time.Second,
		Traced: *trace == 1, Out: *out}
	env := envStamp(cfg)
	envJSON, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Printf("env %s\n", envJSON)

	oc, err := runner(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res := oc.result(cfg)
	if cfg.Traced {
		path, err := writeSpans(cfg, oc.rec, env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		fmt.Printf("spans %s\n", path)
	}
	for _, line := range oc.notes {
		fmt.Println(line)
	}
	fmt.Printf("error_rate %.6f ratio (%d of %d operations failed)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("metric %s %v %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// envStamp records where and how a result was measured. Parallel figures
// hold for num_cpu CPUs only.
func envStamp(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds.Seconds(),
		"trace":      cfg.Traced,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_commit": commit,
		"cpu_label":  fmt.Sprintf("%d-CPU host", runtime.NumCPU()),
	}
}
