// Command aquila-bench regenerates the tables and figures of the paper's
// evaluation (§8). Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Usage:
//
//	aquila-bench -exp table1
//	aquila-bench -exp table2
//	aquila-bench -exp table3 [-quick] [-suite hand|full]
//	aquila-bench -exp table4 [-scales small,medium,large]
//	aquila-bench -exp fig11a [-k 5] [-scale medium]
//	aquila-bench -exp fig11b [-entries 1000,2000,3000,4000,5000]
//	aquila-bench -exp parallel [-parallel 1,2,4,8] [-repeats 3] [-out BENCH_parallel.json]
//	aquila-bench -exp churn [-churn-entries 64] [-churn-deltas 8]
//	                        [-churn-out BENCH_churn.json] [-compare-churn BENCH_churn.json]
//	aquila-bench -exp serve [-churn-entries 64] [-churn-deltas 8]
//	                        [-serve-out BENCH_serve.json] [-compare-serve BENCH_serve.json]
//	aquila-bench -exp obs [-repeats 3] [-obs-out BENCH_obs.json]
//	aquila-bench -exp fuzz [-quick]
//	aquila-bench -exp scale [-quick] [-scale-out BENCH_scale.json]
//	                        [-compare-scale BENCH_scale.json]
//	aquila-bench -exp all -quick
//	aquila-bench -analyze trace.json [-analyze-out util.json]
//	             [-compare-util BENCH_obs.json]
//
// -analyze skips the experiments and runs the worker-utilization pass
// over a Chrome trace (as written by any CLI's -trace): per-worker busy
// fraction over the solve phase, the critical path, and the straggler
// index. -compare-util gates against a reference (a BENCH_obs.json or a
// previous -analyze-out), failing on a >20% mean-busy-fraction
// regression — the CI scheduling-regression check.
//
// Observability flags (shared with the other CLIs): -trace writes a
// Chrome trace-event JSON covering the whole run, -pprof/-memprofile
// write pprof profiles, -v logs structured JSONL to stderr, -progress
// prints a live solver heartbeat line, -metrics writes an OpenMetrics
// exposition of the counter registry on exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"aquila/internal/bench"
	"aquila/internal/genprog"
	"aquila/internal/obs"
	"aquila/internal/progs"
)

func main() { os.Exit(mainRun()) }

func mainRun() int {
	var (
		exp        = flag.String("exp", "all", "experiment: table1|table2|table3|table4|fig11a|fig11b|parallel|churn|serve|obs|fuzz|scale|all")
		quick      = flag.Bool("quick", false, "smaller budgets and workloads")
		suite      = flag.String("suite", "full", "table3 suite: hand (5 programs) or full (12)")
		scales     = flag.String("scales", "small,medium,large", "table4 switch-T scales")
		k          = flag.Int("k", 5, "fig11a maximum chain length")
		scale      = flag.String("scale", "medium", "fig11a/fig11b switch-T scale")
		entries    = flag.String("entries", "1000,2000,3000,4000,5000", "fig11b entry counts")
		parallel   = flag.String("parallel", "1,2,4,8", "parallel-sweep worker counts (first must be 1, the speedup baseline)")
		repeats    = flag.Int("repeats", 3, "parallel/obs runs per configuration (best wall time kept)")
		outPath    = flag.String("out", "BENCH_parallel.json", "parallel-sweep JSON output file (empty: stdout table only)")
		churnEnt   = flag.Int("churn-entries", 64, "churn: installed entries in the churned ECMP table")
		churnN     = flag.Int("churn-deltas", 8, "churn: steady-state deltas measured (after 2 warmups)")
		churnOut   = flag.String("churn-out", "BENCH_churn.json", "churn-experiment JSON output file (empty: stdout table only)")
		churnCmp   = flag.String("compare-churn", "", "churn only: reference BENCH_churn.json; exit non-zero on byte-identity break, steady-state speedup below bench.SessionSpeedupFloor, or >50% relative regression")
		serveOut   = flag.String("serve-out", "BENCH_serve.json", "serve-experiment JSON output file (empty: stdout table only)")
		serveCmp   = flag.String("compare-serve", "", "serve only: reference BENCH_serve.json; exit non-zero on byte-identity break, steady-state speedup below bench.SessionSpeedupFloor, or >50% relative regression")
		scaleOut   = flag.String("scale-out", "BENCH_scale.json", "scale-campaign JSON output file (empty: stdout table only)")
		scaleCmp   = flag.String("compare-scale", "", "scale only: reference BENCH_scale.json; exit non-zero on >20% relative regression")
		obsOut     = flag.String("obs-out", "BENCH_obs.json", "obs-experiment JSON output file (empty or -quick: stdout table only)")
		analyzeIn  = flag.String("analyze", "", "skip experiments: analyze worker utilization of a Chrome trace JSON (as written by -trace)")
		analyzeOut = flag.String("analyze-out", "", "with -analyze: write the utilization JSON here")
		utilCmp    = flag.String("compare-util", "", "with -analyze: reference BENCH_obs.json (or utilization JSON); exit non-zero if mean busy fraction regresses >20%")
		tracePath  = flag.String("trace", "", "write Chrome trace-event JSON covering the run")
		cpuProf    = flag.String("pprof", "", "write CPU profile (go tool pprof)")
		memProf    = flag.String("memprofile", "", "write heap profile on exit")
		verbose    = flag.Bool("v", false, "structured JSONL log on stderr")
		progress   = flag.Bool("progress", false, "live solver-heartbeat status line on stderr")
		metricsOut = flag.String("metrics", "", "write OpenMetrics text exposition of the metrics registry on exit")
	)
	flag.Parse()

	if *analyzeIn != "" {
		return analyzeMain(*analyzeIn, *analyzeOut, *utilCmp)
	}

	o, closeObs, err := obs.Setup(obs.Config{
		TracePath: *tracePath, CPUProfilePath: *cpuProf,
		MemProfilePath: *memProf, Verbose: *verbose,
		Progress: *progress, MetricsPath: *metricsOut,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "aquila-bench: %v\n", err)
		return 2
	}
	obs.SetDefault(o)

	code := 0
	run := func(name string, f func() error) {
		if code != 0 || (*exp != "all" && *exp != name) {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "aquila-bench: %s: %v\n", name, err)
			code = 1
			return
		}
		fmt.Printf("(%s in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() error {
		rows := bench.Table1()
		fmt.Print(bench.FormatTable1(rows))
		return nil
	})

	run("table2", func() error {
		rows, err := bench.Table2()
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable2(rows))
		return nil
	})

	run("table3", func() error {
		var programs []*progs.Benchmark
		if *suite == "hand" {
			programs = progs.HandWrittenSuite()
		} else {
			programs = genprog.Table3Suite()
		}
		lim := bench.DefaultLimits
		if *quick {
			lim = bench.QuickLimits
		}
		tools := []bench.Tool{bench.ToolAquila, bench.ToolP4V, bench.ToolVera}
		rows, err := bench.Table3(programs, lim, tools)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable3(rows, tools))
		return nil
	})

	run("table4", func() error {
		var list []string
		for _, s := range strings.Split(*scales, ",") {
			list = append(list, strings.TrimSpace(s))
		}
		if *quick {
			list = []string{"small"}
		}
		rows, err := bench.Table4(list)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable4(rows))
		return nil
	})

	run("fig11a", func() error {
		maxK := *k
		sc := *scale
		if *quick {
			maxK, sc = 3, "small"
		}
		rows, err := bench.Fig11a(maxK, sc)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFig11a(rows))
		return nil
	})

	run("fig11b", func() error {
		var counts []int
		for _, s := range strings.Split(*entries, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return err
			}
			counts = append(counts, n)
		}
		if *quick {
			counts = []int{200, 500, 1000}
		}
		// The paper's 2-hour timeout scales down to 2 minutes here (the
		// naive mode is expected to trip it at >= 4k entries).
		rows, err := bench.Fig11b(counts, *scale, bench.DefaultLimits.Budget, 2*time.Minute)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFig11b(rows))
		return nil
	})

	run("parallel", func() error {
		// The worker-count sweep on the DC gateway (scale) and the
		// skewed-telemetry program (load imbalance: one heavy assertion).
		var counts []int
		for _, s := range strings.Split(*parallel, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return err
			}
			counts = append(counts, n)
		}
		reps := *repeats
		if *quick {
			reps = 1
		}
		res, err := bench.ParallelSuite(
			[]*progs.Benchmark{progs.DCGatewayBench(), progs.SkewedBench()},
			counts, reps)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatParallelSuite(res))
		if *outPath != "" {
			data, err := res.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *outPath)
		}
		return nil
	})

	run("churn", func() error {
		// Delta re-verification: a warm Session absorbing single-entry
		// flips on the DC gateway's ECMP table vs a full fresh run per
		// delta, with per-delta canonical byte identity checked.
		ent, n := *churnEnt, *churnN
		if *quick {
			ent, n = 32, 4
		}
		res, err := bench.Churn(ent, 2, n)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatChurn(res))
		if *churnCmp != "" {
			data, err := os.ReadFile(*churnCmp)
			if err != nil {
				return err
			}
			var ref bench.ChurnResult
			if err := json.Unmarshal(data, &ref); err != nil {
				return fmt.Errorf("parsing %s: %w", *churnCmp, err)
			}
			if err := bench.CompareChurn(&ref, res); err != nil {
				return err
			}
			fmt.Printf("no regression vs %s\n", *churnCmp)
		}
		if *churnOut != "" {
			data, err := res.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*churnOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *churnOut)
		}
		return nil
	})

	run("serve", func() error {
		// Continuous verification daemon: the churn workload served over
		// HTTP through an in-process aquila-serve, per-delta round trips
		// byte-compared against fresh runs — proving the service layer
		// preserves both determinism and the warm engine's amortization.
		ent, n := *churnEnt, *churnN
		if *quick {
			ent, n = 32, 4
		}
		res, err := bench.Serve(ent, 2, n)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatServe(res))
		if *serveCmp != "" {
			data, err := os.ReadFile(*serveCmp)
			if err != nil {
				return err
			}
			var ref bench.ServeResult
			if err := json.Unmarshal(data, &ref); err != nil {
				return fmt.Errorf("parsing %s: %w", *serveCmp, err)
			}
			if err := bench.CompareServe(&ref, res); err != nil {
				return err
			}
			fmt.Printf("no regression vs %s\n", *serveCmp)
		}
		if *serveOut != "" {
			data, err := res.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*serveOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *serveOut)
		}
		return nil
	})

	run("obs", func() error {
		reps := *repeats
		if *quick {
			reps = 1
		}
		res, err := bench.ObsOverhead(progs.DCGatewayBench(), reps)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatObs(res))
		if !*quick && *obsOut != "" {
			data, err := res.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*obsOut, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *obsOut)
		}
		return nil
	})

	run("scale", func() error {
		// The 10–100× campaign: structural multipliers and 10⁴–10⁵ entry
		// sweeps recording wall / peak heap / allocation volume. -quick
		// runs the CI subset (one point per axis).
		var reg *obs.Registry
		if o != nil {
			reg = o.Metrics
		}
		res, err := bench.Scale(*quick, reg)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatScale(res))
		if *scaleCmp != "" {
			data, err := os.ReadFile(*scaleCmp)
			if err != nil {
				return err
			}
			var ref bench.ScaleResult
			if err := json.Unmarshal(data, &ref); err != nil {
				return fmt.Errorf("parsing %s: %w", *scaleCmp, err)
			}
			if err := bench.CompareScale(&ref, res); err != nil {
				return err
			}
			fmt.Printf("no regression vs %s\n", *scaleCmp)
		}
		if *scaleOut != "" {
			data, err := res.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*scaleOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *scaleOut)
		}
		return nil
	})

	run("fuzz", func() error {
		// The §6 self-validation story as a benchmark: rediscover both
		// historical encoder bugs from a fixed seed, then a clean campaign
		// that must end divergence-free.
		rows, err := bench.FuzzCampaigns(1, *quick)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFuzz(rows))
		return nil
	})

	if err := closeObs(); err != nil {
		fmt.Fprintf(os.Stderr, "aquila-bench: %v\n", err)
		if code == 0 {
			code = 2
		}
	}
	return code
}

// analyzeMain is the -analyze mode: worker-utilization analytics over a
// Chrome trace, with the optional CI scheduling-regression gate.
func analyzeMain(tracePath, outPath, comparePath string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "aquila-bench: %v\n", err)
		return 1
	}
	util, err := obs.AnalyzeTraceFile(tracePath)
	if err != nil {
		return fail(err)
	}
	fmt.Print(obs.FormatUtilization(util))
	if outPath != "" {
		data, err := json.MarshalIndent(util, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	if comparePath != "" {
		ref, err := loadUtilization(comparePath)
		if err != nil {
			return fail(err)
		}
		if err := obs.CompareUtilization(ref, util); err != nil {
			return fail(err)
		}
		fmt.Printf("no scheduling regression vs %s\n", comparePath)
	}
	return 0
}

// loadUtilization reads a reference utilization: either a BENCH_obs.json
// (ObsResult with a utilization section) or a bare utilization JSON as
// written by -analyze-out.
func loadUtilization(path string) (*obs.Utilization, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res bench.ObsResult
	if err := json.Unmarshal(data, &res); err == nil && res.Utilization != nil {
		return res.Utilization, nil
	}
	var u obs.Utilization
	if err := json.Unmarshal(data, &u); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if u.Checks == 0 {
		return nil, fmt.Errorf("%s: no utilization data", path)
	}
	return &u, nil
}
