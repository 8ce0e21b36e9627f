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
//	aquila-bench -exp churn [-churn-entries 64] [-churn-deltas 8]
//	                        [-churn-out BENCH_churn.json] [-compare-churn BENCH_churn.json]
//	aquila-bench -exp serve [-churn-entries 64] [-churn-deltas 8]
//	                        [-serve-out BENCH_serve.json] [-compare-serve BENCH_serve.json]
//	aquila-bench -exp fuzz [-quick]
//	aquila-bench -exp scale [-quick] [-scale-out BENCH_scale.json]
//	                        [-compare-scale BENCH_scale.json]
//	aquila-bench -exp all -quick
//
// An unknown -exp name is a usage error (exit 2), checked before any
// experiment starts.
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
	"slices"
	"strconv"
	"strings"
	"time"

	"aquila/internal/bench"
	"aquila/internal/genprog"
	"aquila/internal/obs"
	"aquila/internal/progs"
)

func main() { os.Exit(run(os.Args[1:])) }

// experiments names every -exp value except "all", in the order "all"
// runs them.
var experiments = []string{"table1", "table2", "table3", "table4", "fig11a", "fig11b", "churn", "serve", "scale", "fuzz"}

// run is main with an exit code, so the observability closers (trace
// flush, profile writes) always execute.
func run(args []string) int {
	fs := flag.NewFlagSet("aquila-bench", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "all", "experiment: "+strings.Join(experiments, "|")+"|all")
		quick      = fs.Bool("quick", false, "smaller budgets and workloads")
		suite      = fs.String("suite", "full", "table3 suite: hand (5 programs) or full (12)")
		scales     = fs.String("scales", "small,medium,large", "table4 switch-T scales")
		k          = fs.Int("k", 5, "fig11a maximum chain length")
		scale      = fs.String("scale", "medium", "fig11a/fig11b switch-T scale")
		entries    = fs.String("entries", "1000,2000,3000,4000,5000", "fig11b entry counts")
		churnEnt   = fs.Int("churn-entries", 64, "churn: installed entries in the churned ECMP table")
		churnN     = fs.Int("churn-deltas", 8, "churn: steady-state deltas measured (after 2 warmups)")
		churnOut   = fs.String("churn-out", "BENCH_churn.json", "churn-experiment JSON output file (empty: stdout table only)")
		churnCmp   = fs.String("compare-churn", "", "churn only: reference BENCH_churn.json; exit non-zero on byte-identity break, steady-state speedup below bench.SessionSpeedupFloor, or >50% relative regression")
		serveOut   = fs.String("serve-out", "BENCH_serve.json", "serve-experiment JSON output file (empty: stdout table only)")
		serveCmp   = fs.String("compare-serve", "", "serve only: reference BENCH_serve.json; exit non-zero on byte-identity break, steady-state speedup below bench.SessionSpeedupFloor, or >50% relative regression")
		scaleOut   = fs.String("scale-out", "BENCH_scale.json", "scale-campaign JSON output file (empty: stdout table only)")
		scaleCmp   = fs.String("compare-scale", "", "scale only: reference BENCH_scale.json; exit non-zero on >20% relative regression")
		tracePath  = fs.String("trace", "", "write Chrome trace-event JSON covering the run")
		cpuProf    = fs.String("pprof", "", "write CPU profile (go tool pprof)")
		memProf    = fs.String("memprofile", "", "write heap profile on exit")
		verbose    = fs.Bool("v", false, "structured JSONL log on stderr")
		progress   = fs.Bool("progress", false, "live solver-heartbeat status line on stderr")
		metricsOut = fs.String("metrics", "", "write OpenMetrics text exposition of the metrics registry on exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *exp != "all" && !slices.Contains(experiments, *exp) {
		fmt.Fprintf(os.Stderr, "aquila-bench: unknown experiment %q (want %s|all)\n", *exp, strings.Join(experiments, "|"))
		return 2
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
	step := func(name string, f func() error) {
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

	step("table1", func() error {
		rows := bench.Table1()
		fmt.Print(bench.FormatTable1(rows))
		return nil
	})

	step("table2", func() error {
		rows, err := bench.Table2()
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable2(rows))
		return nil
	})

	step("table3", func() error {
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

	step("table4", func() error {
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

	step("fig11a", func() error {
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

	step("fig11b", func() error {
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

	step("churn", func() error {
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

	step("serve", func() error {
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

	step("scale", func() error {
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

	step("fuzz", func() error {
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
