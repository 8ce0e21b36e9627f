// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§8): Table 1 (property coverage),
// Table 2 (specification size), Table 3 (verification time/memory across
// the 12-program suite and three tools), Table 4 (bug localization time
// and precision), and Figure 11 (scalability in program size and table
// entries). cmd/aquila-bench prints the results; bench_test.go exposes
// them as testing.B benchmarks; EXPERIMENTS.md records paper-vs-measured.
package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"aquila/internal/encode"
	"aquila/internal/lpi"
	"aquila/internal/p4"
	"aquila/internal/progs"
	"aquila/internal/smt"
	"aquila/internal/symexec"
	"aquila/internal/verify"
)

// Tool identifies a verification backend in Table 3.
type Tool string

// The three compared tools.
const (
	ToolAquila Tool = "Aquila"
	ToolP4V    Tool = "p4v"
	ToolVera   Tool = "Vera"
)

// Outcome is one (program, tool) measurement.
type Outcome struct {
	// FirstTime / AllTime are the §8.1 find-first and find-all times.
	FirstTime time.Duration
	AllTime   time.Duration
	// Mem is the formula footprint: term DAG nodes + CNF clauses (the
	// repository's memory proxy; see EXPERIMENTS.md).
	Mem int
	// Bugs found in find-all mode.
	Bugs int
	// Fail is "", "OOM" (encoding exploded) or "OOT" (budget exhausted).
	Fail string
}

// Render shows the outcome Table 3 style.
func (o Outcome) Render() string {
	if o.Fail != "" {
		return fmt.Sprintf("%4s / %4s", o.Fail, o.Fail)
	}
	return fmt.Sprintf("%8s / %8s (%d bugs, %d mem)",
		o.FirstTime.Round(time.Microsecond*100), o.AllTime.Round(time.Microsecond*100), o.Bugs, o.Mem)
}

// Limits bounds the baselines, standing in for the paper's 32 GB / 2 h
// container limits.
type Limits struct {
	// TreeCap is the statement cap of naive expansions (OOM analogue).
	TreeCap int
	// MaxPaths bounds Vera-style exploration (OOT analogue).
	MaxPaths int
	// Budget bounds SAT conflicts per query (OOT analogue).
	Budget int64
	// Deadline bounds each tool run's wall clock (OOT analogue).
	Deadline time.Duration
}

// DefaultLimits mirror the relative generosity of the paper's setup.
var DefaultLimits = Limits{
	TreeCap:  2_000_000,
	MaxPaths: 2_000_000,
	Budget:   10_000_000,
	Deadline: 2 * time.Minute,
}

// QuickLimits keep test runs fast.
var QuickLimits = Limits{
	TreeCap:  200_000,
	MaxPaths: 50_000,
	Budget:   2_000_000,
	Deadline: 10 * time.Second,
}

// RunTool verifies one benchmark with one tool using the §8.1 property
// (invalid header access, no assumptions about entries or packets).
func RunTool(bm *progs.Benchmark, tool Tool, lim Limits) (Outcome, error) {
	prog, err := bm.Parse()
	if err != nil {
		return Outcome{}, err
	}
	switch tool {
	case ToolVera:
		return runVera(prog, bm, lim)
	case ToolP4V:
		return runEncodingTool(prog, bm, lim, encode.Options{
			Parser:  encode.ParserTree,
			Table:   encode.TableNaive,
			TreeCap: lim.TreeCap,
		})
	default:
		return runEncodingTool(prog, bm, lim, encode.Options{})
	}
}

func runEncodingTool(prog *p4.Program, bm *progs.Benchmark, lim Limits, eopts encode.Options) (Outcome, error) {
	specSrc := progs.InvalidHeaderAccessSpec(prog, bm.Calls)
	spec, err := lpi.Parse(specSrc)
	if err != nil {
		return Outcome{}, err
	}
	var out Outcome

	run := func(findAll bool) (*verify.Report, error) {
		return verify.Run(prog, nil, spec, verify.Options{
			Encode:  eopts,
			FindAll: findAll,
			Budget:  lim.Budget,
		})
	}
	t0 := time.Now()
	first, err := run(false)
	out.FirstTime = time.Since(t0)
	if err != nil {
		return failOutcome(err)
	}
	if lim.Deadline > 0 && out.FirstTime > lim.Deadline {
		out.Fail = "OOT"
		return out, nil
	}
	t1 := time.Now()
	all, err := run(true)
	out.AllTime = time.Since(t1)
	if err != nil {
		return failOutcome(err)
	}
	if lim.Deadline > 0 && out.AllTime > lim.Deadline {
		out.Fail = "OOT"
		return out, nil
	}
	out.Bugs = len(all.Violations)
	out.Mem = all.Stats.TermNodes + all.Stats.CNFClauses
	_ = first // the find-first report itself is not tabulated, only its time
	return out, nil
}

func failOutcome(err error) (Outcome, error) {
	var ex *encode.ErrExplosion
	if errors.As(err, &ex) {
		return Outcome{Fail: "OOM"}, nil
	}
	if errors.Is(err, verify.ErrBudget) {
		return Outcome{Fail: "OOT"}, nil
	}
	var px *symexec.ErrPathExplosion
	if errors.As(err, &px) {
		return Outcome{Fail: "OOT"}, nil
	}
	return Outcome{}, err
}

// runVera checks the same property with the path-enumerating baseline.
func runVera(prog *p4.Program, bm *progs.Benchmark, lim Limits) (Outcome, error) {
	prop := invalidAccessProperty(prog)
	run := func() (*symexec.Result, error) {
		eng := symexec.New(prog, nil, symexec.Options{
			MaxPaths: lim.MaxPaths,
			Deadline: lim.Deadline,
		})
		return eng.Run(bm.Calls, nil, prop)
	}
	var out Outcome
	t0 := time.Now()
	res, err := run()
	out.FirstTime = time.Since(t0)
	if err != nil {
		return failOutcome(err)
	}
	// The engine checks all paths in one sweep; find-all re-runs to keep
	// the measurement methodology symmetrical with §8.1.
	t1 := time.Now()
	res2, err := run()
	out.AllTime = time.Since(t1)
	if err != nil {
		return failOutcome(err)
	}
	out.Bugs = len(res2.Violations)
	out.Mem = res.Paths // the baseline's footprint scales with live paths
	return out, nil
}

// invalidAccessProperty mirrors progs.InvalidHeaderAccessSpec for the
// symexec engine.
func invalidAccessProperty(prog *p4.Program) symexec.Property {
	type check struct {
		applied string
		valid   string
	}
	var checks []check
	for ctlName, ctl := range prog.Controls {
		for tn, tbl := range ctl.Tables {
			for _, h := range progs.TableHeaders(prog, ctl, tbl) {
				checks = append(checks, check{
					applied: "$applied." + ctlName + "." + tn,
					valid:   h + ".$valid",
				})
			}
		}
	}
	return func(ctx *smt.Ctx, get func(string, int) *smt.Term) *smt.Term {
		cond := ctx.True()
		for _, c := range checks {
			cond = ctx.And(cond, ctx.Or(ctx.Not(get(c.applied, 0)), get(c.valid, 0)))
		}
		return cond
	}
}

// Table3Row is one row of Table 3.
type Table3Row struct {
	Name         string
	LoC          int
	Pipes        int
	ParserStates int
	Tables       int
	Results      map[Tool]Outcome
}

// Table3 runs the full suite × tools matrix.
func Table3(suite []*progs.Benchmark, lim Limits, tools []Tool) ([]Table3Row, error) {
	var rows []Table3Row
	for _, bm := range suite {
		prog, err := bm.Parse()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bm.Name, err)
		}
		row := Table3Row{
			Name:         bm.Name,
			LoC:          prog.LoC,
			Pipes:        bm.Pipes,
			ParserStates: bm.ParserStates,
			Tables:       bm.Tables,
			Results:      map[Tool]Outcome{},
		}
		for _, tool := range tools {
			out, err := RunTool(bm, tool, lim)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", bm.Name, tool, err)
			}
			row.Results[tool] = out
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable3 renders the rows.
func FormatTable3(rows []Table3Row, tools []Tool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %6s %5s %7s %7s", "Program", "LoC", "Pipes", "PStates", "Tables")
	for _, t := range tools {
		fmt.Fprintf(&b, " | %s first/all", t)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %6d %5d %7d %7d", r.Name, r.LoC, r.Pipes, r.ParserStates, r.Tables)
		for _, t := range tools {
			fmt.Fprintf(&b, " | %s", r.Results[t].Render())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// mustSpec parses an LPI spec or panics (harness-internal).
func mustSpec(src string) *lpi.Spec {
	spec, err := lpi.Parse(src)
	if err != nil {
		panic(err)
	}
	return spec
}

// mustProg parses a program or panics (harness-internal).
func mustProg(name, src string) *p4.Program {
	prog, err := p4.ParseAndCheck(name, src)
	if err != nil {
		panic(err)
	}
	return prog
}
