// Package verify is Aquila's verification driver (Figure 7): it composes
// the component GCLs according to the LPI program block, generates
// verification conditions, and drives the SMT solver to find either the
// first violated assertion (all assertions checked together) or all of
// them one by one — the §5.1/§8.1 find-first vs find-all modes.
package verify

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aquila/internal/encode"
	"aquila/internal/gcl"
	"aquila/internal/lpi"
	"aquila/internal/obs"
	"aquila/internal/p4"
	"aquila/internal/smt"
	"aquila/internal/tables"
)

// Options configures a verification run.
type Options struct {
	// Encode selects the encoding modes; TrackModified is filled from the
	// spec automatically.
	Encode encode.Options
	// FindAll checks every assertion one by one; otherwise the run stops
	// at the first violated assertion (checked all together).
	FindAll bool
	// Budget bounds SAT conflicts per check (<=0: unlimited). Exhaustion
	// is reported as ErrBudget.
	Budget int64
	// Parallel is the number of worker goroutines for find-all checks and
	// localization re-checks: 0 means runtime.GOMAXPROCS(0), 1 forces the
	// serial path. Reports are byte-identical at every setting: each
	// assertion is checked by a solver reset to its fresh state over the
	// shared frozen term DAG, so its verdict, model and counters do not
	// depend on which worker ran it or what that worker checked before,
	// and results are aggregated in assertion order.
	// NewSession ignores it: the session engine is serial.
	Parallel int
	// Cancel, when non-nil, is a cooperative cancellation token installed
	// on every checking solver (newSolver): storing true makes in-flight
	// and future checks return Unknown at the solver's next poll, which
	// the driver reports as ErrBudget exactly like conflict-budget
	// exhaustion. aquila-serve maps per-request verification deadlines
	// onto it. nil (the default) installs nothing and leaves verdicts and
	// canonical report bytes untouched.
	Cancel *atomic.Bool
	// Obs attaches observability sinks (tracer, metrics, structured log).
	// nil falls back to the process default (set by the CLIs); when that is
	// also nil every hook is a nil-check with no measurable overhead, and
	// attaching sinks never changes verdicts or canonical report bytes.
	Obs *obs.Obs
}

// Observer resolves the effective sink: the explicit Options.Obs, else the
// process-wide default.
func (o Options) Observer() *obs.Obs {
	if o.Obs != nil {
		return o.Obs
	}
	return obs.Default()
}

// Workers returns the effective worker count for the options.
func (o Options) Workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs f(0), ..., f(n-1) on up to workers goroutines and waits for
// all of them. With workers <= 1 the calls run inline in index order. It is
// the fan-out primitive shared by find-all verification and localization;
// f must write only to index-owned slots.
func ForEach(workers, n int, f func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { f(i) })
}

// ForEachWorker is ForEach with the worker's identity passed to f:
// worker is 0 for inline (serial) execution and 1..workers on the pool —
// the tracer uses it as the Chrome trace tid so the fan-out is visible.
func ForEachWorker(workers, n int, f func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				f(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// Violation describes a violated assertion with its counterexample.
type Violation struct {
	Label string
	Info  *lpi.AssertionInfo // nil for non-LPI assertions
	Model *smt.Model
	// Cex renders the counterexample's variable assignment.
	Cex string
	// Cond is the violation condition (used by bug localization).
	Cond *smt.Term
}

// Stats captures cost metrics the paper reports in Table 3 / Figure 11.
type Stats struct {
	EncodeTime time.Duration
	// SolveTime is the wall-clock duration of the solving phase; under
	// parallelism it shrinks with the worker count.
	SolveTime time.Duration
	// SolveCPU is the cumulative time spent inside individual SMT checks,
	// summed across workers; it is (modulo scheduling noise) independent of
	// the worker count and is the fair cost metric for parallel runs.
	SolveCPU  time.Duration
	GCLSize   int
	TermNodes int // DAG nodes in the term context (memory proxy)
	// CNFClauses and SATVars are summed across every check the run made
	// — in find-all mode one check per consumed assertion, each on a
	// solver reset to its fresh state, in find-first mode the main
	// disjunction query plus any divergence re-checks. Both modes use the
	// same summation semantics, so the fields mean "total CNF footprint
	// of the run" (the paper's memory proxy) regardless of mode.
	CNFClauses int
	SATVars    int
	Assertions int
	// Workers is the effective worker count of the solving phase.
	Workers int

	// SAT-core search totals, summed across the same solver instances as
	// CNFClauses/SATVars. In fresh mode these are deterministic for a
	// given formula at every worker count (every check starts from a
	// solver reset to its fresh state); in sessions they depend on which
	// checks shared the warm solver.
	Conflicts     int64
	Decisions     int64
	Propagations  int64
	Restarts      int64
	LearntClauses int64
	LearntLits    int64
	LearntDeleted int64
	// TseitinClauses counts CNF clauses emitted by the blasters (>=
	// retained CNFClauses); the headline metric shared solvers shrink.
	// BlastHits counts per-term blast-cache hits — the reuse shared
	// solvers buy.
	TseitinClauses int64
	BlastHits      int64

	// SliceConjuncts and SliceDropped count the VC conjuncts seen and
	// removed by cone-of-influence slicing (zero outside sessions, the
	// only engine that slices).
	SliceConjuncts int64
	SliceDropped   int64

	// DeltaReuse and DeltaRecheck are the session engine's per-Apply
	// split: assertions whose verdict was replayed from the session cache
	// vs assertions re-solved after a table delta (both zero outside
	// session.go). Cost data — zeroed in canonical reports, which is what
	// makes a replay-heavy session report byte-identical to a fresh run.
	DeltaReuse   int64
	DeltaRecheck int64

	// PerAssertion is the find-all per-assertion cost breakdown (the data
	// Figure 11 plots): one entry per consumed assertion, in assertion
	// order. Empty in find-first mode, which checks all assertions in one
	// disjunction query.
	PerAssertion []AssertionCost

	// Histograms is the flight recorder's distribution snapshot
	// (flight.go): per-check wall time and conflicts, learnt-clause
	// sizes, and slice-drop ratios, log2-bucketed. Cost data like
	// everything above — zeroed in canonical reports.
	Histograms []HistogramStat
}

// AssertionCost is the solve cost of one assertion in find-all mode.
type AssertionCost struct {
	Label  string
	Status string // "sat" (violated), "unsat" (holds), "unknown" (budget)
	// SolveTime is this check's wall time inside the worker.
	SolveTime    time.Duration
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	CNFClauses   int
	SATVars      int
}

// addSolver folds one solver instance's counters into the run totals.
func (st *Stats) addSolver(ss smt.SolverStats) {
	st.CNFClauses += ss.Clauses
	st.SATVars += ss.SATVars
	st.Conflicts += ss.Conflicts
	st.Decisions += ss.Decisions
	st.Propagations += ss.Propagations
	st.Restarts += ss.Restarts
	st.LearntClauses += ss.LearntClauses
	st.LearntLits += ss.LearntLits
	st.LearntDeleted += ss.LearntDeleted
	st.TseitinClauses += ss.TseitinClauses
	st.BlastHits += ss.BlastHits
}

// statsDelta is the work between two snapshots of one (shared) solver.
func statsDelta(cur, prev smt.SolverStats) smt.SolverStats {
	var sizes [smt.NumLearntSizeBuckets]int64
	for i := range sizes {
		sizes[i] = cur.LearntSizes[i] - prev.LearntSizes[i]
	}
	return smt.SolverStats{
		LearntSizes:    sizes,
		Decisions:      cur.Decisions - prev.Decisions,
		Conflicts:      cur.Conflicts - prev.Conflicts,
		Propagations:   cur.Propagations - prev.Propagations,
		Restarts:       cur.Restarts - prev.Restarts,
		LearntClauses:  cur.LearntClauses - prev.LearntClauses,
		LearntLits:     cur.LearntLits - prev.LearntLits,
		LearntDeleted:  cur.LearntDeleted - prev.LearntDeleted,
		TseitinClauses: cur.TseitinClauses - prev.TseitinClauses,
		BlastHits:      cur.BlastHits - prev.BlastHits,
		BlastMisses:    cur.BlastMisses - prev.BlastMisses,
		Clauses:        cur.Clauses - prev.Clauses,
		SATVars:        cur.SATVars - prev.SATVars,
	}
}

// addStats sums two solver-stat snapshots (used to fold a counterexample
// re-check's cost into its assertion's delta).
func addStats(a, b smt.SolverStats) smt.SolverStats {
	var sizes [smt.NumLearntSizeBuckets]int64
	for i := range sizes {
		sizes[i] = a.LearntSizes[i] + b.LearntSizes[i]
	}
	return smt.SolverStats{
		LearntSizes:    sizes,
		Decisions:      a.Decisions + b.Decisions,
		Conflicts:      a.Conflicts + b.Conflicts,
		Propagations:   a.Propagations + b.Propagations,
		Restarts:       a.Restarts + b.Restarts,
		LearntClauses:  a.LearntClauses + b.LearntClauses,
		LearntLits:     a.LearntLits + b.LearntLits,
		LearntDeleted:  a.LearntDeleted + b.LearntDeleted,
		TseitinClauses: a.TseitinClauses + b.TseitinClauses,
		BlastHits:      a.BlastHits + b.BlastHits,
		BlastMisses:    a.BlastMisses + b.BlastMisses,
		Clauses:        a.Clauses + b.Clauses,
		SATVars:        a.SATVars + b.SATVars,
	}
}

// countSolver publishes one solver instance's counters to the metrics
// registry (nil-safe). Called from worker goroutines — the registry's
// counters are atomic, which is what the -race CI job exercises.
func countSolver(o *obs.Obs, ss smt.SolverStats, status smt.Status) {
	if o == nil || o.Metrics == nil {
		return
	}
	m := o.Metrics
	m.Counter(obs.CtrSATConflicts).Add(ss.Conflicts)
	m.Counter(obs.CtrSATDecisions).Add(ss.Decisions)
	m.Counter(obs.CtrSATPropagations).Add(ss.Propagations)
	m.Counter(obs.CtrSATRestarts).Add(ss.Restarts)
	m.Counter(obs.CtrSATLearntClause).Add(ss.LearntClauses)
	m.Counter(obs.CtrSATLearntLits).Add(ss.LearntLits)
	m.Counter(obs.CtrSATLearntDeleted).Add(ss.LearntDeleted)
	m.Counter(obs.CtrSMTTseitinClauses).Add(ss.TseitinClauses)
	m.Counter(obs.CtrSMTBlastHits).Add(ss.BlastHits)
	m.Counter(obs.CtrSMTBlastMisses).Add(ss.BlastMisses)
	m.Counter(obs.CtrVerifyChecks).Add(1)
	switch status {
	case smt.Sat:
		m.Counter(obs.CtrVerifySat).Add(1)
	case smt.Unsat:
		m.Counter(obs.CtrVerifyUnsat).Add(1)
	default:
		m.Counter(obs.CtrVerifyUnknown).Add(1)
	}
}

// Report is the outcome of a verification run.
type Report struct {
	Holds      bool
	Violations []*Violation
	Stats      Stats

	// Internals exposed for bug localization and tooling.
	Ctx     *smt.Ctx
	Env     *encode.Env
	Program gcl.Stmt
	Result  *gcl.Result

	// hists holds the run's live flight-recorder histograms (flight.go)
	// behind a pointer: they contain atomics, and Report is shallow-
	// copied by CanonicalJSON. Nil on bare Reports (all observes no-op).
	hists *runHists
}

// ErrBudget reports solver budget exhaustion (the analogue of the paper's
// OOT entries).
var ErrBudget = fmt.Errorf("verify: solver budget exhausted")

// Run verifies prog (+ optional snapshot) against spec.
func Run(prog *p4.Program, snap *tables.Snapshot, spec *lpi.Spec, opts Options) (*Report, error) {
	o := opts.Observer()
	ctx := smt.NewCtx()
	eopts := opts.Encode
	eopts.TrackModified = lpi.TrackModified(spec)
	endEncode := o.Phase(0, "encode")
	env := encode.NewEnv(ctx, prog, snap, eopts)
	endEncode()
	return RunWithEnv(ctx, env, spec, opts)
}

// RunWithEnv verifies with a caller-provided context and environment
// (used by localization to re-encode variants of the same program).
func RunWithEnv(ctx *smt.Ctx, env *encode.Env, spec *lpi.Spec, opts Options) (*Report, error) {
	o := opts.Observer()
	// Intern stats are cumulative on the (possibly reused) context; publish
	// only this run's delta to the registry.
	internH0, internM0, frozen0 := ctx.InternStats()
	t0 := time.Now()
	endCompose := o.Phase(0, "compose")
	comp := lpi.NewCompiler(spec, env)
	program, err := comp.Compile()
	endCompose()
	if err != nil {
		return nil, err
	}
	endVCGen := o.Phase(0, "vcgen")
	enc := gcl.NewEncoder(ctx)
	res := enc.Encode(program, nil)
	endVCGen()
	encodeTime := time.Since(t0)

	rep := &Report{
		Ctx:     ctx,
		Env:     env,
		Program: program,
		Result:  res,
		Stats: Stats{
			EncodeTime: encodeTime,
			GCLSize:    gcl.Size(program),
			Assertions: len(res.Violations),
		},
		hists: &runHists{},
	}
	if o != nil && o.Metrics != nil {
		// Structural coverage feed: which GCL statement kinds this program
		// compiled into, and how many of each (log2-bucketed downstream).
		for kind, n := range gcl.KindCounts(program) {
			o.Metrics.Counter(obs.CtrGCLStmtPrefix + kind).Add(int64(n))
		}
	}
	t1 := time.Now()
	endSolve := o.Phase(0, "solve")
	err = rep.check(opts)
	endSolve()
	rep.Stats.SolveTime = time.Since(t1)
	rep.Stats.TermNodes = ctx.NumTerms()
	rep.Holds = len(rep.Violations) == 0
	rep.Stats.Histograms = rep.hists.stats()
	if o != nil {
		rep.hists.mergeInto(o.Metrics)
	}
	if o != nil && o.Metrics != nil {
		h1, m1, f1 := ctx.InternStats()
		o.Metrics.Counter(obs.CtrSMTInternHits).Add(h1 - internH0)
		o.Metrics.Counter(obs.CtrSMTInternMisses).Add(m1 - internM0)
		o.Metrics.Counter(obs.CtrSMTFrozenLocks).Add(f1 - frozen0)
		o.Metrics.Gauge(obs.GaugeTermNodes).Set(int64(rep.Stats.TermNodes))
		o.Metrics.Gauge(obs.GaugeVerifyWorkers).Set(int64(rep.Stats.Workers))
	}
	return rep, err
}

// statusString renders a solver verdict for reports and logs.
func statusString(st smt.Status) string {
	switch st {
	case smt.Sat:
		return "sat"
	case smt.Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

func (rep *Report) check(opts Options) error {
	if !opts.FindAll {
		return rep.checkFirst(opts)
	}
	return rep.checkAll(opts)
}

// newSolver returns a checking solver over ctx in its fresh state, with
// the run's conflict budget and cancellation token installed. slot holds
// the caller's solver for reuse: a non-nil *slot is reset rather than
// replaced, so a run that checks many assertions keeps one solver's
// arrays and caches instead of regrowing them per check; a nil *slot gets
// a new solver. Every engine creates its checking solvers here, so Budget
// and Cancel reach all of them.
func (o Options) newSolver(ctx *smt.Ctx, slot **smt.Solver) *smt.Solver {
	s := *slot
	if s == nil {
		s = smt.NewSolver(ctx)
		*slot = s
	} else {
		s.Reset(ctx)
	}
	if o.Budget > 0 {
		s.SetBudget(o.Budget)
	}
	if o.Cancel != nil {
		s.SetCancel(o.Cancel)
	}
	return s
}

// checkOne is the find-all unit of work: check one condition on the
// worker's solver slot, reset to its fresh state, reading a model back
// when it is violated.
func (rep *Report) checkOne(opts Options, slot **smt.Solver, v *gcl.Violation, worker int) (st smt.Status, model *smt.Model, ss smt.SolverStats, cpu time.Duration) {
	solver := opts.newSolver(rep.Ctx, slot)
	installProgress(opts.Observer(), solver, v.Label, worker)
	t0 := time.Now()
	st = solver.Check(v.Cond)
	cpu = time.Since(t0)
	ss = solver.SolverStats()
	if st == smt.Sat {
		model = solver.Model()
		solver.ModelCollect(model, v.Cond)
	}
	return
}

// checkOut is one assertion's result slot in the find-all engine.
type checkOut struct {
	done   bool
	status smt.Status
	model  *smt.Model
	ss     smt.SolverStats
	cpu    time.Duration
}

// recordAssertion consumes one find-all verdict into the report: its cost
// joins the run totals and the PerAssertion breakdown, the "assertion"
// event is logged, and viol (non-nil iff st is Sat) joins the violations.
// An Unknown verdict logs "budget_exhausted" and returns ErrBudget, which
// ends the caller's in-order consume loop. The fresh engine and sessions
// both consume through here, so their reports agree row for row.
func (rep *Report) recordAssertion(o *obs.Obs, budget int64, label string, st smt.Status, ss smt.SolverStats, cpu time.Duration, viol *Violation) error {
	rep.Stats.SolveCPU += cpu
	rep.Stats.addSolver(ss)
	rep.Stats.PerAssertion = append(rep.Stats.PerAssertion, AssertionCost{
		Label:        label,
		Status:       statusString(st),
		SolveTime:    cpu,
		Conflicts:    ss.Conflicts,
		Decisions:    ss.Decisions,
		Propagations: ss.Propagations,
		Restarts:     ss.Restarts,
		CNFClauses:   ss.Clauses,
		SATVars:      ss.SATVars,
	})
	o.Event("assertion", map[string]any{
		"label": label, "status": statusString(st),
		"solve_us": cpu.Microseconds(), "conflicts": ss.Conflicts,
		"clauses": ss.Clauses,
	})
	if st == smt.Unknown {
		o.Event("budget_exhausted", map[string]any{"label": label, "budget": budget})
		return ErrBudget
	}
	if viol != nil {
		rep.Violations = append(rep.Violations, viol)
	}
	return nil
}

// checkFirst runs the §8.1 find-first mode: one query over the disjunction
// of all violation conditions ("checking all assertions together").
func (rep *Report) checkFirst(opts Options) error {
	ctx := rep.Ctx
	o := opts.Observer()
	var slot *smt.Solver
	solver := opts.newSolver(ctx, &slot)
	rep.Stats.Workers = 1

	disj := ctx.False()
	for _, v := range rep.Result.Violations {
		disj = ctx.Or(disj, v.Cond)
	}
	installProgress(o, solver, "all-assertions", 0)
	endSpan := o.Span(0, "solve:all-assertions")
	t0 := time.Now()
	st := solver.Check(disj)
	d0 := time.Since(t0)
	rep.Stats.SolveCPU += d0
	endSpan()
	ss := solver.SolverStats()
	rep.Stats.addSolver(ss)
	rep.recordCheck(o, "all-assertions", 0, ss, st, d0)
	o.Event("check_done", map[string]any{
		"mode": "find-first", "status": statusString(st),
		"conflicts": ss.Conflicts, "clauses": ss.Clauses,
	})
	if st == smt.Unknown {
		return ErrBudget
	}
	if st == smt.Unsat {
		return nil
	}
	m := solver.Model()
	solver.ModelCollect(m, disj)
	// Identify the first assertion the model violates.
	for _, v := range rep.Result.Violations {
		if m.Bool(v.Cond) {
			rep.Violations = append(rep.Violations, rep.makeViolation(v, m))
			return nil
		}
	}
	// The model satisfied the disjunction but the evaluator attributes it
	// to no single assertion (possible only through a blaster/evaluator
	// divergence). Re-check each assertion under the model's assignment
	// rather than emitting an unusable "unknown" violation, each on the
	// main query's solver reset to its fresh state.
	assignment := modelAssignment(ctx, m, disj)
	for _, v := range rep.Result.Violations {
		s2 := opts.newSolver(ctx, &slot)
		installProgress(o, s2, v.Label, 0)
		t1 := time.Now()
		st2 := s2.Check(ctx.And(assignment, v.Cond))
		d1 := time.Since(t1)
		rep.Stats.SolveCPU += d1
		ss2 := s2.SolverStats()
		rep.Stats.addSolver(ss2)
		rep.recordCheck(o, v.Label, 0, ss2, st2, d1)
		if st2 == smt.Sat {
			m2 := s2.Model()
			s2.ModelCollect(m2, v.Cond)
			rep.Violations = append(rep.Violations, rep.makeViolation(v, m2))
			return nil
		}
	}
	return fmt.Errorf("verify: find-first produced a model matching no assertion (solver/evaluator inconsistency)")
}

// modelAssignment renders m's assignment of the variables of t as a
// conjunction of equalities, for re-checking queries under a fixed model.
func modelAssignment(ctx *smt.Ctx, m *smt.Model, t *smt.Term) *smt.Term {
	cond := ctx.True()
	for _, v := range smt.Vars(t) {
		if v.Op == smt.OpBoolVar {
			cond = ctx.And(cond, ctx.Iff(v, ctx.Bool(m.Bool(v))))
		} else {
			cond = ctx.And(cond, ctx.Eq(v, ctx.BVBig(m.BV(v), v.Width)))
		}
	}
	return cond
}

// checkAll runs the §5.1/§8.1 find-all mode: every violation condition is
// checked independently. Checks fan out across a worker pool over the
// frozen term context; every assertion is checked on its worker's solver
// reset to its fresh state, blasting from the shared read-only DAG. A
// reset solver behaves exactly like a new one, so the report is
// byte-identical at every Parallel setting. Results are aggregated in
// assertion order.
func (rep *Report) checkAll(opts Options) error {
	conds := rep.Result.Violations
	n := len(conds)
	workers := opts.Workers()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	rep.Stats.Workers = workers
	o := opts.Observer()
	outs := make([]checkOut, n)
	// One solver slot per worker: 1..workers on the pool, 0 for the
	// inline consume loop, which runs only after the pool has drained.
	solvers := make([]*smt.Solver, workers+1)

	// limit is the lowest assertion index seen to exhaust the budget;
	// workers skip checks at or beyond it so every worker stops promptly.
	limit := int64(n)

	runCheck := func(worker, i int) {
		v := conds[i]
		endSpan := o.Span(worker, "solve:"+v.Label)
		out := &outs[i]
		out.status, out.model, out.ss, out.cpu = rep.checkOne(opts, &solvers[worker], v, worker)
		endSpan()
		rep.recordCheck(o, v.Label, worker, out.ss, out.status, out.cpu)
		out.done = true
	}

	if workers > 1 {
		// The context becomes shared read-only state; blasting and model
		// extraction never intern, and any stray term creation serializes.
		rep.Ctx.Freeze()
		if o != nil && o.Tracer != nil {
			o.Tracer.NameThread(0, "main")
			for w := 1; w <= workers; w++ {
				o.Tracer.NameThread(w, fmt.Sprintf("worker-%d", w))
			}
		}
		ForEachWorker(workers, n, func(worker, i int) {
			if int64(i) >= atomic.LoadInt64(&limit) {
				return
			}
			runCheck(worker, i)
			if outs[i].status == smt.Unknown {
				for {
					cur := atomic.LoadInt64(&limit)
					if int64(i) >= cur || atomic.CompareAndSwapInt64(&limit, cur, int64(i)) {
						break
					}
				}
			}
		})
	}

	// Consume results in assertion order; any check skipped by the early
	// stop (or by workers == 1, which skips the fan-out entirely) runs
	// inline here, so the consumed prefix is identical at every Parallel
	// setting: violations up to the first budget-exhausted check. Inline
	// re-runs use worker/tid 0 (the consume loop runs on the caller).
	for i, v := range conds {
		if !outs[i].done {
			runCheck(0, i)
		}
		out := &outs[i]
		var viol *Violation
		if out.status == smt.Sat {
			viol = rep.makeViolation(v, out.model)
		}
		if err := rep.recordAssertion(o, opts.Budget, v.Label, out.status, out.ss, out.cpu, viol); err != nil {
			return err
		}
	}
	return nil
}

func (rep *Report) makeViolation(v *gcl.Violation, m *smt.Model) *Violation {
	out := &Violation{Label: v.Label, Model: m, Cond: v.Cond}
	if info, ok := v.Meta.(*lpi.AssertionInfo); ok {
		out.Info = info
	}
	out.Cex = rep.renderCex(v.Cond, m)
	return out
}

// renderCex formats the assignment of the input variables mentioned in the
// violation condition.
func (rep *Report) renderCex(cond *smt.Term, m *smt.Model) string {
	vars := smt.Vars(cond)
	var lines []string
	for _, v := range vars {
		name := v.Name
		// Internal encoder variables are noise in reports.
		if strings.HasPrefix(name, "$enc.") || strings.HasPrefix(name, "choice!") ||
			strings.HasPrefix(name, "havoc$") || strings.Contains(name, "!") {
			continue
		}
		// The residual free value of a header field is its pre-parse
		// content, which is unobservable garbage — suppress it. (Its wire
		// image appears as pkt.<field> instead.)
		if rep.Env != nil && !strings.HasPrefix(name, "pkt.") && !strings.HasPrefix(name, "$") {
			if i := strings.LastIndex(name, "."); i > 0 {
				if inst := rep.Env.Prog.Instance(name[:i]); inst != nil && inst.IsHeader {
					continue
				}
			}
		}
		if v.Op == smt.OpBoolVar {
			lines = append(lines, fmt.Sprintf("%s = %v", name, m.Bool(v)))
		} else {
			lines = append(lines, fmt.Sprintf("%s = 0x%x", name, m.BV(v)))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// BlockedBehaviour names a table behaviour that participates in a
// violation found under any-entries verification (§2: "for the table
// entries potentially triggering bugs, the second case enables us to
// record these entries in a blocklist ahead of time, preventing them in
// runtime").
type BlockedBehaviour struct {
	Table string // fully qualified Control.table
	// Hit and ActionLAID are the free-choice values of the counterexample:
	// an entry making this table hit with this action on the
	// counterexample's packet would trigger the violation.
	Hit        bool
	ActionLAID uint64
	Assertion  string
}

// Blocklist extracts, for each violation, the wildcard-table behaviours of
// its counterexample. Only meaningful when the run had no snapshot (tables
// encoded as function variables).
func (rep *Report) Blocklist() []BlockedBehaviour {
	var out []BlockedBehaviour
	ctx := rep.Ctx
	for _, v := range rep.Violations {
		seen := map[string]bool{}
		for _, t := range smt.Vars(v.Cond) {
			name := t.Name
			if !strings.HasPrefix(name, "$tbl.") || !strings.HasSuffix(name, ".hit") {
				continue
			}
			fq := strings.TrimSuffix(strings.TrimPrefix(name, "$tbl."), ".hit")
			if seen[fq] {
				continue
			}
			seen[fq] = true
			out = append(out, BlockedBehaviour{
				Table:      fq,
				Hit:        v.Model.Bool(ctx.BoolVar("$tbl." + fq + ".hit")),
				ActionLAID: v.Model.Uint64(ctx.Var("$tbl."+fq+".laid", 16)),
				Assertion:  v.Label,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Assertion < out[j].Assertion
	})
	return out
}

// String renders a human-readable report.
func (rep *Report) String() string {
	var b strings.Builder
	if rep.Holds {
		fmt.Fprintf(&b, "verified: all %d assertions hold\n", rep.Stats.Assertions)
	} else {
		fmt.Fprintf(&b, "VIOLATED: %d of %d assertions\n", len(rep.Violations), rep.Stats.Assertions)
		for _, v := range rep.Violations {
			fmt.Fprintf(&b, "  assertion %s", v.Label)
			if v.Info != nil {
				fmt.Fprintf(&b, " (line %d: %s)", v.Info.Line, v.Info.Text)
			}
			b.WriteString("\n")
			for _, line := range strings.Split(v.Cex, "\n") {
				if line != "" {
					fmt.Fprintf(&b, "    %s\n", line)
				}
			}
		}
	}
	fmt.Fprintf(&b, "stats: encode %v, solve %v (cpu %v, %d workers), gcl %d stmts, %d terms, %d clauses, %d sat vars\n",
		rep.Stats.EncodeTime.Round(time.Millisecond), rep.Stats.SolveTime.Round(time.Millisecond),
		rep.Stats.SolveCPU.Round(time.Millisecond), rep.Stats.Workers,
		rep.Stats.GCLSize, rep.Stats.TermNodes, rep.Stats.CNFClauses, rep.Stats.SATVars)
	fmt.Fprintf(&b, "sat:   %d conflicts, %d decisions, %d propagations, %d restarts, %d learnt clauses (%d literals)\n",
		rep.Stats.Conflicts, rep.Stats.Decisions, rep.Stats.Propagations,
		rep.Stats.Restarts, rep.Stats.LearntClauses, rep.Stats.LearntLits)
	if rep.Stats.SliceConjuncts > 0 {
		fmt.Fprintf(&b, "slice: %d of %d VC conjuncts dropped\n",
			rep.Stats.SliceDropped, rep.Stats.SliceConjuncts)
	}
	if rep.Stats.DeltaReuse+rep.Stats.DeltaRecheck > 0 {
		fmt.Fprintf(&b, "delta: %d verdicts replayed, %d rechecked\n",
			rep.Stats.DeltaReuse, rep.Stats.DeltaRecheck)
	}
	return b.String()
}

// JSONReport is the machine-readable form of a Report, for CI pipelines
// that gate deployments on verification (the §9 "usage phase" workflow:
// checking data planes during service runtime and before updates).
type JSONReport struct {
	Holds      bool            `json:"holds"`
	Assertions int             `json:"assertions"`
	Violations []JSONViolation `json:"violations,omitempty"`
	Stats      JSONStats       `json:"stats"`
	// PerAssertion is the find-all per-assertion cost breakdown (Figure 11
	// data); absent in find-first mode.
	PerAssertion []JSONAssertionCost `json:"per_assertion,omitempty"`
}

// JSONViolation is one violated assertion.
type JSONViolation struct {
	Label          string            `json:"label"`
	Block          string            `json:"block,omitempty"`
	Line           int               `json:"line,omitempty"`
	Text           string            `json:"text,omitempty"`
	Counterexample map[string]string `json:"counterexample,omitempty"`
}

// JSONStats carries the cost metrics.
type JSONStats struct {
	EncodeMS      int64 `json:"encode_ms"`
	SolveMS       int64 `json:"solve_ms"`
	SolveCPUMS    int64 `json:"solve_cpu_ms"`
	GCLSize       int   `json:"gcl_size"`
	TermNodes     int   `json:"term_nodes"`
	CNFClauses    int   `json:"cnf_clauses"`
	SATVars       int   `json:"sat_vars"`
	Conflicts     int64 `json:"conflicts"`
	Decisions     int64 `json:"decisions"`
	Propagations  int64 `json:"propagations"`
	Restarts      int64 `json:"restarts"`
	LearntClauses int64 `json:"learnt_clauses"`
	LearntLits    int64 `json:"learnt_literals"`

	// Blast and learnt-database extras (absent in canonical reports).
	TseitinClauses int64 `json:"tseitin_clauses,omitempty"`
	BlastHits      int64 `json:"blast_cache_hits,omitempty"`
	LearntDeleted  int64 `json:"learnt_deleted,omitempty"`

	// Slicing extras (absent outside sessions and in canonical reports).
	SliceConjuncts int64 `json:"slice_conjuncts,omitempty"`
	SliceDropped   int64 `json:"slice_dropped,omitempty"`

	// Session-engine extras (absent outside Session.Apply reports and in
	// canonical reports).
	DeltaReuse   int64 `json:"delta_reuse,omitempty"`
	DeltaRecheck int64 `json:"delta_recheck,omitempty"`

	// Flight-recorder histograms (absent in canonical reports).
	Histograms []JSONHistogram `json:"histograms,omitempty"`
}

// JSONHistogram is one flight-recorder distribution: log2 buckets
// (bucket i counts values v with 2^(i-1) <= v < 2^i; bucket 0 is
// v <= 0), trimmed to the highest non-empty bucket.
type JSONHistogram struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// JSONAssertionCost is one assertion's row in the per-assertion breakdown.
// Times are microseconds (solve_us) for resolution on small formulas.
type JSONAssertionCost struct {
	Label        string `json:"label"`
	Status       string `json:"status"`
	SolveUS      int64  `json:"solve_us"`
	Conflicts    int64  `json:"conflicts"`
	Decisions    int64  `json:"decisions"`
	Propagations int64  `json:"propagations"`
	Restarts     int64  `json:"restarts"`
	CNFClauses   int    `json:"cnf_clauses"`
	SATVars      int    `json:"sat_vars"`
}

// JSON renders the report for machine consumption.
func (rep *Report) JSON() ([]byte, error) {
	out := JSONReport{
		Holds:      rep.Holds,
		Assertions: rep.Stats.Assertions,
		Stats: JSONStats{
			EncodeMS:      rep.Stats.EncodeTime.Milliseconds(),
			SolveMS:       rep.Stats.SolveTime.Milliseconds(),
			SolveCPUMS:    rep.Stats.SolveCPU.Milliseconds(),
			GCLSize:       rep.Stats.GCLSize,
			TermNodes:     rep.Stats.TermNodes,
			CNFClauses:    rep.Stats.CNFClauses,
			SATVars:       rep.Stats.SATVars,
			Conflicts:     rep.Stats.Conflicts,
			Decisions:     rep.Stats.Decisions,
			Propagations:  rep.Stats.Propagations,
			Restarts:      rep.Stats.Restarts,
			LearntClauses: rep.Stats.LearntClauses,
			LearntLits:    rep.Stats.LearntLits,

			TseitinClauses: rep.Stats.TseitinClauses,
			BlastHits:      rep.Stats.BlastHits,
			LearntDeleted:  rep.Stats.LearntDeleted,

			SliceConjuncts: rep.Stats.SliceConjuncts,
			SliceDropped:   rep.Stats.SliceDropped,

			DeltaReuse:   rep.Stats.DeltaReuse,
			DeltaRecheck: rep.Stats.DeltaRecheck,
		},
	}
	for _, h := range rep.Stats.Histograms {
		out.Stats.Histograms = append(out.Stats.Histograms, JSONHistogram{
			Name: h.Name, Count: h.Count, Sum: h.Sum, Buckets: h.Buckets,
		})
	}
	for _, a := range rep.Stats.PerAssertion {
		out.PerAssertion = append(out.PerAssertion, JSONAssertionCost{
			Label:        a.Label,
			Status:       a.Status,
			SolveUS:      a.SolveTime.Microseconds(),
			Conflicts:    a.Conflicts,
			Decisions:    a.Decisions,
			Propagations: a.Propagations,
			Restarts:     a.Restarts,
			CNFClauses:   a.CNFClauses,
			SATVars:      a.SATVars,
		})
	}
	for _, v := range rep.Violations {
		jv := JSONViolation{Label: v.Label, Counterexample: map[string]string{}}
		if v.Info != nil {
			jv.Block, jv.Line, jv.Text = v.Info.Block, v.Info.Line, v.Info.Text
		}
		for _, line := range strings.Split(v.Cex, "\n") {
			if name, val, ok := strings.Cut(line, " = "); ok {
				jv.Counterexample[name] = val
			}
		}
		out.Violations = append(out.Violations, jv)
	}
	return json.MarshalIndent(out, "", "  ")
}

// CanonicalJSON renders the report with every cost-dependent field zeroed:
// wall-clock times, SAT search counters, CNF/term sizes, and the
// per-assertion cost columns (labels and statuses are kept). What remains
// — verdict, violations, counterexamples, assertion labels and statuses,
// GCL size — is the *semantic* outcome of verification, which is
// deterministic across runs, across Parallel settings, with or without
// observability sinks, and (the shared-solver contract) identical between
// the fresh engine and sessions: two canonical reports of the same
// verification problem compare byte-for-byte. Cost counters are
// deliberately excluded because the session's warm solver changes them
// — that is the optimization, not a behavioural difference; the raw
// JSON() report keeps them all.
func (rep *Report) CanonicalJSON() ([]byte, error) {
	canon := *rep
	canon.Stats.EncodeTime = 0
	canon.Stats.SolveTime = 0
	canon.Stats.SolveCPU = 0
	canon.Stats.TermNodes = 0
	canon.Stats.CNFClauses = 0
	canon.Stats.SATVars = 0
	canon.Stats.Conflicts = 0
	canon.Stats.Decisions = 0
	canon.Stats.Propagations = 0
	canon.Stats.Restarts = 0
	canon.Stats.LearntClauses = 0
	canon.Stats.LearntLits = 0
	canon.Stats.LearntDeleted = 0
	canon.Stats.TseitinClauses = 0
	canon.Stats.BlastHits = 0
	canon.Stats.SliceConjuncts = 0
	canon.Stats.SliceDropped = 0
	canon.Stats.DeltaReuse = 0
	canon.Stats.DeltaRecheck = 0
	canon.Stats.Histograms = nil
	if len(canon.Stats.PerAssertion) > 0 {
		pa := make([]AssertionCost, len(canon.Stats.PerAssertion))
		for i, a := range canon.Stats.PerAssertion {
			pa[i] = AssertionCost{Label: a.Label, Status: a.Status}
		}
		canon.Stats.PerAssertion = pa
	}
	return canon.JSON()
}
