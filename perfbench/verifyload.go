package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"aquila"
	"aquila/internal/encode"
	"aquila/internal/gcl"
	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/p4"
	"aquila/internal/progs"
	"aquila/internal/smt"
	"aquila/internal/tables"
	"aquila/internal/verify"
)

//go:embed known_answers.json
var knownAnswersJSON []byte

// knownAnswers are the hand-written expected violations of each corpus
// program: spec items, in the inferred spec's text form.
type knownAnswers struct {
	Corpus map[string][]string `json:"corpus"`
}

func loadKnownAnswers() (*knownAnswers, error) {
	var ka knownAnswers
	if err := json.Unmarshal(knownAnswersJSON, &ka); err != nil {
		return nil, fmt.Errorf("known_answers.json: %w", err)
	}
	return &ka, nil
}

// opts is the configuration every verification uses: what `aquila -all`
// runs, library defaults plus FindAll.
var opts = aquila.Options{FindAll: true}

// verifyCase is one verification problem as text, with its known answer.
type verifyCase struct {
	Row     string // program name
	P4      string
	Spec    string
	Entries string // snapshot text; "" verifies under any entries
	// Want is the expected verdict: the labels of the violated
	// assertions (none: the spec holds) out of Assertions.
	Want       []string
	Assertions int
}

// specItems returns the assertion items of a spec text in order; item i
// carries the label "<block>#i".
func specItems(spec string) []string {
	var items []string
	for _, ln := range strings.Split(spec, "\n") {
		if strings.Contains(ln, "applied(") {
			items = append(items, strings.TrimSpace(ln))
		}
	}
	return items
}

// corpusCases builds the seven corpus problems under their inferred
// invalid-header specs, with the known answers attached.
func corpusCases() ([]*verifyCase, error) {
	ka, err := loadKnownAnswers()
	if err != nil {
		return nil, err
	}
	bms := append(progs.HandWrittenSuite(), progs.DCGatewayBench(), progs.SkewedBench())
	var cases []*verifyCase
	for _, bm := range bms {
		prog, err := aquila.ParseProgram(bm.Name, bm.Source)
		if err != nil {
			return nil, err
		}
		spec, _, err := aquila.InferUndefinedBehaviorSpec(prog, bm.Calls)
		if err != nil {
			return nil, err
		}
		want, ok := ka.Corpus[bm.Name]
		if !ok {
			return nil, fmt.Errorf("known_answers.json: no entry for %q", bm.Name)
		}
		c := &verifyCase{Row: bm.Name, P4: bm.Source, Spec: spec}
		items := specItems(spec)
		c.Assertions = len(items)
		for _, w := range want {
			i := indexOf(items, w)
			if i < 0 {
				return nil, fmt.Errorf("known_answers.json: %q: %q is not an item of its spec", bm.Name, w)
			}
			c.Want = append(c.Want, fmt.Sprintf("no_invalid_access#%d", i))
		}
		cases = append(cases, c)
	}
	return cases, nil
}

func indexOf(items []string, s string) int {
	for i, it := range items {
		if it == s {
			return i
		}
	}
	return -1
}

// bigtableEntries is the installed-entry count of the bigtable workload.
const bigtableEntries = 20_000

// bigtableCase builds the Figure 11b problem: the big-table program, a
// snapshot of n distinct seeded exact keys with seeded big_set arguments,
// and a lookup spec whose destination is one of the installed keys, so
// the spec holds by construction.
func bigtableCase(seed int64, n int) *verifyCase {
	cfg := genprog.SwitchT("small")
	cfg.TTLChain = false
	bm := genprog.Assemble(cfg)
	rng := rand.New(rand.NewSource(seed))
	keys := map[uint32]bool{}
	var b strings.Builder
	fmt.Fprintf(&b, "table %s_C0.big_tbl {\n", cfg.Name)
	var dst uint32
	target := rng.Intn(n)
	for i := 0; i < n; i++ {
		k := rng.Uint32()
		for keys[k] {
			k = rng.Uint32()
		}
		keys[k] = true
		if i == target {
			dst = k
		}
		fmt.Fprintf(&b, "  %d -> big_set(%d, %d)\n", k, rng.Intn(512), rng.Intn(65536))
	}
	b.WriteString("}\n")
	return &verifyCase{
		Row:        "big table",
		P4:         bm.Source,
		Spec:       genprog.BigTableSpec(cfg, bm.Calls, uint64(dst), 0),
		Entries:    b.String(),
		Assertions: 1,
	}
}

// verifyTimes splits one operation's wall time.
type verifyTimes struct{ total, verify time.Duration }

// verifyOnce is one operation: P4 and LPI text (and snapshot text) to a
// rendered JSON report, through the public API.
func verifyOnce(c *verifyCase) (*aquila.Report, []byte, verifyTimes, error) {
	t0 := time.Now()
	prog, err := aquila.ParseProgram(c.Row, c.P4)
	if err != nil {
		return nil, nil, verifyTimes{}, err
	}
	spec, err := aquila.ParseSpec(c.Spec)
	if err != nil {
		return nil, nil, verifyTimes{}, err
	}
	var snap *aquila.Snapshot
	if c.Entries != "" {
		if snap, err = aquila.ParseSnapshot(c.Entries); err != nil {
			return nil, nil, verifyTimes{}, err
		}
	}
	t1 := time.Now()
	rep, err := aquila.Verify(prog, snap, spec, opts)
	if err != nil {
		return nil, nil, verifyTimes{}, err
	}
	t2 := time.Now()
	js, err := rep.JSON()
	if err != nil {
		return nil, nil, verifyTimes{}, err
	}
	return rep, js, verifyTimes{total: time.Since(t0), verify: t2.Sub(t1)}, nil
}

// checkReport compares a rendered report with the case's known answer:
// the verdict, the assertion count, the violated labels, and a
// counterexample for each violation.
func checkReport(c *verifyCase, js []byte) error {
	var got struct {
		Holds      bool `json:"holds"`
		Assertions int  `json:"assertions"`
		Violations []struct {
			Label          string            `json:"label"`
			Counterexample map[string]string `json:"counterexample"`
		} `json:"violations"`
	}
	if err := json.Unmarshal(js, &got); err != nil {
		return fmt.Errorf("%s: report: %w", c.Row, err)
	}
	var labels []string
	for _, v := range got.Violations {
		labels = append(labels, v.Label)
		if len(v.Counterexample) == 0 {
			return fmt.Errorf("%s: violation %s has no counterexample", c.Row, v.Label)
		}
	}
	want := append([]string(nil), c.Want...)
	sort.Strings(labels)
	sort.Strings(want)
	if got.Holds != (len(want) == 0) || got.Assertions != c.Assertions ||
		strings.Join(labels, ",") != strings.Join(want, ",") {
		return fmt.Errorf("%s: got holds=%v assertions=%d violated=%v, want assertions=%d violated=%v",
			c.Row, got.Holds, got.Assertions, labels, c.Assertions, want)
	}
	return nil
}

// verifyWorkload is a sequence of verification operations.
type verifyWorkload struct {
	cases []*verifyCase
	next  func() *verifyCase
}

// runCorpus cycles over the seven corpus programs, each cycle in a
// seeded order.
func runCorpus(cfg config) (*outcome, error) {
	return runVerify(cfg, func() (*verifyWorkload, error) {
		cases, err := corpusCases()
		if err != nil {
			return nil, err
		}
		return &verifyWorkload{cases: cases, next: cycle(cfg.Seed, cases)}, nil
	})
}

// cycle returns the cases in seeded order, a fresh permutation per pass.
func cycle(seed int64, cases []*verifyCase) func() *verifyCase {
	rng := rand.New(rand.NewSource(seed))
	var order []int
	return func() *verifyCase {
		if len(order) == 0 {
			order = rng.Perm(len(cases))
		}
		c := cases[order[0]]
		order = order[1:]
		return c
	}
}

// runBigtable verifies the big-table program against a freshly parsed
// snapshot on every operation.
func runBigtable(cfg config) (*outcome, error) {
	return runVerify(cfg, func() (*verifyWorkload, error) {
		c := bigtableCase(cfg.Seed, bigtableEntries)
		return &verifyWorkload{cases: []*verifyCase{c}, next: func() *verifyCase { return c }}, nil
	})
}

// runVerify sets a verification workload up (input generation and one
// checked warm-up pass over its cases), then runs the closed loop.
func runVerify(cfg config, gen func() (*verifyWorkload, error)) (*outcome, error) {
	oc := &outcome{}
	reps := setupReps
	if cfg.Traced {
		reps = 1
	}
	var w *verifyWorkload
	for r := 0; r < reps; r++ {
		var err error
		wall, cpu := measure(func() {
			if w, err = gen(); err != nil {
				return
			}
			for _, c := range w.cases {
				runtime.GC()
				var js []byte
				if _, js, _, err = verifyOnce(c); err == nil {
					err = checkReport(c, js)
				}
				if err != nil {
					err = fmt.Errorf("warm-up: %w", err)
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}
		oc.setups = append(oc.setups, cpu)
		oc.setupWall = append(oc.setupWall, wall)
	}
	if cfg.Traced {
		return runVerifyTraced(cfg, w, oc)
	}
	start := time.Now()
	for oc.attempted == 0 || time.Since(start) < cfg.Seconds {
		c := w.next()
		// Each operation starts from a collected heap, as in a fresh
		// `aquila` process, so no operation pays for an earlier one's
		// garbage and the peak RSS does not depend on when the collector
		// happened to run.
		runtime.GC()
		oc.attempted++
		var js []byte
		var err error
		wall, cpu := measure(func() { _, js, _, err = verifyOnce(c) })
		if err == nil {
			err = checkReport(c, js)
		}
		if err != nil {
			oc.fail(err)
			continue
		}
		oc.wall = append(oc.wall, wall)
		oc.cpu = append(oc.cpu, cpu)
		oc.rows = append(oc.rows, c.Row)
	}
	oc.peakRSS = peakRSSMB()
	return oc, nil
}

// runVerifyTraced runs each operation twice: once untraced through the
// public API (its report is the reference), then decomposed into the
// pipeline's layers with a span around every call. The decomposed counts
// must equal the reference report's Stats, or the per-layer figures no
// longer describe the shipped engine and the operation fails.
func runVerifyTraced(cfg config, w *verifyWorkload, oc *outcome) (*outcome, error) {
	oc.rec = newRecorder()
	acc := newLayerAcc()
	oc.layers = acc
	var rows []string
	var walls []time.Duration
	var untracedSum, tracedSum time.Duration
	start := time.Now()
	for oc.attempted == 0 || time.Since(start) < cfg.Seconds {
		c := w.next()
		oc.attempted++
		runtime.GC()
		var rep *aquila.Report
		var js []byte
		var tm verifyTimes
		var err error
		acc.untraced(func() { rep, js, tm, err = verifyOnce(c) })
		if err == nil {
			err = checkReport(c, js)
		}
		if err != nil {
			oc.fail(err)
			continue
		}
		runtime.GC()
		opID := oc.rec.begin("op", acc.ops, -1, 0)
		d, err := decompose(oc.rec, acc.ops, opID, c)
		if err == nil {
			sp := oc.rec.begin("verify.render", acc.ops, opID, 0)
			var out []byte
			out, err = rep.JSON()
			oc.rec.end(sp)
			d.reportBytes = len(out)
		}
		oc.rec.end(opID)
		if err == nil {
			err = d.matches(c.Row, rep)
		}
		if err != nil {
			oc.fail(err)
			continue
		}
		acc.ops++
		untracedSum += tm.total
		tracedSum += oc.rec.wall(opID)
		rows = append(rows, c.Row)
		walls = append(walls, tm.total)
		d.addTo(acc)
		st := rep.Stats
		acc.add("verify.run_ms", ms(tm.verify))
		acc.add("verify.solve_wall_ms", ms(st.SolveTime))
		acc.add("verify.solve_cpu_ms", ms(st.SolveCPU))
		acc.add("verify.workers", float64(st.Workers))
		if st.SolveTime > 0 && st.Workers > 0 {
			acc.add("verify.parallel_eff", float64(st.SolveCPU)/(float64(st.SolveTime)*float64(st.Workers)))
		}
		acc.add("verify.tseitin_clauses", float64(st.TseitinClauses))
		acc.add("verify.slice_dropped", float64(st.SliceDropped))
	}
	acc.addSpans(oc.rec)
	acc.finish()
	if acc.ops > 0 {
		acc.set["trace.overhead_ms"] = ms(tracedSum-untracedSum) / float64(acc.ops)
		oc.note("traced op mean %.3f ms, untraced op mean %.3f ms over %d operations",
			ms(tracedSum)/float64(acc.ops), ms(untracedSum)/float64(acc.ops), acc.ops)
	}
	if cfg.Workload == "corpus" {
		_, by := byRow(rows, walls)
		for _, r := range corpusRows {
			if ts := by[r.Program]; len(ts) > 0 {
				acc.set["corpus."+r.Key+".ms"] = ms(percentile(ts, 50))
			}
		}
		acc.set["corpus.geomean_ms"] = rowGeomean(rows, walls, 50)
	}
	return oc, nil
}

// decomposed is what the layer-by-layer pipeline produced for one
// operation.
type decomposed struct {
	entries, encodeTerms, gclTerms, terms, gclSize, assertions int
	violated                                                   []string
	satVars, clauses                                           int
	conflicts, decisions, propagations, tseitin                int64
	reportBytes                                                int
}

// decompose runs one verification layer by layer, the way verify.Run
// runs it under opts: parse, compile the LPI program block over a lazy
// encoding environment, generate verification conditions, then check
// each assertion with its own fresh solver on GOMAXPROCS workers over
// the frozen term context, blasting it to CNF, searching, and reading a
// model back when it is violated.
func decompose(rec *recorder, op, parent int, c *verifyCase) (*decomposed, error) {
	d := &decomposed{}
	sp := rec.begin("p4.parse", op, parent, 0)
	prog, err := p4.ParseAndCheck(c.Row, c.P4)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("lpi.parse", op, parent, 0)
	spec, err := lpi.Parse(c.Spec)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	var snap *tables.Snapshot
	if c.Entries != "" {
		sp = rec.begin("tables.parse", op, parent, 0)
		snap, err = tables.ParseSnapshot(c.Entries)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		d.entries = snap.NumEntries()
	}

	sp = rec.begin("lpi.compile", op, parent, 0)
	ctx := smt.NewCtx()
	eopts := encode.Options{TrackModified: lpi.TrackModified(spec)}
	env := encode.NewEnv(ctx, prog, snap, eopts)
	program, err := lpi.NewCompiler(spec, env).Compile()
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	d.encodeTerms = ctx.NumTerms()

	sp = rec.begin("gcl.vcgen", op, parent, 0)
	res := gcl.NewEncoder(ctx).Encode(program, nil)
	rec.end(sp)
	d.gclTerms = ctx.NumTerms()
	d.gclSize = gcl.Size(program)

	conds := res.Violations
	d.assertions = len(conds)
	type slot struct {
		status smt.Status
		ss     smt.SolverStats
	}
	slots := make([]slot, len(conds))
	workers := min(runtime.GOMAXPROCS(0), len(conds))
	solveID := rec.begin("solve", op, parent, 0)
	if workers > 1 {
		ctx.Freeze()
	}
	verify.ForEachWorker(workers, len(conds), func(worker, i int) {
		v := conds[i]
		check := rec.begin("solve:"+v.Label, op, solveID, worker)
		sp := rec.begin("smt.blast", op, check, worker)
		s := smt.NewSolver(ctx)
		lit := s.Indicator(v.Cond)
		rec.end(sp)
		sp = rec.begin("sat.search", op, check, worker)
		st := s.CheckLits(lit)
		rec.end(sp)
		if st == smt.Sat {
			sp = rec.begin("smt.model", op, check, worker)
			m := s.Model()
			s.ModelCollect(m, v.Cond)
			rec.end(sp)
		}
		rec.end(check)
		slots[i] = slot{st, s.SolverStats()}
	})
	rec.end(solveID)
	for i, s := range slots {
		switch s.status {
		case smt.Sat:
			d.violated = append(d.violated, conds[i].Label)
		case smt.Unknown:
			return nil, fmt.Errorf("%s: %s: solver returned unknown", c.Row, conds[i].Label)
		}
		d.satVars += s.ss.SATVars
		d.clauses += s.ss.Clauses
		d.conflicts += s.ss.Conflicts
		d.decisions += s.ss.Decisions
		d.propagations += s.ss.Propagations
		d.tseitin += s.ss.TseitinClauses
	}
	d.terms = ctx.NumTerms()
	return d, nil
}

// matches checks the decomposed pipeline against the shipped engine's
// report on the same input.
func (d *decomposed) matches(row string, rep *aquila.Report) error {
	var labels []string
	for _, v := range rep.Violations {
		labels = append(labels, v.Label)
	}
	st := rep.Stats
	type pair struct {
		name      string
		got, want int64
	}
	for _, p := range []pair{
		{"violations", int64(len(d.violated)), int64(len(labels))},
		{"assertions", int64(d.assertions), int64(st.Assertions)},
		{"gcl size", int64(d.gclSize), int64(st.GCLSize)},
		{"terms", int64(d.terms), int64(st.TermNodes)},
		{"sat vars", int64(d.satVars), int64(st.SATVars)},
		{"clauses", int64(d.clauses), int64(st.CNFClauses)},
		{"conflicts", d.conflicts, st.Conflicts},
		{"decisions", d.decisions, st.Decisions},
		{"propagations", d.propagations, st.Propagations},
		{"tseitin clauses", d.tseitin, st.TseitinClauses},
	} {
		if p.got != p.want {
			return fmt.Errorf("%s: decomposed pipeline diverges from verify.Run: %s %d, report says %d",
				row, p.name, p.got, p.want)
		}
	}
	if strings.Join(d.violated, ",") != strings.Join(labels, ",") {
		return fmt.Errorf("%s: decomposed pipeline violates %v, verify.Run %v", row, d.violated, labels)
	}
	return nil
}

// addTo adds the operation's layer counts to the run's sums.
func (d *decomposed) addTo(acc *layerAcc) {
	acc.add("tables.entries", float64(d.entries))
	acc.add("encode.terms", float64(d.encodeTerms))
	acc.add("gcl.terms", float64(d.gclTerms))
	acc.add("gcl.size", float64(d.gclSize))
	acc.add("gcl.assertions", float64(d.assertions))
	acc.add("smt.sat_vars", float64(d.satVars))
	acc.add("smt.clauses", float64(d.clauses))
	acc.add("sat.conflicts", float64(d.conflicts))
	acc.add("sat.decisions", float64(d.decisions))
	acc.add("sat.propagations", float64(d.propagations))
	acc.add("verify.report_bytes", float64(d.reportBytes))
}
