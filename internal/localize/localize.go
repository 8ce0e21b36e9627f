// Package localize implements Aquila's automatic bug localization (§5 of
// the paper): given a violated specification it narrows down suspects and
// pinpoints culprits by simulating fixes.
//
// The algorithm follows the paper:
//
//  1. Find the violated assertions and a counterexample; freeze the input
//     packet to the counterexample values (§5.1, "preparation").
//  2. Table-entry localization: re-encode every table as
//     ite(rep_i, fv_i, entries_i) and solve MAXSAT_i ¬rep_i under the
//     constraint that all assertions hold — a satisfying assignment names
//     the minimal set of tables whose entries can fix the violation.
//  3. Otherwise the bug is in the data-plane program: backward taint
//     analysis over the violated assertion's variables yields suspect
//     actions; a causality filter keeps only actions the violation
//     implies executed; and a havoc-based fix simulation (inserting an
//     arbitrary-value assignment after each suspect) pinpoints the
//     locations whose change can repair the program — which also catches
//     statement-missing bugs (Figure 4).
package localize

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
	"time"

	"aquila/internal/encode"
	"aquila/internal/gcl"
	"aquila/internal/lpi"
	"aquila/internal/p4"
	"aquila/internal/smt"
	"aquila/internal/tables"
	"aquila/internal/verify"
)

// Kind classifies a localization outcome.
type Kind int

// Localization outcomes.
const (
	// KindNone means the specification holds; there is nothing to locate.
	KindNone Kind = iota
	// KindTableEntry means replacing entries of the reported tables fixes
	// the violation.
	KindTableEntry
	// KindProgram means the bug is in the data-plane program; Candidates
	// lists the suspect (action, variable) locations.
	KindProgram
)

// Candidate is a potential program bug location: changing (or adding) an
// assignment to Var at the end of action Control.Action can fix the
// violated assertion.
type Candidate struct {
	Control string
	Action  string
	Var     string // "inst.field" whose havoc fixes the violation
	Line    int    // source line of the action's last statement (best effort)
}

func (c Candidate) String() string {
	return fmt.Sprintf("%s.%s (variable %s)", c.Control, c.Action, c.Var)
}

// Result is the outcome of a localization run.
type Result struct {
	Kind Kind
	// Violated lists the labels of violated assertions.
	Violated []string
	// Tables lists the minimal suspect tables for KindTableEntry.
	Tables []string
	// SuggestedEntries renders, per suspect table, a concrete entry
	// behaviour found by the solver (action id and hit condition) that
	// repairs the violation on the frozen input.
	SuggestedEntries map[string]string
	// Candidates lists suspect locations for KindProgram.
	Candidates []Candidate
	// Pool is the total number of (action, variable) locations considered
	// before filtering — the denominator of Table 4's precision metric.
	Pool int
	Time time.Duration
}

// Options configures localization.
type Options struct {
	Verify verify.Options
}

// Localize runs the full §5 pipeline.
func Localize(prog *p4.Program, snap *tables.Snapshot, spec *lpi.Spec, opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{SuggestedEntries: map[string]string{}}
	o := opts.Verify.Observer()

	// Step 1: find violated assertions + counterexample (§5.1).
	vopts := opts.Verify
	vopts.FindAll = true
	vopts.Encode.TrackFired = true
	endFind := o.Phase(0, "localize:find-violations")
	baseRep, err := verify.Run(prog, snap, spec, vopts)
	endFind()
	if err != nil {
		return nil, err
	}
	if baseRep.Holds {
		res.Kind = KindNone
		res.Time = time.Since(start)
		return res, nil
	}
	for _, v := range baseRep.Violations {
		res.Violated = append(res.Violated, v.Label)
	}
	frozen := freezeInput(baseRep)

	// Step 2: table-entry localization (only meaningful with a snapshot).
	if snap != nil && snap.NumEntries() > 0 {
		endTbl := o.Phase(0, "localize:table-entries")
		tbls, suggested, ok, err := locateTableEntries(prog, snap, spec, vopts, frozen)
		endTbl()
		if err != nil {
			return nil, err
		}
		if ok && len(tbls) > 0 {
			res.Kind = KindTableEntry
			res.Tables = tbls
			res.SuggestedEntries = suggested
			res.Time = time.Since(start)
			o.Event("localize_done", map[string]any{
				"kind": "table-entry", "tables": len(tbls),
			})
			return res, nil
		}
	}

	// Step 3: the bug is in the data plane program. The fix simulation
	// freezes the counterexample's table behaviours too (§5.2
	// preparation: "we record the actions that the counterexample
	// triggers"), so only the injected havoc can repair the run.
	res.Kind = KindProgram
	frozenAll := freeze(baseRep, true)
	res.Candidates, res.Pool, err = locateProgramBug(prog, snap, spec, vopts, frozenAll, baseRep)
	if err != nil {
		return nil, err
	}
	res.Time = time.Since(start)
	o.Event("localize_done", map[string]any{
		"kind": "program", "candidates": len(res.Candidates), "pool": res.Pool,
	})
	return res, nil
}

// frozenVar is a (name, width, value) triple freezing one input variable;
// width 0 denotes a boolean.
type frozenVar struct {
	name    string
	width   int
	val     *big.Int
	boolVal bool
}

// freezeInput extracts the counterexample's assignment of every free input
// variable — packet images, order sequence, initial metadata and register
// values, hash outcomes. Per §5.2's preparation step this removes the
// input from the search space, so the only remaining freedom during repair
// is the table function variables (which are excluded here).
func freezeInput(rep *verify.Report) []frozenVar { return freeze(rep, false) }

// freeze extracts the counterexample assignment. withTableChoices also
// freezes the wildcard-table free choices — used by the program-bug phase,
// where the paper "records the actions that the counterexample triggers";
// the entry-repair phase leaves them free because they are exactly what it
// re-solves for.
func freeze(rep *verify.Report, withTableChoices bool) []frozenVar {
	seen := map[string]bool{}
	var out []frozenVar
	for _, v := range rep.Violations {
		for _, t := range smt.Vars(v.Cond) {
			if seen[t.Name] {
				continue
			}
			// Exclude the VC generator's internal fresh variables, and
			// (unless requested) the table function variables.
			if strings.HasPrefix(t.Name, "$rep.") || strings.Contains(t.Name, "!") {
				continue
			}
			if !withTableChoices && strings.HasPrefix(t.Name, "$tbl.") {
				continue
			}
			seen[t.Name] = true
			if t.Op == smt.OpBoolVar {
				out = append(out, frozenVar{name: t.Name, boolVal: v.Model.Bool(t)})
			} else {
				out = append(out, frozenVar{name: t.Name, width: t.Width, val: v.Model.BV(t)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func frozenTerm(ctx *smt.Ctx, frozen []frozenVar) *smt.Term {
	cond := ctx.True()
	for _, f := range frozen {
		if f.width == 0 && f.val == nil {
			cond = ctx.And(cond, ctx.Iff(ctx.BoolVar(f.name), ctx.Bool(f.boolVal)))
			continue
		}
		cond = ctx.And(cond, ctx.Eq(ctx.Var(f.name, f.width), ctx.BVBig(f.val, f.width)))
	}
	return cond
}

// locateTableEntries re-encodes with table replacement indicators and
// solves MAXSAT over ¬rep_i (§5.2).
func locateTableEntries(prog *p4.Program, snap *tables.Snapshot, spec *lpi.Spec,
	vopts verify.Options, frozen []frozenVar) ([]string, map[string]string, bool, error) {
	ctx := smt.NewCtx()
	eopts := vopts.Encode
	eopts.TrackModified = lpi.TrackModified(spec)
	eopts.RepairTables = true
	env := encode.NewEnv(ctx, prog, snap, eopts)
	comp := lpi.NewCompiler(spec, env)
	program, err := comp.Compile()
	if err != nil {
		return nil, nil, false, err
	}
	enc := gcl.NewEncoder(ctx)
	encRes := enc.Encode(program, nil)

	solver := smt.NewSolver(ctx)
	if vopts.Budget > 0 {
		solver.SetBudget(vopts.Budget)
	}
	solver.Assert(frozenTerm(ctx, frozen))
	// All assertions must hold after the repair.
	for _, v := range encRes.Violations {
		solver.Assert(ctx.Not(v.Cond))
	}
	// Soft constraints: keep as many tables unreplaced as possible.
	var softTables []string
	var soft []*smt.Term
	for _, ctlName := range sortedNames(prog.Controls) {
		ctl := prog.Controls[ctlName]
		for _, tn := range ctl.Order {
			if _, isTable := ctl.Tables[tn]; !isTable {
				continue
			}
			fq := ctlName + "." + tn
			if !snap.Has(fq) {
				continue
			}
			softTables = append(softTables, fq)
			soft = append(soft, ctx.Not(env.RepVar(ctlName, tn)))
		}
	}
	model, _, st := solver.Maximize(soft)
	if st == smt.Unknown {
		// Budget ran out before feasibility was decided: report that
		// honestly instead of silently claiming "not fixable by entries".
		return nil, nil, false, fmt.Errorf("localize: table-entry repair: %w", verify.ErrBudget)
	}
	if st != smt.Sat {
		return nil, nil, false, nil // not fixable by entries: program bug
	}
	var out []string
	suggested := map[string]string{}
	for i, fq := range softTables {
		_ = i
		parts := strings.SplitN(fq, ".", 2)
		if model.Bool(env.RepVar(parts[0], parts[1])) {
			out = append(out, fq)
			// The function variable's free choices name the repaired
			// behaviour on the frozen input. The encoder clamps an
			// out-of-range selector to the first installable action, so the
			// report applies the same clamping.
			ctx := env.Ctx
			hit := model.Bool(ctx.BoolVar("$tbl." + fq + ".hit"))
			laid := model.Uint64(ctx.Var("$tbl."+fq+".laid", 16))
			actionName := "?"
			if ctl := prog.Controls[parts[0]]; ctl != nil {
				if tbl := ctl.Tables[parts[1]]; tbl != nil {
					var installable []string
					for _, an := range tbl.Actions {
						if !tbl.DefaultOnly[an] {
							installable = append(installable, an)
						}
					}
					if len(installable) > 0 {
						idx := 0
						for i, an := range tbl.Actions {
							if uint64(i+1) == laid && !tbl.DefaultOnly[an] {
								idx = indexOf(installable, an)
							}
						}
						actionName = installable[idx]
					}
				}
			}
			if hit {
				// Include the repaired action's parameter values, read from
				// the function variable's argument slots.
				argsText := ""
				if ctl := prog.Controls[parts[0]]; ctl != nil && actionName != "?" {
					if act := ctl.Actions[actionName]; act != nil && len(act.Params) > 0 {
						vals := make([]string, len(act.Params))
						for j, pm := range act.Params {
							av := model.Uint64(ctx.Var(fmt.Sprintf("$tbl.%s.arg.%s.%d", fq, actionName, j), pm.Width))
							vals[j] = fmt.Sprintf("%d", av)
						}
						argsText = "(" + strings.Join(vals, ", ") + ")"
					}
				}
				suggested[fq] = fmt.Sprintf("install an entry matching the counterexample packet with action %s%s", actionName, argsText)
			} else {
				suggested[fq] = "remove the entries matching the counterexample packet (miss/default behaviour fixes it)"
			}
		}
	}
	return out, suggested, true, nil
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// locateProgramBug implements §5.2's program-bug algorithm.
func locateProgramBug(prog *p4.Program, snap *tables.Snapshot, spec *lpi.Spec,
	vopts verify.Options, frozen []frozenVar, baseRep *verify.Report) ([]Candidate, int, error) {
	// (1) Backward taint: variables of the violated assertions seed the
	// taint set; any action assigning a tainted variable is a suspect and
	// its right-hand-side variables become tainted too.
	taint := map[string]bool{}
	for _, v := range baseRep.Violations {
		for _, t := range smt.Vars(v.Cond) {
			name := strings.TrimPrefix(t.Name, "pkt.")
			name = strings.TrimPrefix(name, "$init.")
			if strings.Contains(name, ".") && !strings.ContainsAny(name, "$!#") {
				taint[name] = true
			}
		}
	}
	suspects := map[actionKey]map[string]bool{} // action -> assigned tainted vars
	pool := 0
	for _, ctlName := range sortedNames(prog.Controls) {
		ctl := prog.Controls[ctlName]
		for _, an := range ctl.Order {
			if act, ok := ctl.Actions[an]; ok {
				pool += len(assignedVars(act.Body))
			}
		}
	}
	// Fixpoint: propagate taint backward through assignments.
	for changed := true; changed; {
		changed = false
		for _, ctlName := range sortedNames(prog.Controls) {
			ctl := prog.Controls[ctlName]
			for _, an := range ctl.Order {
				act, ok := ctl.Actions[an]
				if !ok {
					continue
				}
				for lhs, rhsVars := range assignFlows(act.Body) {
					if !taint[lhs] {
						continue
					}
					key := actionKey{ctlName, an}
					if suspects[key] == nil {
						suspects[key] = map[string]bool{}
					}
					if !suspects[key][lhs] {
						suspects[key][lhs] = true
						changed = true
					}
					for _, rv := range rhsVars {
						if !taint[rv] {
							taint[rv] = true
							changed = true
						}
					}
				}
			}
		}
	}

	// (2) Causality filter: keep actions whose execution the violation
	// implies (checked on the base encoding's $fired ghosts). The query
	// terms are built serially on the shared context; the checks fan out
	// across the verify worker pool, each query on its own fresh solver.
	ctx := baseRep.Ctx
	frozenCond := frozenTerm(ctx, frozen)
	viol := ctx.False()
	for _, v := range baseRep.Violations {
		viol = ctx.Or(viol, v.Cond)
	}
	keys := sortedActionKeys(suspects)
	prefix := ctx.And(frozenCond, viol)
	queries := make([]*smt.Term, len(keys))
	for i, key := range keys {
		fired := baseRep.Env.FiredVar(key.ctl, key.act)
		// v implies fired  ⇔  unsat(v ∧ ¬fired).
		queries[i] = ctx.And(prefix, ctx.Not(fired))
	}
	workers := vopts.Workers()
	if workers > 1 {
		ctx.Freeze()
	}
	o := vopts.Observer()
	implied := make([]bool, len(keys))
	endFilter := o.Phase(0, "localize:filter")
	verify.ForEachWorker(workers, len(keys), func(worker, i int) {
		endSpan := o.Span(worker, "filter:"+keys[i].ctl+"."+keys[i].act)
		filterSolver := smt.NewSolver(ctx)
		if vopts.Budget > 0 {
			filterSolver.SetBudget(vopts.Budget)
		}
		implied[i] = filterSolver.Check(queries[i]) == smt.Unsat
		endSpan()
	})
	endFilter()
	var filtered []actionKey
	for i, key := range keys {
		if implied[i] {
			filtered = append(filtered, key)
		}
	}
	if len(filtered) == 0 {
		// Causality pruned everything (e.g. the faulty action never ran on
		// the frozen input because it is missing); fall back to the taint
		// set so step 3 can still simulate fixes.
		filtered = keys
	}

	// (3) Fix simulation: havoc each suspect variable after its action and
	// check whether some value repairs all assertions. Every simulation
	// re-encodes into its own private context, so the pairs are
	// embarrassingly parallel; results are collected by pair index, which
	// keeps the candidate order identical at every Parallel setting.
	type fixPair struct {
		key actionKey
		v   string
	}
	var pairs []fixPair
	for _, key := range filtered {
		for _, varName := range sortedSet(suspects[key]) {
			pairs = append(pairs, fixPair{key, varName})
		}
	}
	fixed := make([]bool, len(pairs))
	errs := make([]error, len(pairs))
	endFix := o.Phase(0, "localize:fix-simulation")
	verify.ForEachWorker(workers, len(pairs), func(worker, i int) {
		p := pairs[i]
		endSpan := o.Span(worker, "fix:"+p.key.ctl+"."+p.key.act+"/"+p.v)
		fixed[i], errs[i] = fixWorks(prog, snap, spec, vopts, frozen, p.key.ctl, p.key.act, p.v)
		endSpan()
	})
	endFix()
	var out []Candidate
	for i, p := range pairs {
		if errs[i] != nil {
			return nil, pool, errs[i]
		}
		if fixed[i] {
			out = append(out, Candidate{
				Control: p.key.ctl,
				Action:  p.key.act,
				Var:     p.v,
				Line:    actionLine(prog, p.key.ctl, p.key.act),
			})
		}
	}
	return out, pool, nil
}

type actionKey struct{ ctl, act string }

func sortedActionKeys(m map[actionKey]map[string]bool) []actionKey {
	out := make([]actionKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ctl != out[j].ctl {
			return out[i].ctl < out[j].ctl
		}
		return out[i].act < out[j].act
	})
	return out
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fixWorks re-encodes with a havoc of varName injected after every body of
// the action and asks whether some havoc value makes all assertions hold
// on the frozen input.
func fixWorks(prog *p4.Program, snap *tables.Snapshot, spec *lpi.Spec,
	vopts verify.Options, frozen []frozenVar, ctl, act, varName string) (bool, error) {
	ctx := smt.NewCtx()
	eopts := vopts.Encode
	eopts.TrackModified = lpi.TrackModified(spec)
	eopts.InjectHavoc = map[string][]string{ctl + "." + act: {varName}}
	env := encode.NewEnv(ctx, prog, snap, eopts)
	comp := lpi.NewCompiler(spec, env)
	program, err := comp.Compile()
	if err != nil {
		return false, err
	}
	enc := gcl.NewEncoder(ctx)
	encRes := enc.Encode(program, nil)
	solver := smt.NewSolver(ctx)
	if vopts.Budget > 0 {
		solver.SetBudget(vopts.Budget)
	}
	solver.Assert(frozenTerm(ctx, frozen))
	for _, v := range encRes.Violations {
		solver.Assert(ctx.Not(v.Cond))
	}
	return solver.Check() == smt.Sat, nil
}

// assignedVars returns the set of field paths a statement list assigns.
func assignedVars(body []p4.Stmt) map[string]bool {
	out := map[string]bool{}
	for lhs := range assignFlows(body) {
		out[lhs] = true
	}
	return out
}

// assignFlows maps each assigned field path to the field paths its
// right-hand side reads (the backward data-flow edges of §5.2 step 1).
func assignFlows(body []p4.Stmt) map[string][]string {
	out := map[string][]string{}
	var walk func(stmts []p4.Stmt)
	walk = func(stmts []p4.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *p4.AssignStmt:
				if lhs, ok := fieldPath(st.LHS); ok {
					out[lhs] = append(out[lhs], exprFields(st.RHS)...)
				}
			case *p4.RegReadStmt:
				if lhs, ok := fieldPath(st.Dst); ok {
					out[lhs] = append(out[lhs], "reg."+st.Reg)
				}
			case *p4.ExecuteMeterStmt:
				if lhs, ok := fieldPath(st.Dst); ok {
					out[lhs] = append(out[lhs], "reg."+st.Meter)
				}
			case *p4.HashStmt:
				if lhs, ok := fieldPath(st.Dst); ok {
					out[lhs] = append(out[lhs], exprFieldsList(st.Inputs)...)
				}
			case *p4.IfStmt:
				walk(st.Then)
				walk(st.Else)
			}
		}
	}
	walk(body)
	return out
}

func fieldPath(e p4.Expr) (string, bool) {
	switch x := e.(type) {
	case *p4.FieldRef:
		return x.Instance + "." + x.Field, true
	case *p4.SliceExpr:
		return fieldPath(x.X)
	}
	return "", false
}

func exprFields(e p4.Expr) []string {
	var out []string
	var walk func(p4.Expr)
	walk = func(x p4.Expr) {
		switch v := x.(type) {
		case *p4.FieldRef:
			out = append(out, v.Instance+"."+v.Field)
		case *p4.UnaryExpr:
			walk(v.X)
		case *p4.BinaryExpr:
			walk(v.X)
			walk(v.Y)
		case *p4.CastExpr:
			walk(v.X)
		case *p4.SliceExpr:
			walk(v.X)
		}
	}
	walk(e)
	return out
}

func exprFieldsList(es []p4.Expr) []string {
	var out []string
	for _, e := range es {
		out = append(out, exprFields(e)...)
	}
	return out
}

func actionLine(prog *p4.Program, ctlName, actName string) int {
	ctl := prog.Controls[ctlName]
	if ctl == nil {
		return 0
	}
	act := ctl.Actions[actName]
	if act == nil || len(act.Body) == 0 {
		return 0
	}
	switch s := act.Body[len(act.Body)-1].(type) {
	case *p4.AssignStmt:
		return s.Line
	case *p4.IfStmt:
		return s.Line
	default:
		return 0
	}
}

// String renders a localization report.
func (r *Result) String() string {
	var b strings.Builder
	switch r.Kind {
	case KindNone:
		b.WriteString("no violation: nothing to localize\n")
	case KindTableEntry:
		fmt.Fprintf(&b, "table-entry bug: replacing entries of %s fixes %v\n",
			strings.Join(r.Tables, ", "), r.Violated)
		for t, sgg := range r.SuggestedEntries {
			fmt.Fprintf(&b, "  %s: solver suggests %s\n", t, sgg)
		}
	case KindProgram:
		fmt.Fprintf(&b, "data-plane bug: %d candidate locations for %v\n",
			len(r.Candidates), r.Violated)
		for _, cand := range r.Candidates {
			fmt.Fprintf(&b, "  %s\n", cand)
		}
	}
	fmt.Fprintf(&b, "localization time: %v\n", r.Time.Round(time.Millisecond))
	return b.String()
}

func indexOf(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	return 0
}
