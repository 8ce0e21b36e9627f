package fuzz

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"aquila/internal/encode"
	"aquila/internal/lpi"
	"aquila/internal/obs"
	"aquila/internal/p4"
	"aquila/internal/progs"
	"aquila/internal/smt"
	"aquila/internal/symexec"
	"aquila/internal/tables"
	"aquila/internal/validate"
	"aquila/internal/verify"
)

// Input is one fuzzing input: a program (as source, so cloning is a
// re-parse), its table snapshot, and the component call order.
type Input struct {
	Source string
	Snap   *tables.Snapshot
	Calls  []string
	// Seed is the generator seed of the corpus ancestor; Muts is the
	// mutation trail from it. Both are reporting metadata only.
	Seed int64
	Muts []string
}

// Divergence is one oracle failure: an input on which two components of
// the pipeline that must agree did not.
type Divergence struct {
	// Oracle is "refinement", "engine-matrix", "model-soundness",
	// "churn-delta" or "serve-churn".
	Oracle string
	Detail string
	Input  *Input
}

func (d *Divergence) String() string {
	return fmt.Sprintf("%s oracle: %s (seed %d, %d mutations)",
		d.Oracle, d.Detail, d.Input.Seed, len(d.Input.Muts))
}

// engineConfig is one cell of the differential engine matrix.
type engineConfig struct {
	name string
	opts verify.Options
}

// engineMatrix spans {fresh, parallel, steal} × {plain, slice}: every
// solving strategy the driver exposes must produce the same verdict and
// byte-identical canonical report. The steal+slice cell keeps the
// shared-solver path (checkOneShared, which also serves sessions) under
// the oracle; its plain cell is left out to keep per-input cost bounded.
func engineMatrix() []engineConfig {
	return []engineConfig{
		{"fresh", verify.Options{FindAll: true, Parallel: 1}},
		{"fresh+slice", verify.Options{FindAll: true, Parallel: 1, Slice: true}},
		{"parallel", verify.Options{FindAll: true, Parallel: 4}},
		{"parallel+slice", verify.Options{FindAll: true, Parallel: 4, Slice: true}},
		{"steal+slice", verify.Options{FindAll: true, Parallel: 2, Schedule: verify.ScheduleSteal, Slice: true}},
	}
}

// oracles runs every configured oracle over one input and returns the
// divergences found (nil when the pipeline is self-consistent on this
// input). The obs registry o collects the coverage signal for the run.
func (e *Engine) oracles(in *Input, prog *p4.Program, o *obs.Obs) []*Divergence {
	divs, ok := e.refinementOracle(in, prog, o)
	if !ok {
		return nil
	}
	return append(divs, e.deepOracles(in, prog, o)...)
}

// refinementOracle is oracle 1: the GCL encoding and the independent
// interpreter must admit the same inputs and compute the same
// observables. In bug-rediscovery mode the encoder under test carries an
// injected historical bug, and a mismatch means the fuzzer found an input
// exposing it. ok is false when the pipeline rejected the input (counted
// as rejected, not as a divergence).
func (e *Engine) refinementOracle(in *Input, prog *p4.Program, o *obs.Obs) (divs []*Divergence, ok bool) {
	encOpts := encode.Options{InjectEncoderBug: e.cfg.TargetBug}
	res, err := validate.ValidateWith(prog, in.Snap, in.Calls, encOpts, validate.Config{Obs: o})
	if err != nil {
		e.rejected++
		return nil, false
	}
	if !res.Equivalent {
		var vars []string
		for _, m := range res.Mismatches {
			vars = append(vars, m.Var)
		}
		divs = append(divs, &Divergence{
			Oracle: "refinement",
			Detail: fmt.Sprintf("%d observables differ: %s", len(res.Mismatches), strings.Join(vars, ", ")),
			Input:  in,
		})
	}
	return divs, true
}

// deepOracles runs oracles 2 and 3 (engine matrix, model soundness) over
// the invalid-header-access property. It is a no-op in bug-rediscovery
// mode: the injected bug lives in the encoder, so every engine-matrix
// cell would inherit it uniformly and agree.
func (e *Engine) deepOracles(in *Input, prog *p4.Program, o *obs.Obs) []*Divergence {
	if e.cfg.TargetBug != "" {
		return nil
	}
	var divs []*Divergence
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, in.Calls))
	if err != nil {
		e.rejected++
		return divs
	}

	// Oracle 2: engine matrix. Every solving strategy must agree on the
	// verdict and on canonical report bytes.
	base, baseJSON, err := e.runCell(prog, in, spec, engineMatrix()[0], o)
	if err != nil {
		e.rejected++
		return divs
	}
	for _, cell := range engineMatrix()[1:] {
		rep, js, err := e.runCell(prog, in, spec, cell, o)
		if err != nil {
			divs = append(divs, &Divergence{
				Oracle: "engine-matrix",
				Detail: fmt.Sprintf("%s failed where fresh succeeded: %v", cell.name, err),
				Input:  in,
			})
			continue
		}
		if rep.Holds != base.Holds {
			divs = append(divs, &Divergence{
				Oracle: "engine-matrix",
				Detail: fmt.Sprintf("verdict mismatch: fresh holds=%v, %s holds=%v", base.Holds, cell.name, rep.Holds),
				Input:  in,
			})
		} else if string(js) != string(baseJSON) {
			divs = append(divs, &Divergence{
				Oracle: "engine-matrix",
				Detail: fmt.Sprintf("canonical report bytes differ between fresh and %s", cell.name),
				Input:  in,
			})
		}
	}

	// Oracle 3: model soundness. Every Sat counterexample the verifier
	// produced must describe a packet the program can actually exhibit:
	// replay the pinned packet through the independent path-enumerating
	// executor and demand it also violates the property.
	if !base.Holds {
		if detail := e.replayCounterexamples(prog, in, base); detail != "" {
			divs = append(divs, &Divergence{Oracle: "model-soundness", Detail: detail, Input: in})
		}
	}

	// Oracle 4: churn determinism. A warm Session fed one random delta
	// must report exactly what a fresh verification of the mutated
	// snapshot reports, byte for byte.
	divs = append(divs, e.churnOracle(in, prog, spec, o)...)

	// Oracle 5: serve-mode churn determinism. The same contract holds
	// end-to-end through the in-process aquila-serve daemon.
	divs = append(divs, e.serveOracle(in, prog, spec, o)...)
	return divs
}

// churnOracle exercises the delta re-verification contract: synthesize
// one random single-op delta against the input's snapshot, push it
// through a warm verify.Session, and demand canonical report bytes
// identical to a fresh run on the mutated snapshot. Any drift — a wrong
// replay, a stale learned clause constraining a verdict, a
// nondeterministic re-encode — shows up as a byte diff.
func (e *Engine) churnOracle(in *Input, prog *p4.Program, spec *lpi.Spec, o *obs.Obs) []*Divergence {
	delta := e.randomDelta(prog, in.Snap)
	if delta == nil {
		return nil
	}
	opts := verify.Options{Parallel: 1}
	opts.Obs = o
	sess, err := verify.NewSession(prog, in.Snap, spec, opts)
	if err != nil {
		return nil // input rejected at session construction; other oracles cover it
	}
	defer sess.Close()
	rep, err := sess.Apply(delta)
	if err != nil {
		return nil // delta rejected (encode limit, bad op); not a divergence
	}
	sessJS, err := rep.CanonicalJSON()
	if err != nil {
		return []*Divergence{{
			Oracle: "churn-delta",
			Detail: fmt.Sprintf("session report not canonicalizable after %q: %v", tables.FormatDelta(delta), err),
			Input:  in,
		}}
	}
	freshOpts := verify.Options{FindAll: true, Parallel: 1}
	freshOpts.Obs = o
	fresh, err := verify.Run(prog, sess.Snapshot(), spec, freshOpts)
	if err != nil {
		return []*Divergence{{
			Oracle: "churn-delta",
			Detail: fmt.Sprintf("fresh verification failed on mutated snapshot after %q: %v", tables.FormatDelta(delta), err),
			Input:  in,
		}}
	}
	freshJS, err := fresh.CanonicalJSON()
	if err != nil {
		return nil
	}
	if string(sessJS) != string(freshJS) {
		return []*Divergence{{
			Oracle: "churn-delta",
			Detail: fmt.Sprintf("canonical report bytes differ between warm session and fresh run after %q", tables.FormatDelta(delta)),
			Input:  in,
		}}
	}
	return nil
}

// randomDelta synthesizes one random single-op delta against prog's
// tables: an add of a random entry, or — when the snapshot already holds
// entries for the chosen table — possibly a replace or a remove. Returns
// nil when the program has no table an entry can be installed in.
func (e *Engine) randomDelta(prog *p4.Program, snap *tables.Snapshot) *tables.Delta {
	type site struct {
		fq  string
		ctl *p4.Control
		tbl *p4.Table
	}
	var sites []site
	for _, ctlName := range sortedKeys(prog.Controls) {
		ctl := prog.Controls[ctlName]
		for _, tn := range memberOrder(ctl) {
			tbl, ok := ctl.Tables[tn]
			if !ok || len(installableActions(tbl)) == 0 {
				continue
			}
			sites = append(sites, site{ctlName + "." + tn, ctl, tbl})
		}
	}
	if len(sites) == 0 {
		return nil
	}
	s := sites[e.rng.Intn(len(sites))]
	op := tables.DeltaOp{Kind: tables.OpAdd, Table: s.fq, Entry: e.randomEntry(s.ctl, s.tbl)}
	if snap != nil {
		if n := len(snap.Entries(s.fq)); n > 0 {
			switch e.rng.Intn(3) {
			case 1:
				op = tables.DeltaOp{Kind: tables.OpReplace, Table: s.fq, Index: e.rng.Intn(n), Entry: e.randomEntry(s.ctl, s.tbl)}
			case 2:
				op = tables.DeltaOp{Kind: tables.OpRemove, Table: s.fq, Index: e.rng.Intn(n)}
			}
		}
	}
	return &tables.Delta{Ops: []tables.DeltaOp{op}}
}

// randomEntry synthesizes an entry for a table: exact key matches with
// small values and a random installable action with in-range arguments.
func (e *Engine) randomEntry(ctl *p4.Control, tbl *p4.Table) *tables.Entry {
	ent := &tables.Entry{}
	for range tbl.Keys {
		ent.Keys = append(ent.Keys, tables.Exact(uint64(e.rng.Intn(256))))
	}
	acts := installableActions(tbl)
	ent.Action = acts[e.rng.Intn(len(acts))]
	if act := ctl.Actions[ent.Action]; act != nil {
		for _, pm := range act.Params {
			w := pm.Width
			if w > 16 {
				w = 16
			}
			ent.Args = append(ent.Args, uint64(e.rng.Int63())&((1<<uint(w))-1))
		}
	}
	return ent
}

// installableActions lists the actions entries may install (everything
// not marked @defaultonly).
func installableActions(tbl *p4.Table) []string {
	var out []string
	for _, an := range tbl.Actions {
		if !tbl.DefaultOnly[an] {
			out = append(out, an)
		}
	}
	return out
}

// runCell runs one engine-matrix cell and returns the report plus its
// canonical bytes.
func (e *Engine) runCell(prog *p4.Program, in *Input, spec *lpi.Spec, cell engineConfig, o *obs.Obs) (*verify.Report, []byte, error) {
	opts := cell.opts
	opts.Obs = o
	rep, err := verify.Run(prog, in.Snap, spec, opts)
	if err != nil {
		return nil, nil, err
	}
	js, err := rep.CanonicalJSON()
	if err != nil {
		return nil, nil, err
	}
	return rep, js, nil
}

// maxReplays bounds how many counterexamples oracle 3 replays per input;
// replay cost is one full symbolic execution each.
const maxReplays = 2

// replayCounterexamples checks verifier counterexamples against the
// path-based executor. It returns a non-empty detail string on the first
// unsound model found.
func (e *Engine) replayCounterexamples(prog *p4.Program, in *Input, rep *verify.Report) string {
	prop := invalidAccessProperty(prog)
	replayed := 0
	for _, v := range rep.Violations {
		if replayed >= maxReplays {
			break
		}
		if v.Model == nil || v.Cond == nil {
			continue
		}
		pins := packetPins(v)
		if len(pins) == 0 {
			continue
		}
		replayed++
		eng := symexec.New(prog, in.Snap, symexec.Options{MaxPaths: 200000})
		ctx := eng.Ctx()
		assume := ctx.True()
		for _, p := range pins {
			assume = ctx.And(assume, ctx.Eq(ctx.Var(p.name, p.width), ctx.BVBig(p.val, p.width)))
		}
		res, err := eng.Run(in.Calls, assume, prop)
		if err != nil {
			// The baseline blowing up on an input the verifier handled is
			// a capability gap, not unsoundness.
			continue
		}
		if len(res.Violations) == 0 {
			return fmt.Sprintf("verifier counterexample for %q pins a packet (%s) on which the path executor finds no violation",
				v.Label, pinsString(pins))
		}
	}
	return ""
}

// pin is one packet-input variable assignment extracted from a model.
type pin struct {
	name  string
	width int
	val   *big.Int
}

// packetPins extracts the packet-order input assignment from a violation
// model: the pkt.$order.N variables both engines name identically.
func packetPins(v *verify.Violation) []pin {
	var out []pin
	seen := map[string]bool{}
	for _, t := range smt.Vars(v.Cond) {
		if t.IsBool() || seen[t.Name] || !strings.HasPrefix(t.Name, "pkt.$order.") {
			continue
		}
		seen[t.Name] = true
		out = append(out, pin{name: t.Name, width: t.Width, val: v.Model.BV(t)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func pinsString(pins []pin) string {
	parts := make([]string, len(pins))
	for i, p := range pins {
		parts[i] = fmt.Sprintf("%s=%d", p.name, p.val)
	}
	return strings.Join(parts, " ")
}

// invalidAccessProperty mirrors progs.InvalidHeaderAccessSpec for the
// symexec engine (the same construction the bench harness uses).
func invalidAccessProperty(prog *p4.Program) symexec.Property {
	type check struct{ applied, valid string }
	var checks []check
	for _, ctlName := range sortedKeys(prog.Controls) {
		ctl := prog.Controls[ctlName]
		for _, tn := range memberOrder(ctl) {
			tbl, ok := ctl.Tables[tn]
			if !ok {
				continue
			}
			for _, h := range progs.TableHeaders(prog, ctl, tbl) {
				checks = append(checks, check{applied: "$applied." + ctlName + "." + tn, valid: h + ".$valid"})
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
