package verify

import (
	"bytes"
	"testing"

	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/progs"
)

// sessionMatchesFresh checks the slicing engine's differential contract on
// one problem: a Session baseline (which always slices) has canonical
// bytes identical to the fresh serial Run, and its slicer saw conjuncts.
// NewSession ignores Parallel, so the session is built with a parallel
// setting to pin that it stays serial.
func sessionMatchesFresh(t *testing.T, name string, fresh *Report, newSession func() (*Session, error)) *Session {
	t.Helper()
	want, err := fresh.CanonicalJSON()
	if err != nil {
		t.Fatalf("%s: canonical: %v", name, err)
	}
	sess, err := newSession()
	if err != nil {
		t.Fatalf("%s: NewSession: %v", name, err)
	}
	base := sess.Baseline()
	got, err := base.CanonicalJSON()
	if err != nil {
		t.Fatalf("%s: session canonical: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: sliced session baseline differs from fresh\nfresh: %s\nsession: %s", name, want, got)
	}
	if base.Stats.SliceConjuncts == 0 {
		t.Errorf("%s: slicing recorded no conjuncts", name)
	}
	if base.Stats.Workers != 1 || sess.Ctx().Frozen() {
		t.Errorf("%s: session ran on %d workers (frozen=%v), want serial",
			name, base.Stats.Workers, sess.Ctx().Frozen())
	}
	return sess
}

// TestSliceMatchBaseline is the differential contract of cone-of-influence
// slicing: on the whole corpus, the sliced Session baseline produces
// canonical report bytes identical to the plain fresh serial Run.
func TestSliceMatchBaseline(t *testing.T) {
	for _, c := range corpusSuite(t) {
		fresh, err := Run(c.prog, nil, c.spec, Options{FindAll: true, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: fresh: %v", c.name, err)
		}
		sessionMatchesFresh(t, c.name, fresh, func() (*Session, error) {
			return NewSession(c.prog, nil, c.spec, Options{Parallel: 4})
		})
	}
}

// TestSliceShrinksDCGateway pins the point of the pass on the
// many-assertion benchmark: the session's slicer must drop conjuncts, and
// each sliced recheck must blast fewer Tseitin clauses than the fresh
// engine's full conditions (the session checks slices on one warm solver).
func TestSliceShrinksDCGateway(t *testing.T) {
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	fresh, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1})
	if err != nil {
		t.Fatalf("fresh: %v", err)
	}
	sess := sessionMatchesFresh(t, bm.Name, fresh, func() (*Session, error) {
		return NewSession(prog, nil, spec, Options{})
	})
	base := sess.Baseline()
	if base.Stats.SliceDropped == 0 {
		t.Errorf("slicing dropped no conjuncts (saw %d)", base.Stats.SliceConjuncts)
	}
	if base.Stats.TseitinClauses >= fresh.Stats.TseitinClauses {
		t.Errorf("sliced session emitted %d Tseitin clauses, want < fresh %d",
			base.Stats.TseitinClauses, fresh.Stats.TseitinClauses)
	}
}

// TestSliceGenprogDifferential repeats the differential check on synthetic
// production-shaped programs with seeded bugs, so slicing is exercised on
// reports that contain real violations and counterexamples: a sliced Sat
// must be confirmed on the full condition with the fresh engine's model.
func TestSliceGenprogDifferential(t *testing.T) {
	cfgs := []genprog.Config{
		{Name: "gp_slice_small", Pipes: 1, ParserStates: 6, Tables: 8, ActionsPerTable: 2, SeedBug: true},
		{Name: "gp_slice_wide", Pipes: 2, ParserStates: 10, Tables: 14, ActionsPerTable: 3, SeedBug: true},
	}
	for _, cfg := range cfgs {
		bm := genprog.Assemble(cfg)
		prog, err := bm.Parse()
		if err != nil {
			t.Fatalf("%s: parse: %v", cfg.Name, err)
		}
		spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
		if err != nil {
			t.Fatalf("%s: spec: %v", cfg.Name, err)
		}
		fresh, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: fresh: %v", cfg.Name, err)
		}
		if fresh.Holds {
			t.Fatalf("%s: seeded bug not found by the fresh engine", cfg.Name)
		}
		sessionMatchesFresh(t, cfg.Name, fresh, func() (*Session, error) {
			return NewSession(prog, nil, spec, Options{Parallel: 2})
		})
	}
}
