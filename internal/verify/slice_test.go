package verify

import (
	"bytes"
	"testing"

	"aquila/internal/gcl"
	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/progs"
	"aquila/internal/smt"
)

// TestSliceMatchBaseline is the differential contract of cone-of-influence
// slicing: on the whole corpus, sliced runs under both schedules at
// several worker counts produce canonical report bytes identical to the
// plain serial baseline.
func TestSliceMatchBaseline(t *testing.T) {
	for _, c := range corpusSuite(t) {
		base, err := Run(c.prog, nil, c.spec, Options{FindAll: true, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: baseline: %v", c.name, err)
		}
		want, err := base.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: canonical: %v", c.name, err)
		}
		for _, sched := range []Schedule{ScheduleStatic, ScheduleSteal} {
			for _, w := range []int{1, 2, 4} {
				opts := Options{FindAll: true, Parallel: w, Schedule: sched, Slice: true}
				rep, err := Run(c.prog, nil, c.spec, opts)
				if err != nil {
					t.Fatalf("%s: sched=%v w=%d: %v", c.name, sched, w, err)
				}
				got, err := rep.CanonicalJSON()
				if err != nil {
					t.Fatalf("%s: sched=%v w=%d canonical: %v", c.name, sched, w, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: sliced sched=%v w=%d differs from baseline\nbaseline: %s\ngot: %s",
						c.name, sched, w, want, got)
				}
				if rep.Stats.SliceConjuncts == 0 {
					t.Errorf("%s: sched=%v w=%d: slicing recorded no conjuncts",
						c.name, sched, w)
				}
			}
		}
	}
}

// TestSliceShrinksDCGateway pins the point of the pass on the
// many-assertion benchmark: slicing must drop conjuncts.
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
	sliced, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1, Slice: true})
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	if sliced.Stats.SliceDropped == 0 {
		t.Errorf("slicing dropped no conjuncts (saw %d)", sliced.Stats.SliceConjuncts)
	}
}

// TestSliceGenprogDifferential repeats the differential check on synthetic
// production-shaped programs with seeded bugs: slicing must not change
// which assertions are violated or their counterexamples.
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
		base, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: baseline: %v", cfg.Name, err)
		}
		if base.Holds {
			t.Fatalf("%s: seeded bug not found by baseline", cfg.Name)
		}
		want, err := base.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: canonical: %v", cfg.Name, err)
		}
		for _, sched := range []Schedule{ScheduleStatic, ScheduleSteal} {
			for _, w := range []int{1, 2} {
				rep, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: w,
					Schedule: sched, Slice: true})
				if err != nil {
					t.Fatalf("%s: sched=%v w=%d: %v", cfg.Name, sched, w, err)
				}
				got, err := rep.CanonicalJSON()
				if err != nil {
					t.Fatalf("%s: sched=%v w=%d canonical: %v", cfg.Name, sched, w, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: sliced sched=%v w=%d differs from baseline\nbaseline: %s\ngot: %s",
						cfg.Name, sched, w, want, got)
				}
			}
		}
	}
}

// TestStaticShardsNoEmpty is the regression test for the empty-shard bug:
// StaticShards must never hand a caller an empty shard (each one would
// give a steal worker an empty queue to own), and zero work must yield
// zero shards.
func TestStaticShardsNoEmpty(t *testing.T) {
	for _, tc := range []struct{ shards, n, want int }{
		{4, 0, 0},
		{1, 0, 0},
		{0, 0, 0},
		{4, 2, 2},
		{8, 3, 3},
		{2, 5, 2},
		{1, 1, 1},
	} {
		got := StaticShards(tc.shards, tc.n)
		if len(got) != tc.want {
			t.Errorf("StaticShards(%d, %d): %d shards, want %d",
				tc.shards, tc.n, len(got), tc.want)
		}
		seen := 0
		for s, shard := range got {
			if len(shard) == 0 {
				t.Errorf("StaticShards(%d, %d): shard %d is empty", tc.shards, tc.n, s)
			}
			seen += len(shard)
		}
		if seen != tc.n {
			t.Errorf("StaticShards(%d, %d): %d indices covered, want %d",
				tc.shards, tc.n, seen, tc.n)
		}
	}
}

// TestZeroAssertions pins the n = 0 path end to end: a find-all run over
// an empty assertion list must hold, spawn no solvers, and not panic on
// the (absent) first shard, under every find-all engine.
func TestZeroAssertions(t *testing.T) {
	for _, opts := range []Options{
		{FindAll: true, Parallel: 1, Slice: true},
		{FindAll: true, Parallel: 4, Slice: true},
		{FindAll: true, Parallel: 1, Schedule: ScheduleSteal, Slice: true},
		{FindAll: true, Parallel: 4, Schedule: ScheduleSteal, Slice: true},
		{FindAll: true, Parallel: 1, Stream: true, Slice: true},
	} {
		rep := &Report{Ctx: smt.NewCtx(), Result: &gcl.Result{}}
		if err := rep.check(opts); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !rep.Holds && len(rep.Violations) != 0 {
			t.Fatalf("%+v: violations on empty assertion list", opts)
		}
		if rep.Stats.SATVars != 0 || rep.Stats.CNFClauses != 0 {
			t.Fatalf("%+v: empty run created solver work: %+v", opts, rep.Stats)
		}
	}
}
