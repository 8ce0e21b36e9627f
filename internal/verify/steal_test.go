package verify

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/progs"
)

// TestStealQueueOrder pins the scheduler's queue discipline: owners pop
// their own items largest-first, a thief takes the largest remaining head
// across victims, and every index is handed out exactly once.
func TestStealQueueOrder(t *testing.T) {
	// Shards over 6 items; cost makes item 4 the heavyweight.
	shards := StaticShards(2, 6) // shard 0: 0 2 4, shard 1: 1 3 5
	cost := []int64{10, 1, 20, 1, 100, 1}
	q := newStealQueue(shards, cost)

	// Owner 0 sees its queue largest-first: 4 (100), 2 (20), 0 (10).
	for _, want := range []int{4, 2, 0} {
		idx, stolen, ok := q.next(0)
		if !ok || stolen || idx != want {
			t.Fatalf("own pop: got (%d, stolen=%v, ok=%v), want %d", idx, stolen, ok, want)
		}
	}
	// Worker 0 is now a thief; worker 1's queue holds 1, 3, 5 (all cost 1,
	// stable sort keeps index order). Steals must be flagged.
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		idx, stolen, ok := q.next(0)
		if !ok || !stolen {
			t.Fatalf("steal %d: got (%d, stolen=%v, ok=%v)", i, idx, stolen, ok)
		}
		seen[idx] = true
	}
	for _, want := range []int{1, 3, 5} {
		if !seen[want] {
			t.Fatalf("steals missed index %d (saw %v)", want, seen)
		}
	}
	if _, _, ok := q.next(0); ok {
		t.Fatal("empty pool still returned work")
	}
	if _, _, ok := q.next(1); ok {
		t.Fatal("victim's own queue should be drained by the thief")
	}
}

// TestStealMatrixByteIdentical is the scheduler's determinism contract:
// on the whole corpus, canonical report bytes are identical across the
// {schedule} × {workers} grid — work stealing moves checks between
// solvers, but verdicts are semantic and every Sat is re-solved by the
// same deterministic fresh solver. On the DC gateway, a serial steal run
// checks every assertion on one owner solver, so the shared VC prefix is
// blasted once and the run emits strictly fewer Tseitin clauses than
// fresh mode.
func TestStealMatrixByteIdentical(t *testing.T) {
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
				rep, err := Run(c.prog, nil, c.spec, Options{FindAll: true, Parallel: w, Schedule: sched})
				if err != nil {
					t.Fatalf("%s: sched=%v workers=%d: %v", c.name, sched, w, err)
				}
				got, err := rep.CanonicalJSON()
				if err != nil {
					t.Fatalf("%s: sched=%v workers=%d canonical: %v", c.name, sched, w, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: sched=%v workers=%d differs from baseline\nbase: %s\ngot: %s",
						c.name, sched, w, want, got)
				}
				if sched == ScheduleSteal && rep.Stats.Schedule != "steal" {
					t.Errorf("%s: sched=steal: Stats.Schedule = %q", c.name, rep.Stats.Schedule)
				}
				if sched == ScheduleSteal && w == 1 && c.name == progs.DCGatewayBench().Name &&
					rep.Stats.TseitinClauses >= base.Stats.TseitinClauses {
					t.Errorf("%s: serial steal emitted %d Tseitin clauses, want < fresh %d",
						c.name, rep.Stats.TseitinClauses, base.Stats.TseitinClauses)
				}
			}
		}
	}
}

// TestStealGenprogDifferential repeats the contract on synthetic
// production-shaped programs with seeded bugs, so stealing is exercised on
// reports that contain real violations and counterexamples.
func TestStealGenprogDifferential(t *testing.T) {
	cfgs := []genprog.Config{
		{Name: "gp_steal", Pipes: 1, ParserStates: 6, Tables: 10, ActionsPerTable: 2, SeedBug: true},
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
			t.Fatalf("%s: seeded bug not found by fresh mode", cfg.Name)
		}
		want, err := fresh.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: canonical: %v", cfg.Name, err)
		}
		for _, w := range []int{1, 2} {
			rep, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: w,
				Schedule: ScheduleSteal})
			if err != nil {
				t.Fatalf("%s: steal w=%d: %v", cfg.Name, w, err)
			}
			got, err := rep.CanonicalJSON()
			if err != nil {
				t.Fatalf("%s: canonical: %v", cfg.Name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: steal w=%d differs from fresh\nfresh: %s\nsteal: %s",
					cfg.Name, w, want, got)
			}
		}
	}
}

// TestStealCancelHammer drives the steal path hard enough for the -race
// CI job to see the interleavings: many workers over few assertions
// forces stealing under both schedules, and every run polls a live
// (never fired) cancellation token from every solver. Verdict bytes must
// still match the serial baseline.
func TestStealCancelHammer(t *testing.T) {
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	base, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	want, err := base.CanonicalJSON()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	iters := 3
	if testing.Short() {
		iters = 1
	}
	var tok atomic.Bool
	for it := 0; it < iters; it++ {
		for _, sched := range []Schedule{ScheduleStatic, ScheduleSteal} {
			for _, w := range []int{2, 8} {
				rep, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: w,
					Schedule: sched, Cancel: &tok})
				if err != nil {
					t.Fatalf("iter %d sched=%v w=%d: %v", it, sched, w, err)
				}
				got, err := rep.CanonicalJSON()
				if err != nil {
					t.Fatalf("iter %d: canonical: %v", it, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("iter %d sched=%v w=%d: hammer report differs from baseline", it, sched, w)
				}
			}
		}
	}
}

// TestStealBudgetExhaustion pins budget semantics under the steal
// scheduler: a budget too small for any check surfaces ErrBudget with
// the same consumed prefix as fresh mode. (Beyond an owner's first check,
// learned clauses make budget reach schedule-dependent — see DESIGN.md —
// so only the all-Unknown case is pinned.)
func TestStealBudgetExhaustion(t *testing.T) {
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	fresh, err := Run(prog, nil, spec, Options{FindAll: true, Budget: 1, Parallel: 1})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("fresh budget=1: err = %v, want ErrBudget", err)
	}
	want, cerr := fresh.CanonicalJSON()
	if cerr != nil {
		t.Fatalf("canonical: %v", cerr)
	}
	rep, err := Run(prog, nil, spec, Options{FindAll: true, Budget: 1, Parallel: 1,
		Schedule: ScheduleSteal})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("steal budget=1: err = %v, want ErrBudget", err)
	}
	got, cerr := rep.CanonicalJSON()
	if cerr != nil {
		t.Fatalf("canonical: %v", cerr)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("budget-exhausted steal report differs from fresh\nfresh: %s\nsteal: %s",
			want, got)
	}
}

// TestParseSchedule pins the flag grammar shared by every CLI.
func TestParseSchedule(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Schedule
		ok   bool
	}{
		{"", ScheduleStatic, true},
		{"static", ScheduleStatic, true},
		{"steal", ScheduleSteal, true},
		{"work-steal", 0, false},
		{"STEAL", 0, false},
	} {
		got, err := ParseSchedule(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseSchedule(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", c.in)
		}
	}
}

// TestOptionsValidate pins the incompatible-combination errors every CLI
// surfaces instead of silently preferring one mode.
func TestOptionsValidate(t *testing.T) {
	ok := []Options{
		{},
		{FindAll: true, Schedule: ScheduleSteal, Parallel: 4},
		{FindAll: true, Schedule: ScheduleSteal, Slice: true},
		{FindAll: true, Stream: true, Parallel: 1},
		{FindAll: true, Cancel: new(atomic.Bool), Parallel: 4},
	}
	for i, o := range ok {
		if err := o.Validate(); err != nil {
			t.Errorf("ok[%d] %+v: unexpected error %v", i, o, err)
		}
	}
	bad := []struct {
		opts Options
		frag string
	}{
		{Options{FindAll: true, Stream: true, Parallel: 4}, "-stream"},
		{Options{FindAll: true, Stream: true, Schedule: ScheduleSteal}, "-stream"},
		{Options{Schedule: ScheduleSteal}, "find-all"},
	}
	for i, c := range bad {
		err := c.opts.Validate()
		if err == nil {
			t.Errorf("bad[%d] %+v: Validate() = nil, want error", i, c.opts)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("bad[%d]: error %q does not mention %q", i, err, c.frag)
		}
	}
	// RunWithEnv must refuse before doing any work.
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	if _, err := Run(prog, nil, spec, Options{FindAll: true, Stream: true, Parallel: 4}); err == nil {
		t.Error("Run accepted -stream with -parallel > 1")
	}
}

// TestRunByteStableAcrossRuns pins cross-Run determinism: two independent
// Runs of the same program in the same process must produce identical
// canonical bytes. The skewed-telemetry program is the regression case —
// its adder-identity guard has symmetric counterexample candidates, so
// any map-iteration-order leak into term construction (gcl's branch merge
// once had one) shows up as a flipped model here. The bench sweeps and
// the CI steal smoke compare reports across processes; this is the
// contract they stand on.
func TestRunByteStableAcrossRuns(t *testing.T) {
	bm := progs.SkewedBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{FindAll: true, Parallel: 1, Slice: true}
	var want []byte
	for i := 0; i < 3; i++ {
		rep, err := Run(prog, nil, spec, opts)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		got, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatalf("run %d: canonical: %v", i, err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Fatalf("run %d: canonical report differs from run 0", i)
		}
	}
}
