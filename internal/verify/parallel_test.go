package verify

import (
	"bytes"
	"errors"
	"testing"

	"aquila/internal/gcl"
	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/p4"
	"aquila/internal/progs"
	"aquila/internal/smt"
)

// corpusSuite is every hand-written program plus the DC gateway, each
// paired with its generated invalid-header-access spec.
func corpusSuite(t *testing.T) []corpusCase {
	t.Helper()
	var out []corpusCase
	for _, bm := range append(progs.HandWrittenSuite(), progs.DCGatewayBench(), progs.SkewedBench()) {
		out = append(out, loadCase(t, bm))
	}
	return out
}

// corpusCase is one verification problem of a test suite.
type corpusCase struct {
	name string
	prog *p4.Program
	spec *lpi.Spec
}

// loadCase parses bm under its generated invalid-header-access spec.
func loadCase(t *testing.T, bm *progs.Benchmark) corpusCase {
	t.Helper()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("%s: parse: %v", bm.Name, err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("%s: spec: %v", bm.Name, err)
	}
	return corpusCase{bm.Name, prog, spec}
}

// TestParallelReportsByteIdentical is the engine's determinism contract:
// at any Parallel setting the canonical report bytes match the serial run
// exactly — same verdicts, violations, counterexamples and formula sizes.
func TestParallelReportsByteIdentical(t *testing.T) {
	for _, c := range corpusSuite(t) {
		assertParallelMatchesSerial(t, c, []int{2, 4, 8})
	}
}

// TestParallelGenprogDifferential runs the determinism contract on a
// synthetic program with a seeded bug, so it is exercised on reports that
// carry real counterexamples: the serial run must find the bug and every
// worker count must reproduce its canonical report byte for byte.
func TestParallelGenprogDifferential(t *testing.T) {
	gp := genprog.Assemble(genprog.Config{Name: "gp_seeded", Pipes: 1, ParserStates: 6,
		Tables: 10, ActionsPerTable: 2, SeedBug: true})
	serial := assertParallelMatchesSerial(t, loadCase(t, gp), []int{2, 4})
	if serial.Holds {
		t.Fatalf("%s: seeded bug not found", gp.Name)
	}
}

// assertParallelMatchesSerial runs c serially and at each worker count and
// fails t where a canonical report differs from the serial one. It returns
// the serial report.
func assertParallelMatchesSerial(t *testing.T, c corpusCase, workers []int) *Report {
	t.Helper()
	serial, err := Run(c.prog, nil, c.spec, Options{FindAll: true, Parallel: 1})
	if err != nil {
		t.Fatalf("%s: serial: %v", c.name, err)
	}
	want, err := serial.CanonicalJSON()
	if err != nil {
		t.Fatalf("%s: canonical: %v", c.name, err)
	}
	for _, w := range workers {
		rep, err := Run(c.prog, nil, c.spec, Options{FindAll: true, Parallel: w})
		if err != nil {
			t.Fatalf("%s: workers=%d: %v", c.name, w, err)
		}
		got, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: workers=%d canonical: %v", c.name, w, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: workers=%d report differs from serial\nserial: %s\nparallel: %s",
				c.name, w, want, got)
		}
		if rep.Stats.Workers < 1 {
			t.Errorf("%s: workers=%d: Stats.Workers = %d", c.name, w, rep.Stats.Workers)
		}
	}
	return serial
}

// TestDCGatewayCNFSize pins the blasted formula's size on the DC gateway:
// serial find-all must stay within the SAT var and clause counts of the
// n-ary equality gate (the binary AND chain it replaced produced 15,015
// vars and 36,606 clauses), and two workers must report the same counts,
// since every check resets its solver to the fresh state. The counts are
// deterministic, so a blaster regression fails here without timing noise.
func TestDCGatewayCNFSize(t *testing.T) {
	const maxVars, maxClauses = 9231, 25014
	c := loadCase(t, progs.DCGatewayBench())
	var counts [2][2]int
	for i, w := range []int{1, 2} {
		rep, err := Run(c.prog, nil, c.spec, Options{FindAll: true, Parallel: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		counts[i] = [2]int{rep.Stats.SATVars, rep.Stats.CNFClauses}
	}
	if v, cl := counts[0][0], counts[0][1]; v > maxVars || cl > maxClauses {
		t.Errorf("serial: %d SAT vars, %d clauses; want at most %d, %d", v, cl, maxVars, maxClauses)
	}
	if counts[1] != counts[0] {
		t.Errorf("workers=2 (vars, clauses) = %v, serial %v", counts[1], counts[0])
	}
}

// TestParallelBudgetExhaustion pins budget semantics under parallelism:
// a budget too small for any check makes every worker stop, ErrBudget
// surfaces exactly as in the serial run, and the partial report (the
// consumed prefix before the first exhausted check) is byte-identical.
func TestParallelBudgetExhaustion(t *testing.T) {
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	opts := Options{FindAll: true, Budget: 1, Parallel: 1}
	serial, err := Run(prog, nil, spec, opts)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("serial budget=1: err = %v, want ErrBudget", err)
	}
	want, cerr := serial.CanonicalJSON()
	if cerr != nil {
		t.Fatalf("canonical: %v", cerr)
	}
	for _, w := range []int{4, 8} {
		opts.Parallel = w
		rep, err := Run(prog, nil, spec, opts)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("workers=%d budget=1: err = %v, want ErrBudget", w, err)
		}
		got, cerr := rep.CanonicalJSON()
		if cerr != nil {
			t.Fatalf("workers=%d canonical: %v", w, cerr)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: budget-exhausted report differs from serial\nserial: %s\nparallel: %s",
				w, want, got)
		}
	}
}

// TestForEach exercises the fan-out primitive directly.
func TestForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		n := 57
		hits := make([]int, n)
		ForEach(workers, n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
	ForEach(4, 0, func(i int) { t.Fatal("callback on empty range") })
}

// TestRunByteStableAcrossRuns pins cross-Run determinism: two independent
// Runs of the same program in the same process must produce identical
// canonical bytes. The skewed-telemetry program is the regression case —
// its adder-identity guard has symmetric counterexample candidates, so
// any map-iteration-order leak into term construction (gcl's branch merge
// once had one) shows up as a flipped model here. The bench sweeps and
// the CI worker-count smoke compare reports across processes; this is
// the contract they stand on.
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
	opts := Options{FindAll: true, Parallel: 1}
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

// TestZeroAssertions pins the n = 0 path end to end: a find-all run over
// an empty assertion list must hold and spawn no solvers, serial or on a
// worker pool.
func TestZeroAssertions(t *testing.T) {
	for _, opts := range []Options{
		{FindAll: true, Parallel: 1},
		{FindAll: true, Parallel: 4},
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
