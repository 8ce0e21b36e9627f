package gcl_test

import (
	"testing"

	"aquila/internal/encode"
	"aquila/internal/gcl"
	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/progs"
	"aquila/internal/smt"
)

// compileCase encodes bm over a new context and compiles it under its
// invalid-header-access spec, the way verify.Run does.
func compileCase(t *testing.T, bm *progs.Benchmark) (*smt.Ctx, gcl.Stmt) {
	t.Helper()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("%s: parse: %v", bm.Name, err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("%s: spec: %v", bm.Name, err)
	}
	ctx := smt.NewCtx()
	env := encode.NewEnv(ctx, prog, nil, encode.Options{TrackModified: lpi.TrackModified(spec)})
	program, err := lpi.NewCompiler(spec, env).Compile()
	if err != nil {
		t.Fatalf("%s: compile: %v", bm.Name, err)
	}
	return ctx, program
}

// checkArgIDsBelow fails unless every argument in the DAG under root has
// a smaller ID than its parent — the invariant smt.Memo sizes itself by.
func checkArgIDsBelow(t *testing.T, name string, root *smt.Term, seen map[*smt.Term]bool) {
	t.Helper()
	stack := []*smt.Term{root}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[x] {
			continue
		}
		seen[x] = true
		for _, a := range x.Args {
			if a.ID >= x.ID {
				t.Fatalf("%s: term %d has argument %d, not below its own ID", name, x.ID, a.ID)
			}
			stack = append(stack, a)
		}
	}
}

// sameIDs reports whether two DAGs from different contexts have the same
// shape and the same term ID at every node, i.e. were constructed in the
// same order.
func sameIDs(a, b *smt.Term, seen map[*smt.Term]bool) bool {
	if a.ID != b.ID || a.Op != b.Op || len(a.Args) != len(b.Args) {
		return false
	}
	if seen[a] {
		return true
	}
	seen[a] = true
	for i := range a.Args {
		if !sameIDs(a.Args[i], b.Args[i], seen) {
			return false
		}
	}
	return true
}

// TestSubstMatchesMapReference is the Subst differential over the corpus
// (the five hand-written programs, DC Gateway, Skewed Telemetry) and
// seeded genprog programs. The reference encoding substitutes with the
// map-based walk; at every site Encoder.Subst must return the same
// pointer without creating a term. A production Encode over a second,
// identically built context must then end with the same term count and
// the same term ID at every node of every condition, so term
// construction order is unchanged.
func TestSubstMatchesMapReference(t *testing.T) {
	suite := append(progs.HandWrittenSuite(), progs.DCGatewayBench(), progs.SkewedBench())
	for seed := int64(1); seed <= 3; seed++ {
		suite = append(suite, genprog.Assemble(genprog.Config{Name: "gp_subst", Seed: seed,
			Pipes: 2, ParserStates: 8, Tables: 10, ActionsPerTable: 3, SeedBug: true}))
	}
	for _, bm := range suite {
		refCtx, refProg := compileCase(t, bm)
		ref, mismatches := gcl.EncodeWithMapSubst(refCtx, refProg)
		for i, m := range mismatches {
			if i == 5 {
				t.Errorf("%s: ... %d mismatches in all", bm.Name, len(mismatches))
				break
			}
			t.Errorf("%s: %s", bm.Name, m)
		}

		ctx, program := compileCase(t, bm)
		res := gcl.NewEncoder(ctx).Encode(program, nil)
		if got, want := ctx.NumTerms(), refCtx.NumTerms(); got != want {
			t.Errorf("%s: NumTerms after Encode = %d, reference %d", bm.Name, got, want)
		}
		if res.Path.ID != ref.Path.ID || len(res.Violations) != len(ref.Violations) {
			t.Fatalf("%s: path term %d / %d violations, reference %d / %d",
				bm.Name, res.Path.ID, len(res.Violations), ref.Path.ID, len(ref.Violations))
		}
		same, seen := map[*smt.Term]bool{}, map[*smt.Term]bool{}
		if !sameIDs(res.Path, ref.Path, same) {
			t.Errorf("%s: path condition term IDs differ from the reference", bm.Name)
		}
		checkArgIDsBelow(t, bm.Name, res.Path, seen)
		for i, v := range res.Violations {
			if !sameIDs(v.Cond, ref.Violations[i].Cond, same) {
				t.Errorf("%s: violation %d condition term IDs differ from the reference", bm.Name, i)
			}
			checkArgIDsBelow(t, bm.Name, v.Cond, seen)
		}
	}
}
