package gcl

import (
	"strings"
	"testing"

	"aquila/internal/smt"
)

func setup() (*smt.Ctx, *Encoder) {
	ctx := smt.NewCtx()
	return ctx, NewEncoder(ctx)
}

// checkViolation returns whether any violation is satisfiable, plus a model.
func checkViolation(ctx *smt.Ctx, res *Result) (bool, *smt.Model) {
	s := smt.NewSolver(ctx)
	for _, v := range res.Violations {
		s.Assert(ctx.True()) // keep solver non-empty
		if s.Check(v.Cond) == smt.Sat {
			m := s.Model()
			s.ModelCollect(m, v.Cond)
			return true, m
		}
	}
	return false, nil
}

func TestStraightLineAssign(t *testing.T) {
	ctx, e := setup()
	x := ctx.Var("x", 8)
	y := ctx.Var("y", 8)
	prog := NewSeq(
		&Assign{Var: y, Rhs: ctx.BVAdd(x, ctx.BV(1, 8))},
		&Assert{Cond: ctx.Eq(ctx.Var("y", 8), ctx.BVAdd(x, ctx.BV(1, 8))), Label: "inc"},
	)
	res := e.Encode(prog, nil)
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %d", len(res.Violations))
	}
	if sat, _ := checkViolation(ctx, res); sat {
		t.Fatal("y==x+1 must hold after y:=x+1")
	}
}

func TestAssertCanFail(t *testing.T) {
	ctx, e := setup()
	x := ctx.Var("x", 8)
	prog := &Assert{Cond: ctx.Eq(x, ctx.BV(0, 8)), Label: "zero"}
	res := e.Encode(prog, nil)
	sat, m := checkViolation(ctx, res)
	if !sat {
		t.Fatal("x==0 should be violable for symbolic x")
	}
	if m.Uint64(x) == 0 {
		t.Fatal("counterexample should pick x != 0")
	}
}

func TestAssumeBlocksViolation(t *testing.T) {
	ctx, e := setup()
	x := ctx.Var("x", 8)
	prog := NewSeq(
		&Assume{Cond: ctx.Eq(x, ctx.BV(7, 8))},
		&Assert{Cond: ctx.Eq(x, ctx.BV(7, 8)), Label: "seven"},
	)
	res := e.Encode(prog, nil)
	if sat, _ := checkViolation(ctx, res); sat {
		t.Fatal("assume x==7 should make assert x==7 hold")
	}
}

func TestIfMerging(t *testing.T) {
	ctx, e := setup()
	x := ctx.Var("x", 8)
	y := ctx.Var("y", 8)
	// if (x < 10) y := 1 else y := 2; assert y != 0
	prog := NewSeq(
		&If{
			Cond: ctx.Ult(x, ctx.BV(10, 8)),
			Then: &Assign{Var: y, Rhs: ctx.BV(1, 8)},
			Else: &Assign{Var: y, Rhs: ctx.BV(2, 8)},
		},
		&Assert{Cond: ctx.Neq(ctx.Var("y", 8), ctx.BV(0, 8)), Label: "nonzero"},
	)
	res := e.Encode(prog, nil)
	if sat, _ := checkViolation(ctx, res); sat {
		t.Fatal("y must be 1 or 2 after the conditional")
	}
	// But assert y==1 must be violable (when x >= 10).
	prog2 := NewSeq(
		&If{
			Cond: ctx.Ult(x, ctx.BV(10, 8)),
			Then: &Assign{Var: y, Rhs: ctx.BV(1, 8)},
			Else: &Assign{Var: y, Rhs: ctx.BV(2, 8)},
		},
		&Assert{Cond: ctx.Eq(ctx.Var("y", 8), ctx.BV(1, 8)), Label: "one"},
	)
	res2 := e.Encode(prog2, nil)
	sat, m := checkViolation(ctx, res2)
	if !sat {
		t.Fatal("assert y==1 should fail for x>=10")
	}
	if m.Uint64(x) < 10 {
		t.Fatalf("counterexample x = %d, want >= 10", m.Uint64(x))
	}
}

func TestIfWithoutElse(t *testing.T) {
	ctx, e := setup()
	x := ctx.Var("x", 8)
	y := ctx.Var("y", 8)
	// if (x == 0) y := 5; assert y == 5 — violable when x != 0 (y keeps
	// its initial symbolic value).
	prog := NewSeq(
		&If{Cond: ctx.Eq(x, ctx.BV(0, 8)), Then: &Assign{Var: y, Rhs: ctx.BV(5, 8)}},
		&Assert{Cond: ctx.Eq(ctx.Var("y", 8), ctx.BV(5, 8)), Label: "five"},
	)
	res := e.Encode(prog, nil)
	sat, m := checkViolation(ctx, res)
	if !sat {
		t.Fatal("should be violable")
	}
	if m.Uint64(x) == 0 {
		t.Fatal("counterexample must have x != 0")
	}
}

func TestChoice(t *testing.T) {
	ctx, e := setup()
	y := ctx.Var("y", 8)
	prog := NewSeq(
		&Choice{
			A: &Assign{Var: y, Rhs: ctx.BV(1, 8)},
			B: &Assign{Var: y, Rhs: ctx.BV(2, 8)},
		},
		&Assert{Cond: ctx.Ult(ctx.Var("y", 8), ctx.BV(3, 8)), Label: "lt3"},
	)
	res := e.Encode(prog, nil)
	if sat, _ := checkViolation(ctx, res); sat {
		t.Fatal("both branches give y < 3")
	}
	prog2 := NewSeq(
		&Choice{
			A: &Assign{Var: y, Rhs: ctx.BV(1, 8)},
			B: &Assign{Var: y, Rhs: ctx.BV(2, 8)},
		},
		&Assert{Cond: ctx.Eq(ctx.Var("y", 8), ctx.BV(1, 8)), Label: "eq1"},
	)
	res2 := e.Encode(prog2, nil)
	if sat, _ := checkViolation(ctx, res2); !sat {
		t.Fatal("demonic choice can pick y=2, violating y==1")
	}
}

func TestHavoc(t *testing.T) {
	ctx, e := setup()
	y := ctx.Var("y", 8)
	prog := NewSeq(
		&Assign{Var: y, Rhs: ctx.BV(1, 8)},
		&Havoc{Var: y},
		&Assert{Cond: ctx.Eq(ctx.Var("y", 8), ctx.BV(1, 8)), Label: "eq1"},
	)
	res := e.Encode(prog, nil)
	if sat, _ := checkViolation(ctx, res); !sat {
		t.Fatal("havoced variable should violate y==1")
	}
}

func TestBoundedWhile(t *testing.T) {
	ctx, e := setup()
	i := ctx.Var("i", 8)
	// i := 0; while (i < 3) bound 5 { i := i + 1 }; assert i == 3
	prog := NewSeq(
		&Assign{Var: i, Rhs: ctx.BV(0, 8)},
		&While{
			Cond:  ctx.Ult(ctx.Var("i", 8), ctx.BV(3, 8)),
			Body:  &Assign{Var: i, Rhs: ctx.BVAdd(ctx.Var("i", 8), ctx.BV(1, 8))},
			Bound: 5,
		},
		&Assert{Cond: ctx.Eq(ctx.Var("i", 8), ctx.BV(3, 8)), Label: "three"},
	)
	res := e.Encode(prog, nil)
	if sat, _ := checkViolation(ctx, res); sat {
		t.Fatal("loop should terminate with i==3")
	}
}

func TestWhileBoundTooSmallPrunes(t *testing.T) {
	ctx, e := setup()
	i := ctx.Var("i", 8)
	// Bound 2 cannot reach i==3; executions beyond the bound are pruned by
	// the final assume, so the assert trivially holds on remaining paths
	// where the loop exits... it never exits within bound, so no path
	// reaches the assert with i<3 assumed false — path condition is false
	// and violation is unsatisfiable.
	prog := NewSeq(
		&Assign{Var: i, Rhs: ctx.BV(0, 8)},
		&While{
			Cond:  ctx.Ult(ctx.Var("i", 8), ctx.BV(3, 8)),
			Body:  &Assign{Var: i, Rhs: ctx.BVAdd(ctx.Var("i", 8), ctx.BV(1, 8))},
			Bound: 2,
		},
		&Assert{Cond: ctx.Eq(ctx.Var("i", 8), ctx.BV(99, 8)), Label: "bogus"},
	)
	res := e.Encode(prog, nil)
	if sat, _ := checkViolation(ctx, res); sat {
		t.Fatal("no execution completes within bound; violation must be unsat")
	}
}

func TestSeqFlattening(t *testing.T) {
	ctx, _ := setup()
	y := ctx.Var("y", 8)
	inner := NewSeq(&Assign{Var: y, Rhs: ctx.BV(1, 8)}, &Skip{})
	outer := NewSeq(inner, NewSeq(), &Assign{Var: y, Rhs: ctx.BV(2, 8)})
	seq, ok := outer.(*Seq)
	if !ok || len(seq.Stmts) != 2 {
		t.Fatalf("flattened = %s", Pretty(outer))
	}
	if NewSeq() == nil {
		t.Fatal("empty seq should be Skip, not nil")
	}
	if _, ok := NewSeq().(*Skip); !ok {
		t.Fatal("empty seq should be Skip")
	}
}

func TestPrettyAndSize(t *testing.T) {
	ctx, _ := setup()
	y := ctx.Var("y", 8)
	prog := NewSeq(
		&Assume{Cond: ctx.Ult(y, ctx.BV(5, 8))},
		&If{Cond: ctx.Eq(y, ctx.BV(0, 8)),
			Then: &Assign{Var: y, Rhs: ctx.BV(1, 8)},
			Else: &Havoc{Var: y}},
		&Assert{Cond: ctx.True(), Label: "t"},
	)
	s := Pretty(prog)
	for _, want := range []string{"assume", "if", "havoc", "assert[t]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Pretty output missing %q:\n%s", want, s)
		}
	}
	if n := Size(prog); n != 5 { // assume, if, assign, havoc, assert
		t.Fatalf("Size = %d, want 5", n)
	}
}

func TestViolationReachAndCheck(t *testing.T) {
	ctx, e := setup()
	x := ctx.Var("x", 8)
	prog := NewSeq(
		&Assume{Cond: ctx.Ult(x, ctx.BV(10, 8))},
		&Assert{Cond: ctx.Ult(x, ctx.BV(5, 8)), Label: "lt5"},
	)
	res := e.Encode(prog, nil)
	v := res.Violations[0]
	if v.Label != "lt5" {
		t.Fatalf("label = %q", v.Label)
	}
	// Reach should be exactly the assume; Check the asserted condition.
	s := smt.NewSolver(ctx)
	s.Assert(ctx.Iff(v.Reach, ctx.Ult(x, ctx.BV(10, 8))))
	if s.Check(ctx.Not(ctx.Iff(v.Reach, ctx.Ult(x, ctx.BV(10, 8))))) != smt.Unsat {
		t.Fatal("Reach should equal the assume condition")
	}
}

// TestDAGLinearity is the scalability property behind §4: a chain of n
// conditionals produces an encoding whose DAG size grows linearly, not
// exponentially.
func TestDAGLinearity(t *testing.T) {
	sizeFor := func(n int) int {
		ctx, e := setup()
		x := ctx.Var("x", 8)
		var stmts []Stmt
		for i := 0; i < n; i++ {
			stmts = append(stmts, &If{
				Cond: ctx.Eq(ctx.Var("x", 8), ctx.BV(uint64(i), 8)),
				Then: &Assign{Var: x, Rhs: ctx.BVAdd(ctx.Var("x", 8), ctx.BV(1, 8))},
				Else: &Assign{Var: x, Rhs: ctx.BVSub(ctx.Var("x", 8), ctx.BV(1, 8))},
			})
		}
		stmts = append(stmts, &Assert{Cond: ctx.Ult(ctx.Var("x", 8), ctx.BV(255, 8)), Label: "a"})
		res := e.Encode(NewSeq(stmts...), nil)
		return smt.TermSize(res.Violations[0].Cond)
	}
	s10, s20 := sizeFor(10), sizeFor(20)
	if s20 > 3*s10 {
		t.Fatalf("encoding not DAG-linear: size(10)=%d size(20)=%d", s10, s20)
	}
}

// TestSubstTwoStoresOneEncoder: one encoder substitutes the same term
// under two stores; its per-call memo must not carry the first store's
// results into the second call.
func TestSubstTwoStoresOneEncoder(t *testing.T) {
	ctx, e := setup()
	x, y := ctx.Var("x", 8), ctx.Var("y", 8)
	term := ctx.Eq(ctx.BVAdd(x, ctx.BV(1, 8)), y)
	s1, s2 := NewStore(), NewStore()
	s1.Set("x", ctx.BV(3, 8))
	s2.Set("x", ctx.BV(4, 8))
	got1 := e.Subst(term, s1)
	got2 := e.Subst(term, s2)
	if want := ctx.Eq(ctx.BV(4, 8), y); got1 != want {
		t.Fatalf("Subst under x=3 = %s, want %s", got1, want)
	}
	if want := ctx.Eq(ctx.BV(5, 8), y); got2 != want {
		t.Fatalf("Subst under x=4 = %s, want %s", got2, want)
	}
	if got := e.Subst(term, NewStore()); got != term {
		t.Fatalf("Subst under an empty store = %s, want the term itself", got)
	}
}
