package smt

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestConstFolding(t *testing.T) {
	c := NewCtx()
	a := c.BV(5, 8)
	b := c.BV(3, 8)
	if got := c.BVAdd(a, b); !got.IsConst() || got.ConstUint64() != 8 {
		t.Fatalf("5+3 = %v", got)
	}
	if got := c.BVSub(a, b); got.ConstUint64() != 2 {
		t.Fatalf("5-3 = %v", got)
	}
	if got := c.BVSub(b, a); got.ConstUint64() != 254 {
		t.Fatalf("3-5 mod 256 = %v", got)
	}
	if got := c.BVMul(a, b); got.ConstUint64() != 15 {
		t.Fatalf("5*3 = %v", got)
	}
	if got := c.BVAnd(a, b); got.ConstUint64() != 1 {
		t.Fatalf("5&3 = %v", got)
	}
	if got := c.BVShl(a, c.BV(2, 8)); got.ConstUint64() != 20 {
		t.Fatalf("5<<2 = %v", got)
	}
	if got := c.Eq(a, a); got != c.True() {
		t.Fatalf("a==a should fold to true")
	}
	if got := c.Ult(b, a); got != c.True() {
		t.Fatalf("3<5 should fold to true")
	}
	if got := c.Extract(c.BV(0xAB, 8), 7, 4); got.ConstUint64() != 0xA {
		t.Fatalf("extract hi nibble = %v", got)
	}
	if got := c.Concat(c.BV(0xA, 4), c.BV(0xB, 4)); got.ConstUint64() != 0xAB {
		t.Fatalf("concat = %v", got)
	}
}

func TestHashConsing(t *testing.T) {
	c := NewCtx()
	x := c.Var("x", 8)
	y := c.Var("y", 8)
	if c.Var("x", 8) != x {
		t.Fatal("same var interned twice")
	}
	if c.BVAdd(x, y) != c.BVAdd(y, x) {
		t.Fatal("commutative op should be canonicalized")
	}
	if c.Not(c.Not(c.Eq(x, y))) != c.Eq(x, y) {
		t.Fatal("double negation should cancel")
	}
}

func TestIdentities(t *testing.T) {
	c := NewCtx()
	x := c.Var("x", 16)
	zero := c.BV(0, 16)
	ones := c.BV(0xFFFF, 16)
	if c.BVAnd(x, zero) != zero {
		t.Fatal("x&0 != 0")
	}
	if c.BVAnd(x, ones) != x {
		t.Fatal("x&ones != x")
	}
	if c.BVOr(x, zero) != x {
		t.Fatal("x|0 != x")
	}
	if c.BVAdd(x, zero) != x {
		t.Fatal("x+0 != x")
	}
	if c.BVXor(x, x).ConstUint64() != 0 {
		t.Fatal("x^x != 0")
	}
	if c.BVNot(c.BVNot(x)) != x {
		t.Fatal("~~x != x")
	}
	if c.Ite(c.True(), x, zero) != x {
		t.Fatal("ite(true,x,0) != x")
	}
}

func TestSolveSimpleEquation(t *testing.T) {
	c := NewCtx()
	s := NewSolver(c)
	x := c.Var("x", 8)
	// x + 3 == 10  =>  x == 7
	s.Assert(c.Eq(c.BVAdd(x, c.BV(3, 8)), c.BV(10, 8)))
	if got := s.Check(); got != Sat {
		t.Fatalf("Check = %v", got)
	}
	if v := s.Model().Uint64(x); v != 7 {
		t.Fatalf("x = %d, want 7", v)
	}
}

func TestSolveUnsat(t *testing.T) {
	c := NewCtx()
	s := NewSolver(c)
	x := c.Var("x", 8)
	s.Assert(c.Ult(x, c.BV(5, 8)))
	s.Assert(c.Ugt(x, c.BV(10, 8)))
	if got := s.Check(); got != Unsat {
		t.Fatalf("Check = %v, want Unsat", got)
	}
}

func TestSolveOverflowWraps(t *testing.T) {
	c := NewCtx()
	s := NewSolver(c)
	x := c.Var("x", 8)
	// x + 1 == 0 has solution x == 255.
	s.Assert(c.Eq(c.BVAdd(x, c.BV(1, 8)), c.BV(0, 8)))
	if got := s.Check(); got != Sat {
		t.Fatalf("Check = %v", got)
	}
	if v := s.Model().Uint64(x); v != 255 {
		t.Fatalf("x = %d, want 255", v)
	}
}

func TestAssumptions(t *testing.T) {
	c := NewCtx()
	s := NewSolver(c)
	x := c.Var("x", 4)
	s.Assert(c.Ult(x, c.BV(8, 4)))
	big7 := c.Eq(x, c.BV(7, 4))
	small := c.Ult(x, c.BV(3, 4))
	if s.Check(big7) != Sat {
		t.Fatal("x==7 should be sat")
	}
	if s.Check(big7, small) != Unsat {
		t.Fatal("x==7 && x<3 should be unsat")
	}
	if s.Check(small) != Sat {
		t.Fatal("x<3 should be sat after unsat check (incrementality)")
	}
}

func TestWideBitvectors(t *testing.T) {
	c := NewCtx()
	s := NewSolver(c)
	x := c.Var("x", 128)
	v := new(big.Int).Lsh(big.NewInt(1), 100) // 2^100
	s.Assert(c.Eq(x, c.BVBig(v, 128)))
	if s.Check() != Sat {
		t.Fatal("wide equality should be sat")
	}
	if got := s.Model().BV(x); got.Cmp(v) != 0 {
		t.Fatalf("x = %v, want 2^100", got)
	}
}

func TestIteAndComparisons(t *testing.T) {
	c := NewCtx()
	s := NewSolver(c)
	x := c.Var("x", 8)
	y := c.Ite(c.Ult(x, c.BV(10, 8)), c.BV(1, 8), c.BV(2, 8))
	s.Assert(c.Eq(y, c.BV(2, 8)))
	if s.Check() != Sat {
		t.Fatal("should be sat")
	}
	if v := s.Model().Uint64(x); v < 10 {
		t.Fatalf("x = %d should be >= 10", v)
	}
}

// randTerm builds a random bit-vector term over the given variables.
func randTerm(c *Ctx, rng *rand.Rand, vars []*Term, depth int) *Term {
	w := vars[0].Width
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			return vars[rng.Intn(len(vars))]
		}
		return c.BV(rng.Uint64(), w)
	}
	a := randTerm(c, rng, vars, depth-1)
	b := randTerm(c, rng, vars, depth-1)
	switch rng.Intn(10) {
	case 0:
		return c.BVAdd(a, b)
	case 1:
		return c.BVSub(a, b)
	case 2:
		return c.BVAnd(a, b)
	case 3:
		return c.BVOr(a, b)
	case 4:
		return c.BVXor(a, b)
	case 5:
		return c.BVNot(a)
	case 6:
		return c.BVMul(a, b)
	case 7:
		return c.Ite(c.Ult(a, b), a, b)
	case 8:
		return c.BVShl(a, c.BV(uint64(rng.Intn(w)), w))
	default:
		return c.BVLshr(a, c.BV(uint64(rng.Intn(w)), w))
	}
}

// TestBlasterAgainstEvaluator is the core soundness property: for random
// terms t and random concrete inputs, the bit-blasted formula constrained
// to those inputs must force t to its evaluator value.
//
// Every check is also replayed on one solver reset across all seeds (and
// so across term contexts): its verdicts, SolverStats and models must
// equal the new solver's.
func TestBlasterAgainstEvaluator(t *testing.T) {
	reused := NewSolver(NewCtx())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCtx()
		w := []int{1, 4, 8, 16}[rng.Intn(4)]
		x := c.Var("x", w)
		y := c.Var("y", w)
		term := randTerm(c, rng, []*Term{x, y}, 3)

		env := NewEnv()
		xv := new(big.Int).SetUint64(rng.Uint64())
		yv := new(big.Int).SetUint64(rng.Uint64())
		env.BV["x"] = normConst(xv, w)
		env.BV["y"] = normConst(yv, w)
		want := EvalBV(term, env)

		s := NewSolver(c)
		reused.Reset(c)
		for _, sv := range []*Solver{s, reused} {
			sv.Assert(c.Eq(x, c.BVBig(xv, w)))
			sv.Assert(c.Eq(y, c.BVBig(yv, w)))
		}
		// The term must equal its evaluated value...
		if sameCheck(t, s, reused, c.Eq(term, c.BVBig(want, w))) != Sat {
			return false
		}
		// ...and cannot differ from it.
		return sameCheck(t, s, reused, c.Neq(term, c.BVBig(want, w))) == Unsat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestBoolOpsAgainstEvaluator(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCtx()
		x := c.Var("x", 8)
		y := c.Var("y", 8)
		a := randTerm(c, rng, []*Term{x, y}, 2)
		b := randTerm(c, rng, []*Term{x, y}, 2)
		var p *Term
		switch rng.Intn(5) {
		case 0:
			p = c.Eq(a, b)
		case 1:
			p = c.Ult(a, b)
		case 2:
			p = c.Ule(a, b)
		case 3:
			p = c.And(c.Eq(a, b), c.Ult(a, b)) // always false, still valid
		default:
			p = c.Or(c.Ule(a, b), c.Ugt(a, b)) // tautology
		}
		env := NewEnv()
		env.BV["x"] = normConst(new(big.Int).SetUint64(rng.Uint64()), 8)
		env.BV["y"] = normConst(new(big.Int).SetUint64(rng.Uint64()), 8)
		want := EvalBool(p, env)

		s := NewSolver(c)
		s.Assert(c.Eq(x, c.BVBig(env.BV["x"], 8)))
		s.Assert(c.Eq(y, c.BVBig(env.BV["y"], 8)))
		got := s.Check(p)
		if want {
			return got == Sat
		}
		return got == Unsat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMaximize(t *testing.T) {
	c := NewCtx()
	s := NewSolver(c)
	x := c.Var("x", 8)
	// Hard: x < 10. Soft: x==3, x==4, x<5 — at most two can hold (x==3&x<5
	// or x==4&x<5).
	soft := []*Term{
		c.Eq(x, c.BV(3, 8)),
		c.Eq(x, c.BV(4, 8)),
		c.Ult(x, c.BV(5, 8)),
	}
	s.Assert(c.Ult(x, c.BV(10, 8)))
	m, n, st := s.Maximize(soft)
	if st != Sat {
		t.Fatalf("Maximize status = %v, want Sat", st)
	}
	if n != 2 {
		t.Fatalf("Maximize satisfied %d soft, want 2", n)
	}
	v := m.Uint64(x)
	if v != 3 && v != 4 {
		t.Fatalf("x = %d, want 3 or 4", v)
	}
}

func TestMaximizeAllSatisfiable(t *testing.T) {
	c := NewCtx()
	s := NewSolver(c)
	x := c.Var("x", 8)
	soft := []*Term{c.Ult(x, c.BV(100, 8)), c.Ugt(x, c.BV(50, 8))}
	_, n, st := s.Maximize(soft)
	if st != Sat || n != 2 {
		t.Fatalf("Maximize = (%d, %v), want (2, Sat)", n, st)
	}
}

func TestMaximizeHardUnsat(t *testing.T) {
	c := NewCtx()
	s := NewSolver(c)
	x := c.Var("x", 8)
	s.Assert(c.Ult(x, c.BV(5, 8)))
	s.Assert(c.Ugt(x, c.BV(5, 8)))
	if _, _, st := s.Maximize([]*Term{c.True()}); st != Unsat {
		t.Fatalf("Maximize status = %v, want Unsat (not Unknown: no budget involved)", st)
	}
}

func TestUnsatAssumptions(t *testing.T) {
	c := NewCtx()
	s := NewSolver(c)
	x := c.Var("x", 8)
	assumptions := []*Term{
		c.Eq(x, c.BV(1, 8)),
		c.Eq(x, c.BV(2, 8)),
		c.Ult(x, c.BV(200, 8)),
	}
	if s.Check(assumptions...) != Unsat {
		t.Fatal("conflicting assumptions should be unsat")
	}
	core := s.UnsatAssumptions(assumptions)
	if len(core) == 0 {
		t.Fatal("empty core")
	}
	for _, i := range core {
		if i == 2 {
			t.Fatalf("core %v contains irrelevant assumption index 2", core)
		}
	}
}

func TestVarsAndTermSize(t *testing.T) {
	c := NewCtx()
	x := c.Var("x", 8)
	y := c.Var("y", 8)
	tm := c.BVAdd(c.BVAnd(x, y), x)
	vars := Vars(tm)
	if len(vars) != 2 || vars[0].Name != "x" || vars[1].Name != "y" {
		t.Fatalf("Vars = %v", vars)
	}
	if n := TermSize(tm); n != 4 { // x, y, x&y, (x&y)+x
		t.Fatalf("TermSize = %d, want 4", n)
	}
}

func TestResize(t *testing.T) {
	c := NewCtx()
	x := c.BV(0xAB, 8)
	if got := c.Resize(x, 16); got.ConstUint64() != 0xAB || got.Width != 16 {
		t.Fatalf("widen = %v", got)
	}
	if got := c.Resize(x, 4); got.ConstUint64() != 0xB || got.Width != 4 {
		t.Fatalf("narrow = %v", got)
	}
	if got := c.Resize(x, 8); got != x {
		t.Fatal("same-width resize should be identity")
	}
}

func TestShiftBySymbolicAmount(t *testing.T) {
	c := NewCtx()
	s := NewSolver(c)
	x := c.Var("x", 8)
	sh := c.Var("sh", 8)
	// x == 1 && (x << sh) == 8  =>  sh == 3
	s.Assert(c.Eq(x, c.BV(1, 8)))
	s.Assert(c.Eq(c.BVShl(x, sh), c.BV(8, 8)))
	if s.Check() != Sat {
		t.Fatal("should be sat")
	}
	if v := s.Model().Uint64(sh); v != 3 {
		t.Fatalf("sh = %d, want 3", v)
	}
	// Oversized shift yields zero.
	s2 := NewSolver(c)
	s2.Assert(c.Eq(sh, c.BV(200, 8)))
	s2.Assert(c.Neq(c.BVShl(x, sh), c.BV(0, 8)))
	if s2.Check() != Unsat {
		t.Fatal("shift by >= width must be zero")
	}
}

func TestEvalBoolIteAndImplies(t *testing.T) {
	c := NewCtx()
	p := c.BoolVar("p")
	q := c.BoolVar("q")
	env := NewEnv()
	env.Bool["p"] = true
	env.Bool["q"] = false
	if EvalBool(c.Implies(p, q), env) {
		t.Fatal("true->false should be false")
	}
	if !EvalBool(c.BoolIte(p, c.True(), q), env) {
		t.Fatal("ite(true, true, q) should be true")
	}
	if !EvalBool(c.Iff(q, c.False()), env) {
		t.Fatal("q<->false should be true when q=false")
	}
}

// TestQuickMaximizeOptimal checks MaxSAT optimality against brute force:
// over a small domain, Maximize must satisfy exactly the maximum number of
// soft constraints achievable.
func TestQuickMaximizeOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCtx()
		s := NewSolver(c)
		x := c.Var("x", 4)
		// Hard: a random interval constraint.
		lo := uint64(rng.Intn(8))
		hi := lo + uint64(rng.Intn(8))
		s.Assert(c.Uge(x, c.BV(lo, 4)))
		s.Assert(c.Ule(x, c.BV(hi, 4)))
		// Soft: random point and interval predicates.
		type pred struct{ kind, a, b uint64 }
		var preds []pred
		var soft []*Term
		for i := 0; i < 1+rng.Intn(6); i++ {
			p := pred{kind: uint64(rng.Intn(2)), a: uint64(rng.Intn(16)), b: uint64(rng.Intn(16))}
			preds = append(preds, p)
			if p.kind == 0 {
				soft = append(soft, c.Eq(x, c.BV(p.a, 4)))
			} else {
				soft = append(soft, c.Ule(c.BV(min64(p.a, p.b), 4), x))
			}
		}
		_, got, st := s.Maximize(soft)
		if st != Sat {
			return lo > hi // hard unsat only if interval empty (cannot happen here)
		}
		// Brute force the optimum.
		best := -1
		for v := lo; v <= hi && v < 16; v++ {
			n := 0
			for _, p := range preds {
				if p.kind == 0 {
					if v == p.a {
						n++
					}
				} else if min64(p.a, p.b) <= v {
					n++
				}
			}
			if n > best {
				best = n
			}
		}
		return got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// sameCheck checks assumptions on fresh and on reused and fails t unless
// both give the same verdict, the same SolverStats and, when Sat, the
// same model. It returns fresh's verdict.
func sameCheck(t *testing.T, fresh, reused *Solver, assumptions ...*Term) Status {
	t.Helper()
	st := fresh.Check(assumptions...)
	if got := reused.Check(assumptions...); got != st {
		t.Errorf("reset solver: %v, new solver: %v", got, st)
	}
	if a, b := reused.SolverStats(), fresh.SolverStats(); a != b {
		t.Errorf("reset solver stats %+v, new solver stats %+v", a, b)
	}
	if st == Sat {
		if a, b := reused.Model().Env(), fresh.Model().Env(); !reflect.DeepEqual(a, b) {
			t.Errorf("reset solver model %v, new solver model %v", a, b)
		}
	}
	return st
}

// TestSolverStats pins the instrumentation snapshot: blasting a fresh
// formula misses the per-term caches, emits Tseitin clauses, and the
// snapshot agrees with the solver's own clause/variable accessors. The
// same checks also run on a solver reset after unrelated work on another
// context, which must match the new solver.
func TestSolverStats(t *testing.T) {
	reused := NewSolver(NewCtx())
	reused.SetBudget(5)
	reused.Assert(reused.Ctx().Ult(reused.Ctx().Var("z", 16), reused.Ctx().BV(3, 16)))
	if got := reused.Check(); got != Sat {
		t.Fatalf("warm-up Check = %v, want Sat", got)
	}

	c := NewCtx()
	x := c.Var("x", 8)
	y := c.Var("y", 8)
	s := NewSolver(c)
	reused.Reset(c)
	sum := c.BVAdd(x, y)
	for _, sv := range []*Solver{s, reused} {
		sv.Assert(c.Eq(sum, c.BV(10, 8)))
		// Re-use of sum's bits in a second assertion must hit the blast cache.
		sv.Assert(c.Ult(sum, c.BV(200, 8)))
	}
	if got := sameCheck(t, s, reused); got != Sat {
		t.Fatalf("Check = %v, want Sat", got)
	}
	ss := s.SolverStats()
	if ss.TseitinClauses == 0 {
		t.Error("TseitinClauses = 0, want > 0")
	}
	if ss.BlastMisses == 0 {
		t.Error("BlastMisses = 0, want > 0 (fresh terms)")
	}
	if ss.BlastHits == 0 {
		t.Error("BlastHits = 0, want > 0 (sum blasted once, used twice)")
	}
	if ss.Clauses != s.NumClauses() {
		t.Errorf("Clauses = %d, NumClauses = %d", ss.Clauses, s.NumClauses())
	}
	if ss.SATVars != s.NumSATVars() {
		t.Errorf("SATVars = %d, NumSATVars = %d", ss.SATVars, s.NumSATVars())
	}
	if ss.TseitinClauses < int64(ss.Clauses)-1 {
		// Emitted >= retained (AddClause drops satisfied/tautological
		// clauses; the blaster's initial true-literal unit is uncounted).
		t.Errorf("TseitinClauses %d < retained %d - 1", ss.TseitinClauses, ss.Clauses)
	}
	dec, conf, prop := s.Stats()
	if ss.Decisions != dec || ss.Conflicts != conf || ss.Propagations != prop {
		t.Errorf("SolverStats disagrees with Stats(): %v vs (%d,%d,%d)", ss, dec, conf, prop)
	}
}

// TestInternStats: interning the same term twice is one miss then one
// hit; the counters are cumulative on the context.
func TestInternStats(t *testing.T) {
	c := NewCtx()
	h0, m0, f0 := c.InternStats()
	if f0 != 0 {
		t.Errorf("frozenLocks = %d before any sharing, want 0", f0)
	}
	x := c.Var("x", 8)
	t1 := c.BVAdd(x, c.BV(1, 8))
	t2 := c.BVAdd(x, c.BV(1, 8))
	if t1 != t2 {
		t.Fatal("hash-consing broken")
	}
	h1, m1, _ := c.InternStats()
	if m1 <= m0 {
		t.Errorf("intern misses did not grow: %d -> %d", m0, m1)
	}
	if h1 <= h0 {
		t.Errorf("intern hits did not grow (t2 should hit): %d -> %d", h0, h1)
	}
}

// TestMaximizeBudgetUnknown: exhausting the conflict budget during the
// initial hard check must surface as Unknown, not as Unsat (the bug was
// conflating "ran out of budget" with "infeasible").
func TestMaximizeBudgetUnknown(t *testing.T) {
	c := NewCtx()
	s := NewSolver(c)
	// Pigeonhole (9 pigeons, 8 holes) over bool vars: hard-unsat, but any
	// tiny conflict budget runs out long before unsat is established. The
	// fix under test: that exhaustion must surface as Unknown, not Unsat.
	const holes = 8
	p := func(i, j int) *Term { return c.BoolVar("p" + itoa(i) + "_" + itoa(j)) }
	for i := 0; i <= holes; i++ {
		inHole := c.False()
		for j := 0; j < holes; j++ {
			inHole = c.Or(inHole, p(i, j))
		}
		s.Assert(inHole)
	}
	for j := 0; j < holes; j++ {
		for i := 0; i <= holes; i++ {
			for k := i + 1; k <= holes; k++ {
				s.Assert(c.Not(c.And(p(i, j), p(k, j))))
			}
		}
	}
	s.SetBudget(10)
	if _, _, st := s.Maximize(nil); st != Unknown {
		t.Fatalf("Maximize with budget 10 = %v, want Unknown", st)
	}
	// With the budget lifted the same solver proves hard-unsat.
	s.SetBudget(-1)
	if _, _, st := s.Maximize(nil); st != Unsat {
		t.Fatalf("Maximize without budget = %v, want Unsat", st)
	}
}

// TestDeepModelIterative: Model() and Vars() must survive terms tens of
// thousands of nodes deep (parser-state chains produce these). The chain
// is blasted incrementally via Indicator so the blaster's per-term cache
// keeps its own recursion shallow; the model walk then traverses the full
// chain depth.
func TestDeepModelIterative(t *testing.T) {
	const depth = 30_000
	c := NewCtx()
	s := NewSolver(c)
	x := c.BoolVar("x")
	chain := x
	for i := 0; i < depth; i++ {
		cond := c.BoolVar("b" + itoa(i%7))
		chain = c.BoolIte(cond, chain, c.Not(chain))
		s.Indicator(chain) // incremental blast: cache depth stays O(1)
	}
	s.Assert(chain)
	if st := s.Check(); st != Sat {
		t.Fatalf("Check = %v, want Sat", st)
	}
	m := s.Model()
	if !m.Bool(chain) && m.Bool(chain) {
		t.Fatal("unreachable")
	}
	// The model must actually satisfy the asserted chain.
	if !EvalBool(chain, m.Env()) {
		t.Fatal("model does not satisfy the deep chain")
	}
	if n := len(Vars(chain)); n != 8 {
		t.Fatalf("Vars over deep chain = %d names, want 8 (x, b0..b6)", n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
