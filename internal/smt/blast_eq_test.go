package smt

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"aquila/internal/sat"
)

// eqChainReference is the equality encoding the n-ary gate replaced: a
// chain of w−1 binary AND gates over the per-bit XNORs.
func eqChainReference(b *blaster, x, y []sat.Lit) sat.Lit {
	out := b.litTrue
	for i := range x {
		out = b.and(out, b.xor(x[i], y[i]).Not())
	}
	return out
}

// randConst returns a w-bit constant term with random bits.
func randConst(c *Ctx, rng *rand.Rand, w int) *Term {
	v := new(big.Int)
	for i := 0; i < w; i++ {
		v.SetBit(v, i, uint(rng.Intn(2)))
	}
	return c.BVBig(v, w)
}

// TestEqGateMatchesChain checks the n-ary equality gate against the
// binary chain on one solver: for every width 1–128 and operand shape,
// gate XOR chain must be Unsat. The shapes cover the gate's folding
// rules — constant bits, duplicate literals from shared bits, and
// complementary literals from BVNot.
func TestEqGateMatchesChain(t *testing.T) {
	type shape struct {
		name string
		ops  func(c *Ctx, rng *rand.Rand, w int) (x, y *Term)
	}
	shapes := []shape{
		{"var_var", func(c *Ctx, _ *rand.Rand, w int) (*Term, *Term) {
			return c.Var("a", w), c.Var("b", w)
		}},
		{"var_const", func(c *Ctx, rng *rand.Rand, w int) (*Term, *Term) {
			return c.Var("a", w), randConst(c, rng, w)
		}},
		{"const_equal", func(c *Ctx, rng *rand.Rand, w int) (*Term, *Term) {
			k := randConst(c, rng, w)
			return k, k
		}},
		{"const_unequal", func(c *Ctx, rng *rand.Rand, w int) (*Term, *Term) {
			k := randConst(c, rng, w)
			return k, c.BVNot(k)
		}},
		{"var_not_self", func(c *Ctx, _ *rand.Rand, w int) (*Term, *Term) {
			a := c.Var("a", w)
			return a, c.BVNot(a)
		}},
		{"shared_same_const", func(c *Ctx, rng *rand.Rand, w int) (*Term, *Term) {
			a, k := c.Var("a", w), randConst(c, rng, w)
			return c.Concat(a, a), c.Concat(k, k)
		}},
		{"shared_diff_const", func(c *Ctx, rng *rand.Rand, w int) (*Term, *Term) {
			a, k := c.Var("a", w), randConst(c, rng, w)
			return c.Concat(a, a), c.Concat(k, c.BVNot(k))
		}},
		{"shared_extract", func(c *Ctx, rng *rand.Rand, w int) (*Term, *Term) {
			a := c.Var("a", w)
			aa := c.Concat(a, a)
			lo := w / 2
			x := c.Extract(aa, lo+w-1, lo)
			return x, randConst(c, rng, w)
		}},
		{"complement_same", func(c *Ctx, rng *rand.Rand, w int) (*Term, *Term) {
			a, k := c.Var("a", w), randConst(c, rng, w)
			return c.Concat(a, c.BVNot(a)), c.Concat(k, c.BVNot(k))
		}},
		{"complement_clash", func(c *Ctx, rng *rand.Rand, w int) (*Term, *Term) {
			a, k := c.Var("a", w), randConst(c, rng, w)
			return c.Concat(a, c.BVNot(a)), c.Concat(k, k)
		}},
	}
	rng := rand.New(rand.NewSource(1))
	s := new(Solver)
	for w := 1; w <= 128; w++ {
		for _, sh := range shapes {
			c := NewCtx()
			s.Reset(c)
			x, y := sh.ops(c, rng, w)
			bx, by := s.b.bv(x), s.b.bv(y)
			gate := s.b.eq(bx, by)
			ref := eqChainReference(s.b, bx, by)
			if st := s.CheckLits(s.b.xor(gate, ref)); st != Unsat {
				t.Fatalf("%s w=%d: gate XOR chain is %v, want Unsat", sh.name, w, st)
			}
		}
	}
}

// TestEqGateCost pins the gate's size: a w-bit var-vs-const equality
// costs exactly one SAT var and w+1 clauses (the chain cost w−1 vars and
// 3(w−1) clauses), and width 1 is the bit's literal itself.
func TestEqGateCost(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range []int{1, 2, 8, 16, 32, 48, 128} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			c := NewCtx()
			s := NewSolver(c)
			a := s.b.bv(c.Var("a", w))
			k := s.b.bv(randConst(c, rng, w))
			vars, clauses := s.NumSATVars(), s.b.clausesEmitted
			s.b.eq(a, k)
			wantVars, wantClauses := 1, int64(w+1)
			if w == 1 {
				wantVars, wantClauses = 0, 0
			}
			if got := s.NumSATVars() - vars; got != wantVars {
				t.Errorf("vars: got %d, want %d", got, wantVars)
			}
			if got := s.b.clausesEmitted - clauses; got != wantClauses {
				t.Errorf("clauses: got %d, want %d", got, wantClauses)
			}
		})
	}
}

// TestEqScratchSurvivesReset pins that the gate's literal scratch keeps
// its capacity across Reset, so a recycled solver blasts equalities
// without regrowing it.
func TestEqScratchSurvivesReset(t *testing.T) {
	c := NewCtx()
	s := NewSolver(c)
	s.Assert(c.Eq(c.Var("a", 64), c.Var("b", 64)))
	grown := cap(s.b.eqLits)
	if grown < 64 {
		t.Fatalf("scratch capacity %d after a 64-bit equality, want >= 64", grown)
	}
	s.Reset(c)
	if got := cap(s.b.eqLits); got != grown {
		t.Fatalf("scratch capacity %d after Reset, want %d", got, grown)
	}
}
