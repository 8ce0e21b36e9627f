package smt

import (
	"fmt"
	"math/big"
	"testing"
)

// TestBlastSmallWidthExhaustive checks the blaster's adder, multiplier and
// barrel-shifter paths against the reference evaluator for EVERY input pair
// at degenerate and non-power-of-two widths (1, 2, 3, 5). Shift amounts
// come from the full operand range, so the overflow-zeroing stages of the
// barrel shifter are covered too.
func TestBlastSmallWidthExhaustive(t *testing.T) {
	type opCase struct {
		name  string
		unary bool
		build func(c *Ctx, x, y *Term) *Term
	}
	ops := []opCase{
		{"add", false, func(c *Ctx, x, y *Term) *Term { return c.BVAdd(x, y) }},
		{"sub", false, func(c *Ctx, x, y *Term) *Term { return c.BVSub(x, y) }},
		{"neg", true, func(c *Ctx, x, _ *Term) *Term { return c.BVNeg(x) }},
		{"mul", false, func(c *Ctx, x, y *Term) *Term { return c.BVMul(x, y) }},
		{"shl", false, func(c *Ctx, x, y *Term) *Term { return c.BVShl(x, y) }},
		{"lshr", false, func(c *Ctx, x, y *Term) *Term { return c.BVLshr(x, y) }},
	}
	for _, w := range []int{1, 2, 3, 5} {
		for _, op := range ops {
			t.Run(fmt.Sprintf("%s_w%d", op.name, w), func(t *testing.T) {
				c := NewCtx()
				x, y := c.Var("x", w), c.Var("y", w)
				out := c.Var("out", w)
				term := op.build(c, x, y)
				s := NewSolver(c)
				s.Assert(c.Eq(term, out))
				n := 1 << w
				ym := n
				if op.unary {
					ym = 1
				}
				env := NewEnv()
				for a := 0; a < n; a++ {
					for b := 0; b < ym; b++ {
						env.BV["x"] = big.NewInt(int64(a))
						env.BV["y"] = big.NewInt(int64(b))
						want := EvalBV(term, env)
						ax := c.Eq(x, c.BV(uint64(a), w))
						ay := c.Eq(y, c.BV(uint64(b), w))
						if st := s.Check(ax, ay, c.Eq(out, c.BVBig(want, w))); st != Sat {
							t.Fatalf("x=%d y=%d: out=%v should be sat, got %v", a, b, want, st)
						}
						if st := s.Check(ax, ay, c.Neq(out, c.BVBig(want, w))); st != Unsat {
							t.Fatalf("x=%d y=%d: out!=%v should be unsat, got %v", a, b, want, st)
						}
					}
				}
			})
		}
	}
}

// TestBlastCompareSmallWidthExhaustive does the same for the comparison
// chains (Eq, Ult, Ule), whose LSB-to-MSB mux ladder degenerates at width 1.
func TestBlastCompareSmallWidthExhaustive(t *testing.T) {
	type cmpCase struct {
		name  string
		build func(c *Ctx, x, y *Term) *Term
		eval  func(a, b int) bool
	}
	cmps := []cmpCase{
		{"eq", func(c *Ctx, x, y *Term) *Term { return c.Eq(x, y) },
			func(a, b int) bool { return a == b }},
		{"ult", func(c *Ctx, x, y *Term) *Term { return c.Ult(x, y) },
			func(a, b int) bool { return a < b }},
		{"ule", func(c *Ctx, x, y *Term) *Term { return c.Ule(x, y) },
			func(a, b int) bool { return a <= b }},
	}
	for _, w := range []int{1, 2, 3, 5} {
		for _, cmp := range cmps {
			t.Run(fmt.Sprintf("%s_w%d", cmp.name, w), func(t *testing.T) {
				c := NewCtx()
				x, y := c.Var("x", w), c.Var("y", w)
				p := cmp.build(c, x, y)
				s := NewSolver(c)
				n := 1 << w
				for a := 0; a < n; a++ {
					for b := 0; b < n; b++ {
						ax := c.Eq(x, c.BV(uint64(a), w))
						ay := c.Eq(y, c.BV(uint64(b), w))
						want := cmp.eval(a, b)
						st := s.Check(ax, ay, p)
						if (st == Sat) != want {
							t.Fatalf("x=%d y=%d: %s = %v, want %v", a, b, cmp.name, st, want)
						}
						st = s.Check(ax, ay, c.Not(p))
						if (st == Sat) != !want {
							t.Fatalf("x=%d y=%d: !%s = %v, want %v", a, b, cmp.name, st, !want)
						}
					}
				}
			})
		}
	}
}
