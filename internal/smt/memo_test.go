package smt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// mapVars is the map-based free-variable walk Memo.Vars replaced, kept
// as the reference: same traversal order, a map for the visited set.
func mapVars(t *Term) []*Term {
	seen := map[int]bool{t.ID: true}
	var out []*Term
	stack := []*Term{t}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x.Op == OpBVVar || x.Op == OpBoolVar {
			out = append(out, x)
			continue
		}
		for _, a := range x.Args {
			if !seen[a.ID] {
				seen[a.ID] = true
				stack = append(stack, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// randFormula builds a random boolean DAG over bit-vector and boolean
// variables whose names start with prefix.
func randFormula(c *Ctx, rng *rand.Rand, prefix string) *Term {
	bvs := make([]*Term, 4)
	for i := range bvs {
		bvs[i] = c.Var(fmt.Sprintf("%sv%d", prefix, i), 8)
	}
	f := c.BoolVar(prefix + "b")
	for i := 0; i < 4; i++ {
		a, b := randTerm(c, rng, bvs, 4), randTerm(c, rng, bvs, 4)
		switch rng.Intn(3) {
		case 0:
			f = c.And(f, c.Eq(a, b))
		case 1:
			f = c.Or(f, c.Ult(a, b))
		default:
			f = c.BoolIte(c.BoolVar(fmt.Sprintf("%sc%d", prefix, i)), f, c.Ule(b, a))
		}
	}
	return f
}

func sameTerms(a, b []*Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkIDOrder fails unless every live term's arguments have smaller IDs
// than the term itself.
func checkIDOrder(t *testing.T, c *Ctx) {
	t.Helper()
	for id := 0; id < c.NumTerms(); id++ {
		x := c.termByID(id)
		if x.ID != id {
			t.Fatalf("slot %d holds term ID %d", id, x.ID)
		}
		for _, a := range x.Args {
			if a.ID >= x.ID {
				t.Fatalf("term %d (%s) has argument %d, not below its own ID", x.ID, x, a.ID)
			}
		}
	}
}

// TestMemoVarsMatchesMapWalk: Memo.Vars and the package-level Vars return
// exactly what the map-based walk does, on random DAGs, with one Memo
// reused across walks of varying root size, and after Release has made
// later terms reuse released IDs.
func TestMemoVarsMatchesMapWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewCtx()
	var m Memo
	var roots []*Term
	for i := 0; i < 40; i++ {
		f := randFormula(c, rng, fmt.Sprintf("r%d_", i%5))
		roots = append(roots, f)
		if len(f.Args) > 0 {
			roots = append(roots, f.Args[0])
		}
	}
	check := func(stage string, roots []*Term) {
		t.Helper()
		for i, r := range roots {
			want := mapVars(r)
			if got := m.Vars(r); !sameTerms(got, want) {
				t.Fatalf("%s root %d: Memo.Vars = %v, want %v", stage, i, got, want)
			}
			if got := Vars(r); !sameTerms(got, want) {
				t.Fatalf("%s root %d: Vars = %v, want %v", stage, i, got, want)
			}
		}
	}
	check("initial", roots)

	mark := c.Mark()
	for i := 0; i < 20; i++ {
		randFormula(c, rng, "gone_")
	}
	c.Release(mark)
	var after []*Term
	for i := 0; i < 20; i++ {
		f := randFormula(c, rng, fmt.Sprintf("new%d_", i%3))
		if f.ID >= mark {
			after = append(after, f)
		}
	}
	if len(after) == 0 {
		t.Fatal("no term after Release reused a released ID")
	}
	check("after release", append(after, roots...))
	checkIDOrder(t, c)
}

// TestMemoGenerationWrap: when the generation wraps, every stamp from
// earlier walks is cleared, so neither an old entry nor a never-touched
// (zero-stamped) one reads as current.
func TestMemoGenerationWrap(t *testing.T) {
	c := NewCtx()
	x, y := c.Var("x", 8), c.Var("y", 8)
	root := c.BVAdd(x, y)
	var m Memo
	m.Begin(root)
	m.Put(x, y) // stamped with generation 1
	m.gen = math.MaxUint32
	m.Begin(root) // wraps
	if m.gen == 0 {
		t.Fatal("generation 0 after wrap: zero stamps would read as current")
	}
	for _, term := range []*Term{x, y, root} {
		if got, ok := m.Get(term); ok {
			t.Fatalf("stale hit on %s after wrap: %v", term, got)
		}
	}
	m.Put(y, x)
	if got, ok := m.Get(y); !ok || got != x {
		t.Fatalf("Get after Put in the wrapped walk = %v, %v", got, ok)
	}
	if vs := m.Vars(root); !sameTerms(vs, []*Term{x, y}) {
		t.Fatalf("Vars after wrap = %v", vs)
	}
}

// TestMemoBeginSmallerRoot: a walk under a small root after one under a
// larger root sees none of the larger walk's entries.
func TestMemoBeginSmallerRoot(t *testing.T) {
	c := NewCtx()
	x := c.Var("x", 8)
	small := c.BVNot(x)
	big := c.BVAdd(small, c.Var("y", 8))
	var m Memo
	m.Begin(big)
	m.Put(big, x)
	m.Put(small, x)
	m.Put(x, x)
	m.Begin(small)
	for _, term := range []*Term{x, small} {
		if _, ok := m.Get(term); ok {
			t.Fatalf("entry for %s survived Begin", term)
		}
	}
	if vs := m.Vars(small); !sameTerms(vs, []*Term{x}) {
		t.Fatalf("Vars(small) = %v, want [x]", vs)
	}
	if vs := m.Vars(big); len(vs) != 2 {
		t.Fatalf("Vars(big) = %v, want two variables", vs)
	}
}
