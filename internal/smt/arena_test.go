package smt

import (
	"sync"
	"testing"
)

// TestArenaPointerStabilityAcrossChunks pins the chunked-slab contract:
// growing the arena past several chunk boundaries must never move a term —
// pointers handed out early stay valid and re-interning returns the
// identical pointer (the property blasting and the parallel engine rely
// on, since they hold *Term across arbitrary later construction).
func TestArenaPointerStabilityAcrossChunks(t *testing.T) {
	c := NewCtx()
	n := 3*termChunk + termChunk/2
	held := make([]*Term, 0, n)
	for i := 0; i < n; i++ {
		held = append(held, c.BV(uint64(i), 64))
	}
	if c.NumTerms() < n {
		t.Fatalf("created %d terms, want >= %d", c.NumTerms(), n)
	}
	for i, p := range held {
		if q := c.BV(uint64(i), 64); q != p {
			t.Fatalf("term %d moved across chunk growth: re-interning returned a different pointer", i)
		}
		if p.Op != OpBVConst || p.Width != 64 || p.Val == nil || p.Val.Uint64() != uint64(i) {
			t.Fatalf("term %d corrupted after chunk growth: %+v", i, p)
		}
	}
}

// TestMarkReleaseRoundTrip exercises the arena rollback:
// transients spanning multiple chunks are discarded, survivors stay
// interned at their original pointers, released IDs are reused, and the
// release counter accounts for every discarded term.
func TestMarkReleaseRoundTrip(t *testing.T) {
	c := NewCtx()
	x := c.Var("x", 32)
	y := c.Var("y", 32)
	keep := c.BVAdd(x, y)
	mark := c.Mark()

	for i := 0; i < 2*termChunk+17; i++ {
		c.BVAdd(x, c.BV(uint64(1_000_000+i), 32))
	}
	before := c.NumTerms()
	if before <= mark+2*termChunk {
		t.Fatalf("transients did not span chunks: %d terms past mark %d", before-mark, mark)
	}
	rel0 := c.ReleasedTerms()
	c.Release(mark)
	if got := c.NumTerms(); got != mark {
		t.Fatalf("NumTerms after release = %d, want mark %d", got, mark)
	}
	if got := c.ReleasedTerms() - rel0; got != int64(before-mark) {
		t.Fatalf("ReleasedTerms delta = %d, want %d", got, before-mark)
	}

	// Survivors are intact and still interned at the same addresses.
	if c.Var("x", 32) != x || c.Var("y", 32) != y || c.BVAdd(x, y) != keep {
		t.Fatal("pre-mark terms no longer interned at their original pointers")
	}

	// New terms reuse the released ID range.
	cst := c.BV(123456, 32)
	sum := c.BVAdd(x, cst)
	if cst.ID < mark || sum.ID < mark || sum.ID >= mark+2 {
		t.Fatalf("released IDs not reused: const %d, add %d, mark %d", cst.ID, sum.ID, mark)
	}
	if sum.Op != OpBVAdd || sum.Args[0] != x || sum.Args[1] != cst {
		t.Fatalf("post-release term malformed: %+v", sum)
	}

	// Release is idempotent on the watermark: rolling back again (and on an
	// already-clean arena) leaves exactly the survivors.
	c.Release(mark)
	c.Release(mark)
	if got := c.NumTerms(); got != mark {
		t.Fatalf("NumTerms after repeat release = %d, want %d", got, mark)
	}

	// Re-creating a released transient yields a structurally identical term.
	a := c.BVAdd(x, c.BV(777, 32))
	aID := a.ID
	c.Release(mark)
	b := c.BVAdd(x, c.BV(777, 32))
	if b.ID != aID || b.Op != OpBVAdd || b.Args[0] != x ||
		b.Args[1].Val == nil || b.Args[1].Val.Uint64() != 777 {
		t.Fatalf("re-created transient differs: id %d vs %d, %+v", b.ID, aID, b)
	}
}

// TestReleaseFrozenPanics pins the ownership rule: a frozen (shared)
// context must refuse Release — Session.Compact, the one caller, owns its
// context serially for exactly this reason.
func TestReleaseFrozenPanics(t *testing.T) {
	c := NewCtx()
	x := c.Var("x", 8)
	mark := c.Mark()
	c.BVAdd(x, c.BV(9, 8))
	c.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Release on frozen Ctx did not panic")
		}
	}()
	c.Release(mark)
}

// TestInternStatsFrozenConsistency asserts the instrumentation invariants
// under 4-worker contention on a frozen context (run under -race in CI):
// every intern miss creates exactly one term — so two workers racing to
// intern the same new term must not double-create it — post-freeze
// interning takes the lock (frozenLocks grows), and re-interning from
// workers hits the table.
func TestInternStatsFrozenConsistency(t *testing.T) {
	c := NewCtx()
	x := c.Var("x", 32)
	h0, m0, _ := c.InternStats()
	if n0 := c.NumTerms(); m0 != int64(n0) {
		t.Fatalf("pre-freeze: misses %d != terms created %d", m0, n0)
	}
	c.Freeze()

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every worker builds the same term set, so all but the first
			// interning of each distinct term must hit.
			for i := 0; i < 500; i++ {
				_ = c.BVAdd(x, c.BV(uint64(i%100), 32))
			}
		}()
	}
	wg.Wait()

	h1, m1, f1 := c.InternStats()
	if m1 != int64(c.NumTerms()) {
		t.Errorf("misses %d != terms created %d: a racing miss double-created or lost a term",
			m1, c.NumTerms())
	}
	if h1 <= h0 {
		t.Errorf("intern hits did not grow (%d -> %d) despite workers re-building shared terms", h0, h1)
	}
	if f1 == 0 {
		t.Error("frozenLocks stayed 0 despite post-freeze interning")
	}
}
