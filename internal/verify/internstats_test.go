package verify

import (
	"testing"

	"aquila/internal/lpi"
	"aquila/internal/progs"
)

// TestInternStatsParallelVerify asserts the interning instrumentation
// stays consistent across a real 4-worker find-all run (run under -race
// in CI): the context freezes for the fan-out, stray post-freeze
// construction and stat reads serialize (frozenLocks grows), and the
// fundamental ledger invariant holds — every intern miss created exactly
// one term, so misses equals the live term count in a run that never
// releases.
func TestInternStatsParallelVerify(t *testing.T) {
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	rep, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 4})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.Ctx.Frozen() {
		t.Fatal("4-worker find-all run did not freeze the context")
	}
	n := rep.Ctx.NumTerms()
	hits, misses, frozenLocks := rep.Ctx.InternStats()
	if misses != int64(n) {
		t.Errorf("intern misses %d != live terms %d: the miss ledger lost or double-counted a creation", misses, n)
	}
	if hits == 0 {
		t.Error("intern hits stayed 0 across encoding")
	}
	if frozenLocks == 0 {
		t.Error("frozenLocks stayed 0 despite post-freeze context use")
	}
}
