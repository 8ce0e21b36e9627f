package verify

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
)

// TestCancelPreSetEveryEngine pins that Options.Cancel reaches every
// checking solver: with the token already fired, every engine must stop
// at its first check and report ErrBudget with no verdict consumed past
// it — including find-first's disjunction solver and the session's warm
// shared solver.
func TestCancelPreSetEveryEngine(t *testing.T) {
	prog, spec := dcGateway(t)
	var tok atomic.Bool
	tok.Store(true)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"find-first", Options{Cancel: &tok}},
		{"fresh/w1", Options{FindAll: true, Parallel: 1, Cancel: &tok}},
		{"fresh/w2", Options{FindAll: true, Parallel: 2, Cancel: &tok}},
	} {
		rep, err := Run(prog, nil, spec, tc.opts)
		if !errors.Is(err, ErrBudget) {
			t.Errorf("%s: err = %v, want ErrBudget", tc.name, err)
			continue
		}
		if len(rep.Violations) != 0 {
			t.Errorf("%s: %d violations reported past a fired token", tc.name, len(rep.Violations))
		}
		if tc.opts.FindAll {
			pa := rep.Stats.PerAssertion
			if len(pa) != 1 || pa[0].Status != "unknown" {
				t.Errorf("%s: consumed checks %+v, want exactly one unknown", tc.name, pa)
			}
		}
	}
	sess, err := NewSession(prog, nil, spec, Options{Cancel: &tok})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("session: err = %v, want ErrBudget", err)
	}
	if pa := sess.Baseline().Stats.PerAssertion; len(pa) != 1 || pa[0].Status != "unknown" {
		t.Errorf("session: consumed checks %+v, want exactly one unknown", pa)
	}
}

// TestCancelHammer drives the fresh worker pool hard enough for the -race
// CI job to see the interleavings: many runs at several worker counts,
// every solver polling a live (never fired) cancellation token. Verdict
// bytes must still match the serial baseline.
func TestCancelHammer(t *testing.T) {
	prog, spec := dcGateway(t)
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
		for _, w := range []int{1, 2, 4} {
			rep, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: w, Cancel: &tok})
			if err != nil {
				t.Fatalf("iter %d w=%d: %v", it, w, err)
			}
			got, err := rep.CanonicalJSON()
			if err != nil {
				t.Fatalf("iter %d w=%d: canonical: %v", it, w, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("iter %d w=%d: hammer report differs from baseline", it, w)
			}
		}
	}
}
