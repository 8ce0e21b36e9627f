package verify

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestCancelPreSetEveryEngine pins that Options.Cancel reaches every
// checking solver: with the token already fired, every engine must stop
// at its first check and report ErrBudget with no verdict consumed past
// it — including find-first's disjunction solver and the steal
// scheduler's per-owner warm solvers.
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
		{"steal/w2", Options{FindAll: true, Parallel: 2, Schedule: ScheduleSteal, Cancel: &tok}},
		{"stream", Options{FindAll: true, Parallel: 1, Stream: true, Slice: true, Cancel: &tok}},
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
