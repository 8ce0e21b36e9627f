package main

import "testing"

// TestRejectsUnknownExperiments pins the usage errors: an -exp name that
// names no experiment, and a flag that no experiment reads, exit 2
// before any experiment starts instead of running nothing and exiting 0.
func TestRejectsUnknownExperiments(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "parallel"},
		{"-exp", "obs"},
		{"-exp", "nosuch"},
		{"-analyze", "x"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
}

// TestRunsKnownExperiment checks that validation lets a listed name
// through to its experiment.
func TestRunsKnownExperiment(t *testing.T) {
	if code := run([]string{"-exp", "table1"}); code != 0 {
		t.Fatalf("-exp table1: exit %d, want 0", code)
	}
}
