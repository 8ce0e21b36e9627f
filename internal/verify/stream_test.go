package verify

import (
	"bytes"
	"testing"

	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/progs"
)

// forceStreamReleases lowers the release threshold so streaming rolls the
// arena back after every assertion, even on test-sized programs, and
// restores it when the test ends.
func forceStreamReleases(t *testing.T) {
	t.Helper()
	old := streamReleaseMin
	streamReleaseMin = 1
	t.Cleanup(func() { streamReleaseMin = old })
}

// TestStreamMatchesBaseline is the streaming engine's determinism
// contract: with releases forced after every assertion, canonical report
// bytes match the plain serial fresh-solver baseline on the whole corpus,
// with and without slicing in front.
func TestStreamMatchesBaseline(t *testing.T) {
	forceStreamReleases(t)
	passes := []struct {
		name  string
		slice bool
	}{
		{"plain", false},
		{"slice", true},
	}
	for _, c := range corpusSuite(t) {
		base, err := Run(c.prog, nil, c.spec, Options{FindAll: true, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: baseline: %v", c.name, err)
		}
		want, err := base.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: canonical: %v", c.name, err)
		}
		for _, p := range passes {
			rep, err := Run(c.prog, nil, c.spec, Options{FindAll: true, Parallel: 1,
				Stream: true, Slice: p.slice})
			if err != nil {
				t.Fatalf("%s: stream %s: %v", c.name, p.name, err)
			}
			if !rep.Stats.Stream || rep.Stats.Workers != 1 {
				t.Errorf("%s: stream %s: stats say stream=%v workers=%d",
					c.name, p.name, rep.Stats.Stream, rep.Stats.Workers)
			}
			got, err := rep.CanonicalJSON()
			if err != nil {
				t.Fatalf("%s: stream %s canonical: %v", c.name, p.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: stream %s differs from baseline\nbaseline: %s\ngot: %s",
					c.name, p.name, want, got)
			}
		}
	}
}

// TestStreamDefaultThreshold runs streaming at the shipping release
// threshold (which small programs typically never hit): the no-release
// path must also match the baseline byte-for-byte.
func TestStreamDefaultThreshold(t *testing.T) {
	for _, c := range corpusSuite(t) {
		base, err := Run(c.prog, nil, c.spec, Options{FindAll: true, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: baseline: %v", c.name, err)
		}
		want, err := base.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: canonical: %v", c.name, err)
		}
		rep, err := Run(c.prog, nil, c.spec, Options{FindAll: true, Parallel: 1,
			Stream: true, Slice: true})
		if err != nil {
			t.Fatalf("%s: stream: %v", c.name, err)
		}
		got, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: stream canonical: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: stream (default threshold) differs from baseline\nbaseline: %s\ngot: %s",
				c.name, want, got)
		}
	}
}

// TestStreamReleasesDCGateway pins the point of the mode on the
// many-assertion benchmark: with releases forced, streaming must actually
// roll the arena back, discard the transient slice terms, and finish with
// fewer live term nodes than the non-streaming sliced run — while keeping
// the canonical report identical.
func TestStreamReleasesDCGateway(t *testing.T) {
	forceStreamReleases(t)
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	sliced, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1, Slice: true})
	if err != nil {
		t.Fatalf("sliced baseline: %v", err)
	}
	stream, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1,
		Slice: true, Stream: true})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if stream.Stats.StreamReleases == 0 || stream.Stats.ReleasedTerms == 0 {
		t.Fatalf("streaming recorded no releases (%d releases, %d terms)",
			stream.Stats.StreamReleases, stream.Stats.ReleasedTerms)
	}
	if stream.Stats.TermNodes >= sliced.Stats.TermNodes {
		t.Errorf("streaming finished with %d live term nodes, want fewer than the sliced run's %d",
			stream.Stats.TermNodes, sliced.Stats.TermNodes)
	}
	want, err := sliced.CanonicalJSON()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	got, err := stream.CanonicalJSON()
	if err != nil {
		t.Fatalf("stream canonical: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("streaming report differs from sliced baseline\nbaseline: %s\ngot: %s", want, got)
	}
}

// TestStreamGenprogDifferential repeats the differential check on
// synthetic production-shaped programs with seeded bugs: streaming must
// not change which assertions are violated or their counterexamples.
func TestStreamGenprogDifferential(t *testing.T) {
	forceStreamReleases(t)
	cfgs := []genprog.Config{
		{Name: "gp_stream_small", Pipes: 1, ParserStates: 6, Tables: 8, ActionsPerTable: 2, SeedBug: true},
		{Name: "gp_stream_wide", Pipes: 2, ParserStates: 10, Tables: 14, ActionsPerTable: 3, SeedBug: true},
	}
	for _, cfg := range cfgs {
		bm := genprog.Assemble(cfg)
		prog, err := bm.Parse()
		if err != nil {
			t.Fatalf("%s: parse: %v", cfg.Name, err)
		}
		spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
		if err != nil {
			t.Fatalf("%s: spec: %v", cfg.Name, err)
		}
		base, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: baseline: %v", cfg.Name, err)
		}
		if base.Holds {
			t.Fatalf("%s: seeded bug not found by baseline", cfg.Name)
		}
		want, err := base.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: canonical: %v", cfg.Name, err)
		}
		rep, err := Run(prog, nil, spec, Options{FindAll: true, Parallel: 1,
			Stream: true, Slice: true})
		if err != nil {
			t.Fatalf("%s: stream: %v", cfg.Name, err)
		}
		got, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: stream canonical: %v", cfg.Name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: streaming differs from baseline\nbaseline: %s\ngot: %s",
				cfg.Name, want, got)
		}
	}
}
