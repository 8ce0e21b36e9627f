package progs

import (
	"strings"
	"testing"

	"aquila/internal/lpi"
	"aquila/internal/verify"
)

func TestHandWrittenSuiteParses(t *testing.T) {
	suite := HandWrittenSuite()
	if len(suite) != 5 {
		t.Fatalf("suite = %d programs, want 5", len(suite))
	}
	wantStates := map[string]int{
		"Simple Router":        2, // start + parse_ipv4
		"NetPaxos Acceptor":    4,
		"NetPaxos Coordinator": 4,
		"NDP":                  3,
		"Flowlet Switching":    3,
	}
	for _, bm := range suite {
		prog, err := bm.Parse()
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if bm.Pipes != 1 {
			t.Fatalf("%s: pipes = %d", bm.Name, bm.Pipes)
		}
		if want := wantStates[bm.Name]; bm.ParserStates != want {
			t.Fatalf("%s: parser states = %d, want %d", bm.Name, bm.ParserStates, want)
		}
		if prog.LoC < 40 {
			t.Fatalf("%s: suspiciously small (%d LoC)", bm.Name, prog.LoC)
		}
	}
}

func TestSeededBugsDetected(t *testing.T) {
	for _, bm := range HandWrittenSuite() {
		prog, err := bm.Parse()
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		specSrc := InvalidHeaderAccessSpec(prog, bm.Calls)
		spec, err := lpi.Parse(specSrc)
		if err != nil {
			t.Fatalf("%s: %v\n%s", bm.Name, err, specSrc)
		}
		rep, err := verify.Run(prog, nil, spec, verify.Options{FindAll: true})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if rep.Holds {
			t.Fatalf("%s: seeded invalid-header-access bug not found", bm.Name)
		}
	}
}

// TestSkewedBenchShape pins the load-imbalance benchmark's defining
// properties: it parses, its seeded ttl bug is found, and one assertion
// (the adder-identity-guarded stats table) dominates the solve cost —
// the deliberate straggler of the parallel sweep.
func TestSkewedBenchShape(t *testing.T) {
	bm := SkewedBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := lpi.Parse(InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Run(prog, nil, spec, verify.Options{FindAll: true, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holds {
		t.Fatal("seeded ttl bug not found")
	}
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %d, want exactly the seeded ttl bug", len(rep.Violations))
	}
	if n := len(rep.Stats.PerAssertion); n < 8 {
		t.Fatalf("assertions = %d, want a wide cheap tail around the heavy one", n)
	}
	var max, total int64
	for _, pa := range rep.Stats.PerAssertion {
		total += pa.Conflicts
		if pa.Conflicts > max {
			max = pa.Conflicts
		}
	}
	if total == 0 || max*2 < total {
		t.Fatalf("heaviest assertion carries %d of %d conflicts; the skew is the point", max, total)
	}
}

func TestSpecGeneratorShape(t *testing.T) {
	bm := HandWrittenSuite()[0]
	prog, err := bm.Parse()
	if err != nil {
		t.Fatal(err)
	}
	spec := InvalidHeaderAccessSpec(prog, bm.Calls)
	for _, want := range []string{
		"applied(RouterIngress.ipv4_lpm)", "valid(ipv4)", "call(router)", "assert(no_invalid_access)",
	} {
		if !strings.Contains(spec, want) {
			t.Fatalf("generated spec missing %q:\n%s", want, spec)
		}
	}
	// std_meta-keyed tables must not demand header validity.
	if strings.Contains(spec, "valid(std_meta)") {
		t.Fatal("std_meta is not a header")
	}
}

func TestTableHeaders(t *testing.T) {
	bm := HandWrittenSuite()[0]
	prog, err := bm.Parse()
	if err != nil {
		t.Fatal(err)
	}
	ctl := prog.Controls["RouterIngress"]
	hs := TableHeaders(prog, ctl, ctl.Tables["ipv4_lpm"])
	// Key reads ipv4; set_nhop writes ipv4.ttl and metadata only.
	joined := strings.Join(hs, ",")
	if !strings.Contains(joined, "ipv4") {
		t.Fatalf("headers = %v", hs)
	}
	hs2 := TableHeaders(prog, ctl, ctl.Tables["forward"])
	if !strings.Contains(strings.Join(hs2, ","), "ethernet") {
		t.Fatalf("forward should reference ethernet via set_dmac, got %v", hs2)
	}
}
