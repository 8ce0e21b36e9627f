package validate

import (
	"strings"
	"testing"

	"aquila/internal/encode"
	"aquila/internal/p4"
	"aquila/internal/tables"
)

const prog1 = `
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header ipv4_t { bit<8> ttl; bit<8> protocol; bit<32> dst_ip; }
header tcp_t { bit<16> src_port; bit<16> dst_port; }
struct meta_t { bit<8> scratch; }
ethernet_t eth;
ipv4_t ipv4;
tcp_t tcp;
meta_t md;

parser P {
	state start {
		extract(eth);
		transition select(eth.etherType) {
			0x0800: parse_ipv4;
			default: accept;
		}
	}
	state parse_ipv4 {
		extract(ipv4);
		transition select(ipv4.protocol) {
			6: parse_tcp;
			default: accept;
		}
	}
	state parse_tcp { extract(tcp); transition accept; }
}

control Ing {
	action send(bit<9> port) { std_meta.egress_spec = port; }
	action dec() { ipv4.ttl = ipv4.ttl - 1; }
	action a_drop() { drop(); }
	table fwd {
		key = { ipv4.dst_ip : exact; }
		actions = { send; dec; @defaultonly a_drop; }
		default_action = a_drop;
	}
	apply {
		if (ipv4.isValid()) {
			fwd.apply();
			md.scratch = ipv4.ttl;
		}
	}
}

deparser D { emit(eth); emit(ipv4); emit(tcp); }
pipeline pl { parser = P; control = Ing; deparser = D; }
`

func parse(t *testing.T, src string) *p4.Program {
	t.Helper()
	prog, err := p4.ParseAndCheck("v", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func snapshot() *tables.Snapshot {
	snap := tables.NewSnapshot()
	snap.Add("Ing.fwd", &tables.Entry{Keys: []tables.KeyMatch{tables.Exact(0x0A000001)}, Action: "send", Args: []uint64{3}, Priority: -1})
	snap.Add("Ing.fwd", &tables.Entry{Keys: []tables.KeyMatch{tables.Exact(0x0A000002)}, Action: "dec", Priority: -1})
	return snap
}

func TestCorrectEncoderIsEquivalent(t *testing.T) {
	prog := parse(t, prog1)
	for _, comps := range [][]string{
		{"P"},
		{"Ing"},
		{"D"},
		{"pl"},
	} {
		res, err := Validate(prog, snapshot(), comps, encode.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatalf("components %v: expected equivalence:\n%s", comps, res)
		}
	}
}

func TestCorrectEncoderWildcardEntries(t *testing.T) {
	// Unknown entries: the free table choices are shared by name, so the
	// representations must still be equivalent.
	prog := parse(t, prog1)
	res, err := Validate(prog, nil, []string{"pl"}, encode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("expected equivalence under wildcard entries:\n%s", res)
	}
}

func TestTableModesAllValidate(t *testing.T) {
	prog := parse(t, prog1)
	for _, mode := range []encode.TableMode{encode.TableABVTree, encode.TableABVLinear, encode.TableNaive} {
		res, err := Validate(prog, snapshot(), []string{"Ing"}, encode.Options{Table: mode})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatalf("table mode %v: expected equivalence:\n%s", mode, res)
		}
	}
}

const emptyStateProg = `
header h_t { bit<8> a; }
header g_t { bit<8> b; }
h_t h;
g_t g;
parser P {
	state start {
		extract(h);
		transition select(h.a) {
			1: hop;
			default: reject;
		}
	}
	state hop { transition parse_g; } // empty state: no statements
	state parse_g { extract(g); transition accept; }
}
`

// TestEmptyStateBugDetected reproduces the §7.2 story: an encoder that
// treats empty parser states as accept is caught by the self validator.
func TestEmptyStateBugDetected(t *testing.T) {
	prog := parse(t, emptyStateProg)
	// Correct encoder: equivalent.
	res, err := Validate(prog, nil, []string{"P"}, encode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("correct encoder must validate:\n%s", res)
	}
	// Buggy encoder: must be detected.
	res, err = Validate(prog, nil, []string{"P"}, encode.Options{InjectEncoderBug: "empty-state-accept"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("empty-state-accept bug must be detected")
	}
	// The g header's validity (or the accept ghost) must be among the
	// mismatches: the buggy encoding accepts without extracting g.
	found := false
	for _, m := range res.Mismatches {
		if m.Var == "g.$valid" || m.Var == "$accept.P" || m.Var == "$reject.P" || strings.HasPrefix(m.Var, "g.") {
			found = true
		}
	}
	if !found {
		t.Fatalf("mismatches %v should involve the skipped state's effects", res.Mismatches)
	}
}

const defaultOnlyProg = `
header h_t { bit<8> k; bit<8> v; }
h_t h;
parser P { state start { extract(h); transition accept; } }
control C {
	action norm() { h.v = 1; }
	action special() { h.v = 77; }
	table t {
		key = { h.k : exact; }
		actions = { norm; @defaultonly special; }
		default_action = special;
	}
	apply { t.apply(); }
}
`

// TestDefaultOnlyBugDetected reproduces the §7.2 "@defaultonly ignored"
// Aquila bug: under unknown entries, the buggy encoder lets the special
// action be installed, diverging from the reference semantics.
func TestDefaultOnlyBugDetected(t *testing.T) {
	prog := parse(t, defaultOnlyProg)
	res, err := Validate(prog, nil, []string{"P", "C"}, encode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("correct encoder must validate:\n%s", res)
	}
	res, err = Validate(prog, nil, []string{"P", "C"}, encode.Options{InjectEncoderBug: "ignore-defaultonly"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("ignore-defaultonly bug must be detected")
	}
}

const loopProg = `
header base_t { bit<8> n; }
header opt_t { bit<8> kind; }
base_t base;
opt_t opt;
parser P {
	state start { extract(base); transition next; }
	state next {
		transition select(lookahead<bit<8>>()) {
			1: eat;
			default: accept;
		}
	}
	state eat { extract(opt); transition next; }
}
`

func TestLoopParserValidates(t *testing.T) {
	prog := parse(t, loopProg)
	res, err := Validate(prog, nil, []string{"P"}, encode.Options{LoopBound: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("loop parser must validate:\n%s", res)
	}
}

func TestChecksumAndHashValidate(t *testing.T) {
	src := `
header h_t { bit<8> a; bit<8> b; bit<8> csum; }
h_t h;
register<bit<8>>(16) r;
parser P { state start { extract(h); transition accept; } }
control C {
	apply {
		hash(h.a, h.b);
		r.write(0, h.a);
		r.read(h.b, 3);
	}
}
deparser D { emit(h); update_checksum(h.csum, h.a, h.b); }
`
	prog := parse(t, src)
	res, err := Validate(prog, nil, []string{"P", "C", "D"}, encode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("hash/register/checksum must validate:\n%s", res)
	}
}

func TestResultString(t *testing.T) {
	prog := parse(t, prog1)
	res, err := Validate(prog, snapshot(), []string{"P"}, encode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "self-validation passed") {
		t.Fatalf("unexpected report: %s", res)
	}
}
