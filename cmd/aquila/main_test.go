package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// capture runs the CLI with args and returns its exit code and stdout.
func capture(t *testing.T, args ...string) (int, []byte) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	code := run(args)
	os.Stdout = stdout
	w.Close()
	return code, <-out
}

// TestChurnRejectsParallel pins the one engine conflict left after the
// options collapsed: the session engine is serial, so -churn with
// -parallel > 1 is refused at the CLI boundary before any input is read.
func TestChurnRejectsParallel(t *testing.T) {
	if code, _ := capture(t, "-builtin", "dc-gateway", "-churn", "missing.txt", "-parallel", "2"); code != 2 {
		t.Fatalf("-churn -parallel 2: exit %d, want 2", code)
	}
}

// TestCanonicalAcrossParallel is the CLI view of the determinism
// contract: the canonical find-all report is byte-identical at 1 and 4
// workers, and the seeded DC-gateway bugs exit 1.
func TestCanonicalAcrossParallel(t *testing.T) {
	var want []byte
	for _, w := range []string{"1", "4"} {
		code, got := capture(t, "-builtin", "dc-gateway", "-all", "-parallel", w, "-json", "-canonical")
		if code != 1 {
			t.Fatalf("-parallel %s: exit %d, want 1 (violations)", w, code)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("-parallel %s: canonical report differs from -parallel 1", w)
		}
	}
}

// TestChurnReplaysDeltas drives -churn end to end: one baseline, one
// line per delta, a session summary, and exit 1 while the seeded bugs
// stand.
func TestChurnReplaysDeltas(t *testing.T) {
	deltas := filepath.Join(t.TempDir(), "deltas.txt")
	if err := os.WriteFile(deltas, []byte("add GatewayIngress.ecmp_nhop_tbl 7 -> set_nhop(3)\n---\nremove GatewayIngress.ecmp_nhop_tbl 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := capture(t, "-builtin", "dc-gateway", "-churn", deltas)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"baseline: ", "delta 1: ", "delta 2: ", "session: 2 deltas"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestSpecFiles verifies the checked-in forward example through its
// spec's config path: violated under any entries (with a blocklist),
// holding under the correct snapshot.
func TestSpecFiles(t *testing.T) {
	spec := filepath.Join("..", "..", "testdata", "forward.lpi")
	entries := filepath.Join("..", "..", "testdata", "entries.txt")
	code, out := capture(t, "-spec", spec, "-all", "-blocklist", "-parser", "tree", "-table", "naive", "-packet", "bitvector")
	if code != 1 || !bytes.Contains(out, []byte("blocklist")) {
		t.Fatalf("any entries: exit %d, want 1 with a blocklist\n%s", code, out)
	}
	if code, out := capture(t, "-spec", spec, "-entries", entries); code != 0 {
		t.Fatalf("correct entries: exit %d, want 0\n%s", code, out)
	}
	if code, _ := capture(t, "-builtin", "no-such-program"); code != 2 {
		t.Fatalf("unknown -builtin: exit %d, want 2", code)
	}
}
