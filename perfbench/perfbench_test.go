package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"aquila/internal/genprog"
	"aquila/internal/obs"
	"aquila/internal/progs"
	"aquila/internal/tables"
)

// TestMain lets the test binary serve as the churn reference checker,
// which the benchmark starts as a child process of its own executable.
func TestMain(m *testing.M) {
	if os.Getenv(refEnv) == "1" {
		os.Exit(runReferenceChild())
	}
	os.Exit(m.Run())
}

// startRef starts a reference checker that ends with the test.
func startRef(t *testing.T) *refChecker {
	t.Helper()
	ref, err := startRefChecker()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := ref.close(); err != nil {
			t.Errorf("reference checker: %v", err)
		}
	})
	return ref
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name+" "+d.Unit)
	}
	return out
}

// printedResult runs the command's entry point and decodes the last line
// of its standard output.
func printedResult(t *testing.T, args ...string) (result, int) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	code := run(args)
	os.Stdout = stdout
	w.Close()
	lines := strings.Split(strings.TrimSpace(string(<-done)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res, code
}

func printedNames(res result) []string {
	var out []string
	for name, m := range res.Metrics {
		out = append(out, name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

func sorted(s []string) []string {
	s = append([]string(nil), s...)
	sort.Strings(s)
	return s
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var e2e, layers, wls []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	if got, want := strings.Join(e2e, ","), strings.Join(defNames(endToEnd), ","); got != want {
		t.Errorf("BENCHMARK.json end_to_end %s, code %s", got, want)
	}
	if got, want := strings.Join(layers, ","), strings.Join(defNames(perLayer), ","); got != want {
		t.Errorf("BENCHMARK.json per_layer %s, code %s", got, want)
	}
	for _, w := range wls {
		if workloads[w] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w)
		}
	}

	out := t.TempDir()
	for _, c := range []struct {
		args []string
		want []metricDef
	}{
		{[]string{"--workload", "corpus", "--seconds", "1", "--trace", "0", "--out", out}, endToEnd},
		{[]string{"--workload", "corpus", "--seconds", "1", "--trace", "1", "--out", out}, perLayer},
		{[]string{"--workload", "churn", "--seconds", "1", "--trace", "1", "--out", out}, perLayer},
	} {
		res, code := printedResult(t, c.args...)
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%v: exit %d, result %+v", c.args, code, res)
		}
		if got, want := strings.Join(printedNames(res), ","), strings.Join(sorted(defNames(c.want)), ","); got != want {
			t.Errorf("%v printed %s, want %s", c.args, got, want)
		}
	}
}

func TestSeedsChangeInputsNotVerdicts(t *testing.T) {
	cases, err := corpusCases()
	if err != nil {
		t.Fatal(err)
	}
	order := func(seed int64) string {
		next := cycle(seed, cases)
		var rows []string
		for i := 0; i < 2*len(cases); i++ {
			rows = append(rows, next().Row)
		}
		return strings.Join(rows, ",")
	}
	if order(1) == order(2) {
		t.Error("corpus: seeds 1 and 2 give the same program order")
	}

	var snaps []string
	for _, seed := range []int64{1, 2} {
		c := bigtableCase(seed, 2000)
		snaps = append(snaps, c.Entries)
		_, js, _, err := verifyOnce(c)
		if err == nil {
			err = checkReport(c, js)
		}
		if err != nil {
			t.Errorf("bigtable seed %d: %v", seed, err)
		}
	}
	if snaps[0] == snaps[1] {
		t.Error("bigtable: seeds 1 and 2 give the same snapshot")
	}

	var streams []string
	for _, seed := range []int64{1, 2} {
		m := newChurnModel(seed)
		var texts []string
		for i := 0; i < 20; i++ {
			texts = append(texts, m.next())
		}
		streams = append(streams, strings.Join(texts, "---\n"))
		cr, err := setupChurn(seed, startRef(t))
		if err != nil {
			t.Fatalf("churn seed %d: %v", seed, err)
		}
		for i := 0; i < 20; i++ {
			r, err := cr.server.postDelta(cr.model.next())
			if err == nil {
				err = cr.check(r.body)
			}
			if err != nil {
				t.Errorf("churn seed %d: %v", seed, err)
			}
		}
		if err := cr.server.close(); err != nil {
			t.Error(err)
		}
	}
	if streams[0] == streams[1] {
		t.Error("churn: seeds 1 and 2 give the same delta stream")
	}
}

func TestWrongExpectationCaught(t *testing.T) {
	cases, err := corpusCases()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.Row != progs.DCGatewayBench().Name {
			continue
		}
		_, js, _, err := verifyOnce(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkReport(c, js); err != nil {
			t.Fatalf("true answer rejected: %v", err)
		}
		for _, wrong := range [][]string{c.Want[1:], nil, append([]string{"no_invalid_access#0"}, c.Want...)} {
			bad := *c
			bad.Want = wrong
			if checkReport(&bad, js) == nil {
				t.Errorf("wrong expectation %v accepted", wrong)
			}
		}
	}

	// A lookup of a key the snapshot does not hold misses the table, so
	// the "holds" expectation must fail.
	c := bigtableCase(1, 500)
	cfg := genprog.SwitchT("small")
	cfg.TTLChain = false
	missing := 0
	for strings.Contains(c.Entries, fmt.Sprintf("\n  %d -> ", missing)) {
		missing++
	}
	c.Spec = genprog.BigTableSpec(cfg, genprog.Assemble(cfg).Calls, uint64(missing), 0)
	if _, js, _, err := verifyOnce(c); err != nil || checkReport(c, js) == nil {
		t.Errorf("bigtable: a missing destination was not caught (err %v)", err)
	}

	// A daemon report that differs from the fresh verification of its
	// snapshot is caught.
	cr, err := setupChurn(1, startRef(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cr.server.close()
	r, err := cr.server.postDelta(cr.model.next())
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.check(r.body); err != nil {
		t.Fatalf("churn: true report rejected: %v", err)
	}
	tampered := bytes.Replace(r.body, []byte(`"holds": true`), []byte(`"holds": false`), 1)
	if bytes.Equal(tampered, r.body) || cr.check(tampered) == nil {
		t.Error("churn: a tampered report was accepted")
	}
}

// TestEveryOperationFailingEnds checks that a run whose every measured
// operation fails still ends after its seconds and reports itself
// incorrect.
func TestEveryOperationFailingEnds(t *testing.T) {
	cases, err := corpusCases()
	if err != nil {
		t.Fatal(err)
	}
	c := cases[0]
	bad := *c
	bad.Want = append([]string{"no_invalid_access#99"}, c.Want...)
	for _, traced := range []bool{false, true} {
		cfg := config{Workload: "corpus", Seed: 1, Seconds: time.Second, Traced: traced}
		// The warm-up verifies the true answer; every measured operation
		// expects the wrong one.
		oc, err := runVerify(cfg, func() (*verifyWorkload, error) {
			return &verifyWorkload{cases: []*verifyCase{c}, next: func() *verifyCase { return &bad }}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		checkAllFailed(t, cfg, oc)
	}

	// A daemon that has stopped answers no delta.
	cr, err := setupChurn(1, startRef(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.server.close(); err != nil {
		t.Fatal(err)
	}
	cfg := config{Workload: "churn", Seed: 1, Seconds: time.Second}
	oc := &outcome{}
	churnLoop(cfg, cr, oc)
	checkAllFailed(t, cfg, oc)
}

func checkAllFailed(t *testing.T, cfg config, oc *outcome) {
	t.Helper()
	res := oc.result(cfg)
	if res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
		t.Errorf("%s traced=%v: result %+v, want every operation failed", cfg.Workload, cfg.Traced, res)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("%s traced=%v: result does not print: %v", cfg.Workload, cfg.Traced, err)
	}
}

// TestChurnModelTracksSnapshot checks the model's snapshot against the
// snapshot the tables package reaches by applying the same deltas, and
// that fresh values keep snapshots from recurring.
func TestChurnModelTracksSnapshot(t *testing.T) {
	m := newChurnModel(7)
	snap, err := tables.ParseSnapshot(m.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	repeats := 0
	for i := 0; i < 500; i++ {
		text := m.next()
		d, err := tables.ParseDelta(text)
		if err == nil {
			err = d.Apply(snap)
		}
		if err != nil {
			t.Fatalf("delta %d %q: %v", i, text, err)
		}
		want, err := tables.ParseSnapshot(m.snapshot())
		if err != nil {
			t.Fatal(err)
		}
		got := tables.Format(snap)
		if got != tables.Format(want) {
			t.Fatalf("delta %d %q: model and tables disagree", i, text)
		}
		if seen[got] {
			repeats++
		}
		seen[got] = true
	}
	if repeats > 5 {
		t.Errorf("%d of 500 deltas returned to an earlier snapshot", repeats)
	}
}

func TestSelfTimes(t *testing.T) {
	rec := &recorder{spans: []span{
		{Name: "solve", Parent: -1, Start: 0, End: 10 * time.Millisecond},
		{Name: "a", Parent: 0, TID: 1, Start: 1 * time.Millisecond, End: 4 * time.Millisecond},
		{Name: "b", Parent: 0, TID: 2, Start: 3 * time.Millisecond, End: 6 * time.Millisecond},
		{Name: "c", Parent: 1, TID: 1, Start: 2 * time.Millisecond, End: 3 * time.Millisecond},
	}}
	self := rec.selfTimes()
	want := []time.Duration{5, 2, 3, 1}
	for i := range want {
		if self[i] != want[i]*time.Millisecond {
			t.Errorf("span %s: self %v, want %v", rec.spans[i].Name, self[i], want[i]*time.Millisecond)
		}
	}
}

func TestSpanFileOpensWithTraceTooling(t *testing.T) {
	cfg := config{Workload: "corpus", Seed: 3, Seconds: time.Second, Traced: true, Out: t.TempDir()}
	oc, err := runCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path, err := writeSpans(cfg, oc.rec, envStamp(cfg))
	if err != nil {
		t.Fatal(err)
	}
	u, err := obs.AnalyzeTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if u.Checks == 0 {
		t.Error("no solve:<label> spans in the span file")
	}
}

func TestLayerMapDocumented(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(string(data), "`"+d.Name+"`") {
			t.Errorf("README.md does not describe %s", d.Name)
		}
	}
}
