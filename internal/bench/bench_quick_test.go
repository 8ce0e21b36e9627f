package bench

import (
	"strings"
	"testing"

	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/progs"
	"aquila/internal/verify"
)

func TestTable2Ratios(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Scenario 1: O(10) LPI lines vs O(100) low-level (the paper's 10x).
	if rows[0].AquilaLoC > 20 {
		t.Fatalf("scenario 1 LPI LoC = %d, want O(10)", rows[0].AquilaLoC)
	}
	for _, r := range rows {
		ratio := float64(r.LowLevelLoC) / float64(r.AquilaLoC)
		if ratio < 2 {
			t.Fatalf("%s: low-level/LPI ratio = %.1f, expected substantial reduction", r.Scenario, ratio)
		}
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "ratio") {
		t.Fatal("format output malformed")
	}
}

func TestTable3SmallSuiteAllTools(t *testing.T) {
	suite := progs.HandWrittenSuite()
	rows, err := Table3(suite, QuickLimits, []Tool{ToolAquila, ToolP4V, ToolVera})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		aq := r.Results[ToolAquila]
		if aq.Fail != "" {
			t.Fatalf("%s: Aquila failed: %s", r.Name, aq.Fail)
		}
		if aq.Bugs == 0 {
			t.Fatalf("%s: Aquila found no bugs; every program carries a seeded one", r.Name)
		}
		// On these small programs the baselines should succeed too, and
		// all tools that complete must agree a bug exists.
		for _, tool := range []Tool{ToolP4V, ToolVera} {
			out := r.Results[tool]
			if out.Fail == "" && out.Bugs == 0 {
				t.Fatalf("%s: %s completed but found no bugs", r.Name, tool)
			}
		}
	}
	s := FormatTable3(rows, []Tool{ToolAquila, ToolP4V, ToolVera})
	if !strings.Contains(s, "Simple Router") {
		t.Fatal("format output malformed")
	}
}

func TestTable3AquilaScalesWhereBaselinesExplode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A production-shaped program: deep parser DAG + many tables. The
	// baselines trip their budgets; Aquila completes.
	cfg := genprog.Config{Name: "big", Pipes: 2, ParserStates: 40, Tables: 60,
		ActionsPerTable: 3, SeedBug: true}
	bm := genprog.Assemble(cfg)
	lim := Limits{TreeCap: 100_000, MaxPaths: 20_000, Budget: 20_000_000, Deadline: 0}
	aq, err := RunTool(bm, ToolAquila, lim)
	if err != nil {
		t.Fatal(err)
	}
	if aq.Fail != "" || aq.Bugs == 0 {
		t.Fatalf("Aquila should complete and find bugs: %+v", aq)
	}
	p4v, err := RunTool(bm, ToolP4V, lim)
	if err != nil {
		t.Fatal(err)
	}
	if p4v.Fail != "OOM" {
		t.Fatalf("p4v-style tree encoding should explode, got %+v", p4v)
	}
	vera, err := RunTool(bm, ToolVera, lim)
	if err != nil {
		t.Fatal(err)
	}
	if vera.Fail != "OOT" {
		t.Fatalf("Vera-style path enumeration should explode, got %+v", vera)
	}
}

func TestTable4QuickSmall(t *testing.T) {
	rows, err := Table4([]string{"small"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Found {
			t.Fatalf("%s/%s: seeded culprit not localized", r.Scale, r.Bug)
		}
		if r.Precision < 0.9 {
			t.Fatalf("%s/%s: precision %.2f below the paper's ~95%% band", r.Scale, r.Bug, r.Precision)
		}
	}
	if !strings.Contains(FormatTable4(rows), "wrong-entry") {
		t.Fatal("format output malformed")
	}
}

func TestFig11aQuick(t *testing.T) {
	rows, err := Fig11a(2, "small")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.WithBugs && r.Bugs == 0 {
			t.Fatalf("k=%d with bugs: none found", r.K)
		}
		if !r.WithBugs && r.Bugs != 0 {
			t.Fatalf("k=%d without bugs: %d found", r.K, r.Bugs)
		}
	}
	if !strings.Contains(FormatFig11a(rows), "time") {
		t.Fatal("format output malformed")
	}
}

func TestFig11bQuick(t *testing.T) {
	rows, err := Fig11b([]int{32, 128}, "small", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Fail != "" {
			t.Fatalf("entries=%d mode=%s failed: %s", r.Entries, r.Mode, r.Fail)
		}
	}
	// The ABV modes must use less formula memory than naive at the larger
	// point.
	byMode := map[string]Fig11bRow{}
	for _, r := range rows {
		if r.Entries == 128 {
			byMode[r.Mode] = r
		}
	}
	if byMode["ABV+Opt"].Mem >= byMode["Naive"].Mem {
		t.Fatalf("ABV+Opt mem %d should beat naive %d", byMode["ABV+Opt"].Mem, byMode["Naive"].Mem)
	}
	if !strings.Contains(FormatFig11b(rows), "ABV+Opt") {
		t.Fatal("format output malformed")
	}
}

// TestQuickFindModesAgree: for random generated programs the find-first
// and find-all strategies must agree on whether the spec holds.
func TestQuickFindModesAgree(t *testing.T) {
	for seed := 0; seed < 8; seed++ {
		cfg := genprog.Config{
			Name:         "q",
			Pipes:        1 + seed%2,
			ParserStates: 8 + seed,
			Tables:       4 + seed*2,
			SeedBug:      seed%2 == 0,
		}
		bm := genprog.Assemble(cfg)
		prog, err := bm.Parse()
		if err != nil {
			t.Fatal(err)
		}
		spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
		if err != nil {
			t.Fatal(err)
		}
		first, err := verify.Run(prog, nil, spec, verify.Options{})
		if err != nil {
			t.Fatal(err)
		}
		all, err := verify.Run(prog, nil, spec, verify.Options{FindAll: true})
		if err != nil {
			t.Fatal(err)
		}
		if first.Holds != all.Holds {
			t.Fatalf("seed %d: find-first holds=%v, find-all holds=%v", seed, first.Holds, all.Holds)
		}
		if wantBug := cfg.SeedBug; wantBug == first.Holds {
			t.Fatalf("seed %d: seeded=%v but holds=%v", seed, wantBug, first.Holds)
		}
	}
}

// TestChurnQuick runs a reduced churn experiment: every steady-state
// delta must reproduce the fresh run's canonical bytes and split the
// assertions between replay and re-check, and the CompareChurn gate must
// accept the run against itself but reject byte breaks and doctored
// ratios. The speedup bar itself is pinned by verify.TestSessionSpeedup;
// a 2-delta quick run is too noisy to re-assert it here.
func TestChurnQuick(t *testing.T) {
	res, err := Churn(16, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for i, r := range res.Rows {
		if !r.Identical {
			t.Fatalf("delta %d: session report differs from fresh verification", i)
		}
		if r.Reused == 0 || r.Rechecked == 0 {
			t.Fatalf("delta %d: reuse/recheck split %d/%d, want both non-zero", i, r.Reused, r.Rechecked)
		}
		if int(r.Reused+r.Rechecked) != res.Assertions {
			t.Fatalf("delta %d: reuse %d + recheck %d != %d assertions", i, r.Reused, r.Rechecked, res.Assertions)
		}
	}
	if res.Speedup <= 1 {
		t.Fatalf("steady-state speedup %.2fx, want > 1x even on a quick run", res.Speedup)
	}
	if !strings.Contains(FormatChurn(res), "speedup") {
		t.Fatal("format output malformed")
	}
	ok := *res
	ok.Speedup = 6 // quick runs may sit below the full-run bar; gate shape only
	if err := CompareChurn(&ok, &ok); err != nil {
		t.Fatalf("self-comparison flagged a regression: %v", err)
	}
	broken := ok
	broken.Rows = append([]ChurnRow(nil), ok.Rows...)
	broken.Rows[0].Identical = false
	if err := CompareChurn(&ok, &broken); err == nil {
		t.Fatal("byte-identity break not flagged")
	}
	slow := ok
	slow.Speedup = 0.8 * SessionSpeedupFloor
	if err := CompareChurn(&ok, &slow); err == nil {
		t.Fatal("speedup below the SessionSpeedupFloor bar not flagged")
	}
	tight := ok
	tight.RelWall = ok.RelWall / 10
	if err := CompareChurn(&tight, &ok); err == nil {
		t.Fatal("10x tighter reference ratio not flagged as a regression")
	}
}
