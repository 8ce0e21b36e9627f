package aquila

// bench_test.go hosts one testing.B benchmark per table and figure of the
// paper's evaluation (run them with `go test -bench=. -benchmem`), plus
// ablation benches for the design choices DESIGN.md calls out. The full
// parameter sweeps live in cmd/aquila-bench; these benches use scaled-down
// workloads so a complete -bench=. run stays in CI territory, while
// preserving every comparison's shape.

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"aquila/internal/bench"
	"aquila/internal/encode"
	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/obs"
	"aquila/internal/progs"
	"aquila/internal/smt"
	"aquila/internal/tables"
	"aquila/internal/verify"
)

// BenchmarkTable1_PropertyMatrix runs the full Table 1 property-coverage
// scenario suite.
func BenchmarkTable1_PropertyMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1()
		for _, r := range rows {
			if !r.Supported {
				b.Fatalf("%s/%s unsupported: %v", r.Part, r.Property, r.Err)
			}
		}
	}
}

// BenchmarkTable2_SpecSize measures the specification-size comparison.
func BenchmarkTable2_SpecSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("want 3 scenarios")
		}
	}
}

// BenchmarkTable3 verifies the hand-written suite with each tool — the
// per-tool inner benches expose the time asymmetry Table 3 reports.
func BenchmarkTable3(b *testing.B) {
	suite := progs.HandWrittenSuite()
	for _, tool := range []bench.Tool{bench.ToolAquila, bench.ToolP4V, bench.ToolVera} {
		b.Run(string(tool), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, bm := range suite {
					out, err := bench.RunTool(bm, tool, bench.QuickLimits)
					if err != nil {
						b.Fatal(err)
					}
					if out.Fail == "" && out.Bugs == 0 {
						b.Fatalf("%s/%s found no seeded bug", bm.Name, tool)
					}
				}
			}
		})
	}
}

// BenchmarkTable3_ProductionScale runs one production-shaped program per
// tool, showing the completes-vs-explodes split of Table 3's lower half.
func BenchmarkTable3_ProductionScale(b *testing.B) {
	cfg := genprog.Config{Name: "big", Pipes: 2, ParserStates: 40, Tables: 60, ActionsPerTable: 3, SeedBug: true}
	bm := genprog.Assemble(cfg)
	lim := bench.Limits{TreeCap: 100_000, MaxPaths: 20_000, Budget: 20_000_000}
	for _, tool := range []bench.Tool{bench.ToolAquila, bench.ToolP4V, bench.ToolVera} {
		b.Run(string(tool), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := bench.RunTool(bm, tool, lim)
				if err != nil {
					b.Fatal(err)
				}
				switch tool {
				case bench.ToolAquila:
					if out.Fail != "" {
						b.Fatalf("Aquila must complete, got %s", out.Fail)
					}
				default:
					if out.Fail == "" {
						b.Fatalf("%s should exceed its budget at this scale", tool)
					}
				}
			}
		})
	}
}

// BenchmarkTable4_Localization runs the three bug kinds on the small
// switch-T.
func BenchmarkTable4_Localization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table4([]string{"small"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Found {
				b.Fatalf("%s/%s: culprit not found", r.Scale, r.Bug)
			}
		}
	}
}

// BenchmarkFig11a_ProgramScaling sweeps chained switch-T copies.
func BenchmarkFig11a_ProgramScaling(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			cfg := genprog.SwitchT("small")
			cfg.TTLChain = false
			bm := genprog.AssembleChain(cfg, k)
			prog, err := bm.Parse()
			if err != nil {
				b.Fatal(err)
			}
			spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := verify.Run(prog, nil, spec, verify.Options{FindAll: true})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Holds {
					b.Fatal("clean chain must verify")
				}
			}
		})
	}
}

// BenchmarkFig11b_TableEntryScaling sweeps entry counts per table mode.
func BenchmarkFig11b_TableEntryScaling(b *testing.B) {
	cfg := genprog.SwitchT("small")
	cfg.TTLChain = false
	bm := genprog.Assemble(cfg)
	prog, err := bm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{128, 512, 1024} {
		snap := genprog.BigTableSnapshot(cfg, n)
		spec, err := lpi.Parse(genprog.BigTableSpec(cfg, bm.Calls, uint64(0x0A000000+n/2), 0))
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []struct {
			name string
			mode encode.TableMode
		}{{"Naive", encode.TableNaive}, {"ABV", encode.TableABVLinear}, {"ABVOpt", encode.TableABVTree}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, m.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rep, err := verify.Run(prog, snap, spec, verify.Options{
						FindAll: true, Encode: encode.Options{Table: m.mode}})
					if err != nil {
						b.Fatal(err)
					}
					if !rep.Holds {
						b.Fatal("lookup property must hold")
					}
				}
			})
		}
	}
}

// ---- ablation benches (DESIGN.md "key internal design choices") ----

// BenchmarkAblation_SequentialVsTree compares the §4.1 sequential parser
// encoding with the naive tree expansion on a branching-heavy parser.
func BenchmarkAblation_SequentialVsTree(b *testing.B) {
	cfg := genprog.Config{Name: "abl", Pipes: 1, ParserStates: 15, Tables: 8}
	bm := genprog.Assemble(cfg)
	prog, err := bm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name string
		mode encode.ParserMode
	}{{"Sequential", encode.ParserSequential}, {"Tree", encode.ParserTree}} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := verify.Run(prog, nil, spec, verify.Options{
					FindAll: true, Encode: encode.Options{Parser: m.mode, TreeCap: 8 << 20}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_PacketKVvsBitvector compares the §4.2 key-value packet
// model against the monolithic bit-vector baseline.
func BenchmarkAblation_PacketKVvsBitvector(b *testing.B) {
	prog, err := ParseProgram("pkt", demoProgram)
	if err != nil {
		b.Fatal(err)
	}
	// A packet-model-neutral property: parsed field equals its own value.
	spec, err := ParseSpec(`
assertion { a = { if (valid(ipv4)) ipv4.ttl == ipv4.ttl; } }
program { call(pl); assert(a); }`)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name string
		mode encode.PacketMode
	}{{"KV", encode.PacketKV}, {"Bitvector", encode.PacketBitvector}} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := verify.Run(prog, nil, spec, verify.Options{
					FindAll: true, Encode: encode.Options{Packet: m.mode}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_FindFirstVsFindAll measures the §5.1 assertion
// labelling trade-off the paper reports ("higher memory when finding the
// first bug, longer time finding all").
func BenchmarkAblation_FindFirstVsFindAll(b *testing.B) {
	bm := progs.HandWrittenSuite()[0] // Simple Router
	prog, err := bm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name    string
		findAll bool
	}{{"First", false}, {"All", true}} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := verify.Run(prog, nil, spec, verify.Options{FindAll: m.findAll}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead measures the observability tax on a full find-all
// verification of the DC Gateway: instrumented-but-disabled (nil sinks —
// every hook is a nil check), fully enabled (tracer + registry + JSONL
// log to io.Discard), and the full flight recorder on top (per-check
// histograms fold into the registry and a heartbeat ring samples every
// 64th conflict). DESIGN.md budgets < 3% for the disabled path and
// documents the enabled paths at < 5%.
func BenchmarkObsOverhead(b *testing.B) {
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, sink *obs.Obs) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			rep, err := verify.Run(prog, nil, spec, verify.Options{
				FindAll: true, Parallel: 1, Obs: sink})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Stats.Assertions == 0 {
				b.Fatal("no assertions verified")
			}
		}
	}
	b.Run("Disabled", func(b *testing.B) { run(b, nil) })
	b.Run("Enabled", func(b *testing.B) {
		run(b, &obs.Obs{
			Tracer:  obs.NewTracer(),
			Metrics: obs.NewRegistry(),
			Log:     obs.NewLogger(io.Discard),
		})
	})
	b.Run("FlightRecorder", func(b *testing.B) {
		sink := &obs.Obs{
			Tracer:   obs.NewTracer(),
			Metrics:  obs.NewRegistry(),
			Log:      obs.NewLogger(io.Discard),
			Progress: obs.NewProgressRing(256, 64),
		}
		run(b, sink)
		if len(sink.Metrics.Histograms()) == 0 {
			b.Fatal("flight run folded no histograms")
		}
		if sink.Progress.Seq() == 0 {
			b.Fatal("flight run published no heartbeat samples")
		}
	})
}

// BenchmarkVerifyDCGateway_Allocs is the allocation benchmark CI gates
// on: an end-to-end serial find-all verification of the DC Gateway, one
// solver reset to its fresh state per assertion. Run with -benchmem; the
// allocs/op column is the number the term-arena / flat-clause-DB work
// exists to shrink, and the scale campaign's CompareScale holds it within
// 20% of the checked-in BENCH_scale.json anchor row. B/op is what solver
// reuse shrinks; CI fails it above 2x the figure EXPERIMENTS.md records.
func BenchmarkVerifyDCGateway_Allocs(b *testing.B) {
	b.ReportAllocs()
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := verify.Run(prog, nil, spec, verify.Options{FindAll: true, Parallel: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Violations) == 0 {
			b.Fatal("no bugs on a benchmark with seeded violations")
		}
	}
}

// BenchmarkSessionApply_Allocs is the delta-path allocation benchmark CI
// gates on: warm verify.Session re-verification of the DC Gateway with
// 256 installed ECMP entries under its holding property, one seeded
// single-entry replace per op. Sessions are rebuilt (untimed) every
// sessionEpisode deltas so the warm context's growth stays bounded and
// allocs/op does not drift with b.N. Run with -benchmem; CI fails
// allocs/op above 1.5x the figure EXPERIMENTS.md records.
func BenchmarkSessionApply_Allocs(b *testing.B) {
	const entries, sessionEpisode = 256, 64
	b.ReportAllocs()
	bm, spec, snap, err := bench.ChurnWorkload(entries)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var sess *verify.Session
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%sessionEpisode == 0 {
			b.StopTimer()
			if sess, err = verify.NewSession(prog, snap, spec, verify.Options{Parallel: 1}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		key := rng.Intn(entries)
		act := fmt.Sprintf("set_nhop(%d)", rng.Intn(8)+1)
		if rng.Intn(8) == 0 {
			act = "a_drop"
		}
		d, err := tables.ParseDelta(fmt.Sprintf("replace GatewayIngress.ecmp_nhop_tbl %d %d -> %s", key, key, act))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sess.Apply(d)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Holds {
			b.Fatal("holding property violated by a single-entry replace")
		}
	}
}

// BenchmarkSMT_Interning exercises the hash-consing micro-path: a mix of
// fresh constructions (map miss + insert) and re-constructions of existing
// terms (map hit), the dominant operation of GCL encoding.
func BenchmarkSMT_Interning(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := smt.NewCtx()
		vars := make([]*smt.Term, 16)
		for j := range vars {
			vars[j] = ctx.Var(fmt.Sprintf("v%d", j), 32)
		}
		acc := ctx.BV(0, 32)
		for j := 0; j < 256; j++ {
			v := vars[j%len(vars)]
			acc = ctx.BVAdd(acc, ctx.BVXor(v, ctx.BV(uint64(j), 32)))
			// Re-construction of an existing term: pure lookup.
			ctx.BVXor(v, ctx.BV(uint64(j), 32))
			ctx.Extract(acc, 15, 0)
		}
		ctx.Eq(acc, ctx.BV(42, 32))
	}
}

// BenchmarkSolver_BitBlast exercises the SMT substrate directly: a
// register-chained arithmetic equation per iteration.
func BenchmarkSolver_BitBlast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := smt.NewCtx()
		s := smt.NewSolver(ctx)
		x := ctx.Var("x", 32)
		y := ctx.Var("y", 32)
		s.Assert(ctx.Eq(ctx.BVAdd(ctx.BVMul(x, ctx.BV(3, 32)), y), ctx.BV(99, 32)))
		s.Assert(ctx.Ult(y, ctx.BV(3, 32)))
		if s.Check() != smt.Sat {
			b.Fatal("expected sat")
		}
	}
}
