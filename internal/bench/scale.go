package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"aquila/internal/encode"
	"aquila/internal/genprog"
	"aquila/internal/lpi"
	"aquila/internal/obs"
	"aquila/internal/progs"
	"aquila/internal/verify"
)

// The scale campaign (ROADMAP item 3) pushes genprog 10–100× past the
// switch-T small structural counts and 10⁴–10⁵ table entries — well past
// the paper's Figure 11 sweeps — and records, per point, the three
// quantities the allocation-lean engine exists to bound: wall time, peak
// live heap (the RSS proxy Go can observe portably), and heap allocation
// count. The numbers flow through the obs registry into BENCH_scale.json,
// and CompareScale turns the checked-in file into a relative regression
// gate.

// ScaleRow is one campaign point.
type ScaleRow struct {
	// Point names the measurement: axis + scale + parser/table encodings,
	// e.g. "struct_x10/seq/abv". Keys are stable across runs — the
	// regression gate joins on them.
	Point string `json:"point"`
	// Axis is "anchor" (DC Gateway, the allocs/op gate point),
	// "structural" (pipelines/parsers/tables multiplied) or "entries"
	// (big-table snapshot sweeps).
	Axis string `json:"axis"`
	// Scale is the structural multiplier over switch-T small, or the
	// entry count on the entries axis (0 for the anchor).
	Scale int `json:"scale"`
	// Parser/Table name the encodings: "seq" vs "tree", "abv" vs "naive".
	Parser string `json:"parser"`
	Table  string `json:"table"`

	Assertions int     `json:"assertions"`
	Bugs       int     `json:"bugs"`
	WallMS     float64 `json:"wall_ms"`
	// RelWall is wall time relative to the anchor row of the same run;
	// unlike WallMS it is comparable across machines, so it is what
	// CompareScale checks.
	RelWall float64 `json:"rel_wall"`
	// PeakHeapBytes is the maximum live heap sampled during the run — the
	// quantity that must stop scaling with whole-program VC size once VCs
	// stream. Allocs counts heap allocations over the run (the benchmark
	// allocs/op figure, measured via runtime.MemStats).
	PeakHeapBytes int64 `json:"peak_heap_bytes"`
	Allocs        int64 `json:"allocs"`
	// MemFormula is term DAG nodes + retained CNF clauses, the formula
	// footprint the paper reports as verification memory.
	MemFormula int64 `json:"mem_formula"`
	// Fail is "", "OOM" (encoding exploded) or "OOT" (budget exhausted).
	// An explosion is an expected outcome on hostile points (naive tables
	// at 10⁵ entries, tree parsers at 40 states) — the gate only flags a
	// point whose fail state CHANGED versus the reference.
	Fail string `json:"fail,omitempty"`
}

// ScaleBaseline pins the measurements taken on the pre-arena engine (the
// seed of this PR) immediately before the term-arena / flat-clause-DB /
// streaming-VC refactor landed. They are the fixed "before" of the
// acceptance criterion and do not change when the campaign reruns.
type ScaleBaseline struct {
	// DCGatewayAllocs is allocs per find-all verify run on DC Gateway.
	DCGatewayAllocs int64 `json:"dcgw_allocs"`
	// LargestPoint / LargestPeakHeapBytes record peak live heap on the
	// largest structural point the pre-arena engine completed.
	LargestPoint         string `json:"largest_point"`
	LargestPeakHeapBytes int64  `json:"largest_peak_heap_bytes"`
}

// PreArenaBaseline was measured on the seed engine (commit 9c64427) with
// this same campaign harness — same points, same 5 ms MemStats sampler —
// before the memory-layout refactor, under the options the campaign used
// then (find-all, serial, slicing and CNF preprocessing, neither of which
// Run offers any more). The reported reductions therefore include the
// preprocessor's share. See EXPERIMENTS.md ("Scale
// campaign") for methodology.
var PreArenaBaseline = ScaleBaseline{
	DCGatewayAllocs:      792_078,
	LargestPoint:         "struct_x20/seq/abv",
	LargestPeakHeapBytes: 563_230_736,
}

// ScaleResult is the whole campaign.
type ScaleResult struct {
	CPUs    int  `json:"cpus"`
	NumCPU  int  `json:"num_cpu"`
	Quick   bool `json:"quick"`
	Repeats int  `json:"repeats"`
	// PreArena embeds the frozen pre-refactor baseline; AllocReduction and
	// PeakHeapReduction compare this run's anchor allocs and largest-point
	// peak heap against it (1 - current/baseline; higher is better).
	PreArena          ScaleBaseline `json:"pre_arena_baseline"`
	AllocReduction    float64       `json:"alloc_reduction_dcgw"`
	PeakHeapReduction float64       `json:"peak_heap_reduction_largest"`
	Rows              []ScaleRow    `json:"rows"`
}

// scalePoint is one campaign configuration before measurement.
type scalePoint struct {
	key    string
	axis   string
	scale  int
	parser string
	table  string
	quick  bool // included in -quick runs (the CI subset)
	run    func() (*verify.Report, error)
}

// scaleBudget bounds SAT conflicts on the hostile points so explosions
// surface as OOT rows instead of hung campaigns.
const scaleBudget = 20_000_000

// scalePoints builds the campaign. Axes:
//
//   - anchor: DC Gateway find-all with the shipping engine config — the
//     allocs/op gate point, directly comparable to the pre-arena baseline.
//   - structural: switch-T small multiplied ×10 and ×20 (120 and 240
//     tables, 2 and 3 pipelines), sequential vs tree parser encodings.
//   - entries: the big-table program under 10⁴ and 10⁵ installed entries,
//     balanced-ABV-tree vs naive table encodings.
func scalePoints(quick bool) ([]scalePoint, error) {
	var pts []scalePoint

	// Anchor.
	dcgw := progs.DCGatewayBench()
	dcProg, err := dcgw.Parse()
	if err != nil {
		return nil, err
	}
	dcSpec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(dcProg, dcgw.Calls))
	if err != nil {
		return nil, err
	}
	pts = append(pts, scalePoint{
		key: "dcgw/seq/abv", axis: "anchor", parser: "seq", table: "abv", quick: true,
		run: func() (*verify.Report, error) {
			return verify.Run(dcProg, nil, dcSpec, scaleOpts(encode.Options{}))
		},
	})

	// Structural multipliers over switch-T small (12 tables, 12 parser
	// states, 1 pipe). ×20 (240 tables, 3 pipes) is the committed top:
	// ×40 at 5 pipes ran past an hour per engine on this container —
	// per-assertion cost grows with table count AND assertion count grows
	// with table count, so wall is superquadratic in the multiplier — and
	// a point nobody can re-measure is not a regression gate.
	structCfg := func(mult int) genprog.Config {
		base := genprog.SwitchT("small")
		base.TTLChain = false
		base.SeedBug = true
		base.Pipes = 1 + mult/10 // ×10 → 2 pipes, ×20 → 3
		base.Tables = 12 * mult  // hundreds of tables
		base.ParserStates = 12 + mult/2
		return base
	}
	structPt := func(mult int, parser string, quickPt bool) (scalePoint, error) {
		cfg := structCfg(mult)
		bm := genprog.Assemble(cfg)
		prog, err := bm.Parse()
		if err != nil {
			return scalePoint{}, err
		}
		spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
		if err != nil {
			return scalePoint{}, err
		}
		eopts := encode.Options{}
		if parser == "tree" {
			eopts.Parser = encode.ParserTree
			eopts.TreeCap = 2_000_000
		}
		return scalePoint{
			key:  fmt.Sprintf("struct_x%d/%s/abv", mult, parser),
			axis: "structural", scale: mult, parser: parser, table: "abv", quick: quickPt,
			run: func() (*verify.Report, error) {
				return verify.Run(prog, nil, spec, scaleOpts(eopts))
			},
		}, nil
	}
	for _, p := range []struct {
		mult   int
		parser string
		quick  bool
	}{
		{10, "seq", true},
		{10, "tree", false},
		{20, "seq", false},
	} {
		pt, err := structPt(p.mult, p.parser, p.quick)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}

	// Entry sweeps on the big-table program.
	entryCfg := genprog.SwitchT("small")
	entryCfg.TTLChain = false
	entryBM := genprog.Assemble(entryCfg)
	entryProg, err := entryBM.Parse()
	if err != nil {
		return nil, err
	}
	entryPt := func(n int, table string, mode encode.TableMode, quickPt bool) (scalePoint, error) {
		snap := genprog.BigTableSnapshot(entryCfg, n)
		dst := uint64(0x0A000000 + n/2)
		spec, err := lpi.Parse(genprog.BigTableSpec(entryCfg, entryBM.Calls, dst, uint64((n/2)%500)))
		if err != nil {
			return scalePoint{}, err
		}
		return scalePoint{
			key:  fmt.Sprintf("entries_%d/seq/%s", n, table),
			axis: "entries", scale: n, parser: "seq", table: table, quick: quickPt,
			run: func() (*verify.Report, error) {
				return verify.Run(entryProg, snap, spec, scaleOpts(encode.Options{Table: mode}))
			},
		}, nil
	}
	for _, p := range []struct {
		n     int
		table string
		mode  encode.TableMode
		quick bool
	}{
		{10_000, "abv", encode.TableABVTree, true},
		{10_000, "naive", encode.TableNaive, false},
		{100_000, "abv", encode.TableABVTree, false},
	} {
		pt, err := entryPt(p.n, p.table, p.mode, p.quick)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}

	if quick {
		var qs []scalePoint
		for _, p := range pts {
			if p.quick {
				qs = append(qs, p)
			}
		}
		pts = qs
	}
	return pts, nil
}

// scaleOpts is the engine configuration every campaign point runs
// under: the fresh per-assertion find-all engine, serial, so peak heap
// and allocations are not spread over a worker pool.
func scaleOpts(eopts encode.Options) verify.Options {
	return verify.Options{
		Encode:   eopts,
		FindAll:  true,
		Budget:   scaleBudget,
		Parallel: 1,
	}
}

// Scale runs the campaign. With quick set only the CI subset runs (one
// point per axis); reg, when non-nil, receives each row's peak-heap gauge
// and allocation counter so traces show the campaign like any other
// instrumented phase.
func Scale(quick bool, reg *obs.Registry) (*ScaleResult, error) {
	pts, err := scalePoints(quick)
	if err != nil {
		return nil, err
	}
	res := &ScaleResult{
		CPUs:     runtime.GOMAXPROCS(0),
		NumCPU:   runtime.NumCPU(),
		Quick:    quick,
		Repeats:  1,
		PreArena: PreArenaBaseline,
	}
	var anchorWall time.Duration
	for _, p := range pts {
		row := ScaleRow{Point: p.key, Axis: p.axis, Scale: p.scale, Parser: p.parser, Table: p.table}

		// Quiesce, then measure: allocation count from MemStats deltas,
		// peak live heap from a background sampler (Go cannot observe RSS
		// portably; max HeapAlloc is the closest faithful proxy).
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		stop := make(chan struct{})
		done := make(chan struct{})
		var peak atomic.Int64
		peak.Store(int64(m0.HeapAlloc))
		go func() {
			defer close(done)
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					var m runtime.MemStats
					runtime.ReadMemStats(&m)
					if h := int64(m.HeapAlloc); h > peak.Load() {
						peak.Store(h)
					}
				}
			}
		}()

		start := time.Now()
		rep, runErr := p.run()
		wall := time.Since(start)
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		close(stop)
		<-done
		if h := int64(m1.HeapAlloc); h > peak.Load() {
			peak.Store(h)
		}

		row.WallMS = float64(wall.Microseconds()) / 1000
		row.PeakHeapBytes = peak.Load()
		row.Allocs = int64(m1.Mallocs - m0.Mallocs)
		if runErr != nil {
			out, ferr := failOutcome(runErr)
			if ferr != nil {
				return nil, fmt.Errorf("bench: scale point %s: %w", p.key, ferr)
			}
			row.Fail = out.Fail
		} else {
			row.Assertions = rep.Stats.Assertions
			row.Bugs = len(rep.Violations)
			row.MemFormula = int64(rep.Stats.TermNodes + rep.Stats.CNFClauses)
		}
		if p.axis == "anchor" {
			anchorWall = wall
		}
		if anchorWall > 0 {
			row.RelWall = float64(wall) / float64(anchorWall)
		}
		if reg != nil {
			reg.Gauge(obs.GaugeBenchPeakHeap).Set(row.PeakHeapBytes)
			reg.Counter(obs.CtrBenchAllocs).Add(row.Allocs)
		}
		res.Rows = append(res.Rows, row)
	}

	// Reductions against the frozen pre-arena baseline.
	for _, row := range res.Rows {
		if row.Axis == "anchor" && res.PreArena.DCGatewayAllocs > 0 {
			res.AllocReduction = 1 - float64(row.Allocs)/float64(res.PreArena.DCGatewayAllocs)
		}
		if row.Point == res.PreArena.LargestPoint && res.PreArena.LargestPeakHeapBytes > 0 {
			res.PeakHeapReduction = 1 - float64(row.PeakHeapBytes)/float64(res.PreArena.LargestPeakHeapBytes)
		}
	}
	return res, nil
}

// CompareScale checks a fresh campaign against the checked-in reference
// and reports an error when the current run is meaningfully worse: a
// fail state that changed, allocation count grown >20% beyond the
// reference on any point present in both, relative wall time grown
// >50%, or a vanished allocation reduction. Allocation counts are
// deterministic (run-to-run deltas of a few counts in hundreds of
// millions), so they get the tight slack and carry the gate; wall times
// on a busy single-core runner jitter ±20% per point, and RelWall is a
// ratio of two such measurements with a ~100ms denominator, so the wall
// check is a loose backstop against catastrophic slowdowns only.
func CompareScale(ref, cur *ScaleResult) error {
	const (
		wallSlack  = 1.50
		allocSlack = 1.20
	)
	refRows := make(map[string]ScaleRow, len(ref.Rows))
	for _, r := range ref.Rows {
		refRows[r.Point] = r
	}
	var problems []string
	for _, row := range cur.Rows {
		old, ok := refRows[row.Point]
		if !ok {
			continue // new point: nothing to compare against
		}
		if row.Fail != old.Fail {
			problems = append(problems, fmt.Sprintf("%s: fail state %q, reference %q",
				row.Point, row.Fail, old.Fail))
			continue
		}
		if old.RelWall > 0 && row.RelWall > old.RelWall*wallSlack {
			problems = append(problems, fmt.Sprintf(
				"%s: relative wall %.2f exceeds reference %.2f by more than %.0f%%",
				row.Point, row.RelWall, old.RelWall, 100*(wallSlack-1)))
		}
		if old.Allocs > 0 && float64(row.Allocs) > float64(old.Allocs)*allocSlack {
			problems = append(problems, fmt.Sprintf(
				"%s: allocs %d exceed reference %d by more than %.0f%%",
				row.Point, row.Allocs, old.Allocs, 100*(allocSlack-1)))
		}
	}
	if ref.AllocReduction > 0.40 && cur.AllocReduction <= 0.40 {
		problems = append(problems, fmt.Sprintf(
			"DC Gateway alloc reduction fell below the 40%% bar: reference %.1f%%, current %.1f%%",
			100*ref.AllocReduction, 100*cur.AllocReduction))
	}
	if len(problems) > 0 {
		return fmt.Errorf("bench: scale regression:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// JSON renders the campaign for BENCH_scale.json.
func (r *ScaleResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// FormatScale renders the campaign as the usual aquila-bench table.
func FormatScale(r *ScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale campaign (%d CPUs, quick=%v)\n", r.NumCPU, r.Quick)
	fmt.Fprintf(&b, "%-24s  %-10s  %9s  %8s  %12s  %12s  %11s  %5s  %5s\n",
		"point", "axis", "wall ms", "rel", "peak heap", "allocs", "formula", "bugs", "fail")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s  %-10s  %9.1f  %8.2f  %12d  %12d  %11d  %5d  %5s\n",
			row.Point, row.Axis, row.WallMS, row.RelWall, row.PeakHeapBytes,
			row.Allocs, row.MemFormula, row.Bugs, row.Fail)
	}
	if r.PreArena.DCGatewayAllocs > 0 {
		fmt.Fprintf(&b, "alloc reduction vs pre-arena engine (DC Gateway): %.1f%%\n", 100*r.AllocReduction)
	}
	if r.PreArena.LargestPeakHeapBytes > 0 {
		fmt.Fprintf(&b, "peak-heap reduction vs pre-arena engine (%s): %.1f%%\n",
			r.PreArena.LargestPoint, 100*r.PeakHeapReduction)
	}
	return b.String()
}
