package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the measured loop uses the last set-up.
const setupReps = 3

// maxFailNotes bounds how many failure messages a run prints.
const maxFailNotes = 5

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	wall, cpu         []time.Duration // per untraced operation
	rows              []string        // each operation's input: a corpus program, or "churn"
	setups, setupWall []time.Duration // CPU and wall time of each set-up
	peakRSS           float64         // MB, read when the measured loop ends
	layers            *layerAcc       // per-layer values (traced runs)
	rec               *recorder       // spans (traced runs)
	notes             []string
}

// cpuTime returns the CPU time the process has used so far, all threads:
// time its threads ran, not time they waited for a CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs f and returns its wall and CPU time.
func measure(f func()) (wall, cpu time.Duration) {
	c0, t0 := cpuTime(), time.Now()
	f()
	return time.Since(t0), cpuTime() - c0
}

// fail counts a failed operation and keeps its message.
func (oc *outcome) fail(err error) {
	oc.failed++
	if oc.failed <= maxFailNotes {
		msg := fmt.Sprintf("FAIL %v", err)
		oc.notes = append(oc.notes, msg)
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
}

// note adds a human-readable line to the run's report.
func (oc *outcome) note(format string, args ...any) {
	oc.notes = append(oc.notes, fmt.Sprintf(format, args...))
}

// result turns the outcome into the printed result: the end-to-end
// metrics for an untraced run, the per-layer metrics for a traced one.
// With no successful operation every time metric reads 0.
func (oc *outcome) result(cfg config) result {
	res := result{Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed,
		Metrics: map[string]metric{}}
	if cfg.Traced {
		for _, d := range perLayer {
			res.Metrics[d.Name] = metric{oc.layers.value(d.Name), d.Unit}
		}
		return res
	}
	var busy time.Duration
	for _, d := range oc.cpu {
		busy += d
	}
	vals := map[string]float64{
		"cpu_p50_ms":  rowGeomean(oc.rows, oc.cpu, 50),
		"cpu_p90_ms":  rowGeomean(oc.rows, oc.cpu, 90),
		"wall_p50_ms": rowGeomean(oc.rows, oc.wall, 50),
		"peak_rss_mb": oc.peakRSS,
		"setup_s":     percentile(oc.setups, 50).Seconds(),
	}
	if busy > 0 {
		vals["ops_per_cpu_s"] = float64(len(oc.cpu)) / busy.Seconds()
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metric{vals[d.Name], d.Unit}
	}
	for _, q := range []struct {
		name string
		ds   []time.Duration
	}{{"cpu", oc.cpu}, {"wall", oc.wall}} {
		oc.note("%s ms per operation over %d operations: p10 %.3f, p50 %.3f, p90 %.3f, p99 %.3f, max %.3f",
			q.name, len(q.ds), ms(percentile(q.ds, 10)), ms(percentile(q.ds, 50)), ms(percentile(q.ds, 90)),
			ms(percentile(q.ds, 99)), ms(percentile(q.ds, 100)))
	}
	if order, by := byRow(oc.rows, oc.cpu); len(order) > 1 {
		for _, row := range order {
			oc.note("%s: cpu p50 %.3f ms, p90 %.3f ms over %d operations", row,
				ms(percentile(by[row], 50)), ms(percentile(by[row], 90)), len(by[row]))
		}
	}
	// Unbounded wall-clock figures under the benchmark's specified names:
	// verify_* for a verification workload, delta_* for churn.
	prefix := "verify"
	if cfg.Workload == "churn" {
		prefix = "delta"
	}
	var wallSum time.Duration
	for _, d := range oc.wall {
		wallSum += d
	}
	tail, pct, beyond := tailLatency(oc.wall)
	oc.note("%s_tail_ms %.3f ms (wall clock, p%.2f, %d of %d operations beyond it)",
		prefix, ms(tail), pct, beyond, len(oc.wall))
	if wallSum > 0 {
		oc.note("%s_per_s %.3f 1/s (wall clock, closed-loop busy time)", prefix, float64(len(oc.wall))/wallSum.Seconds())
	}
	oc.note("set-ups: cpu %v, wall %v", oc.setups, oc.setupWall)
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tailLatency returns the highest percentile with at least ten samples
// beyond it, the percentile and the number beyond; with ten samples or
// fewer, the maximum.
func tailLatency(ds []time.Duration) (time.Duration, float64, int) {
	n := len(ds)
	if n <= 10 {
		return percentile(ds, 100), 100, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[n-11], 100 * float64(n-10) / float64(n), 10
}

// rowGeomean groups per-operation times by input and returns, in
// milliseconds, the geometric mean over the inputs of each input's p-th
// percentile. With one input it is that input's percentile; on corpus it
// weighs the seven programs alike, where a percentile of the mixed
// samples would fall between two programs' costs.
func rowGeomean(rows []string, ds []time.Duration, p float64) float64 {
	order, by := byRow(rows, ds)
	if len(order) == 0 {
		return 0
	}
	logSum := 0.0
	for _, row := range order {
		logSum += math.Log(ms(percentile(by[row], p)))
	}
	return math.Exp(logSum / float64(len(order)))
}

// byRow groups per-operation times by input, inputs in first-seen order.
func byRow(rows []string, ds []time.Duration) ([]string, map[string][]time.Duration) {
	var order []string
	by := map[string][]time.Duration{}
	for i, d := range ds {
		if by[rows[i]] == nil {
			order = append(order, rows[i])
		}
		by[rows[i]] = append(by[rows[i]], d)
	}
	return order, by
}

// percentile returns the nearest-rank p-th percentile; 0 for none.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[max(int(math.Ceil(p/100*float64(len(s))))-1, 0)]
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// goCounters reads the Go runtime's cumulative GC and allocation
// counters.
type goCounters struct{ gcCPU, totalCPU, allocBytes, allocObjects float64 }

var goSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readGo() goCounters {
	s := make([]metrics.Sample, len(goSamples))
	for i, name := range goSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return goCounters{v(0), v(1), v(2), v(3)}
}

// layerAcc accumulates per-layer values over a traced run's operations.
// Sums are reported per operation; set values are reported as they are.
type layerAcc struct {
	ops int
	sum map[string]float64
	set map[string]float64
	// alloc counts allocation over the untraced operations only.
	allocBytes, allocObjects float64
	go0                      goCounters
}

func newLayerAcc() *layerAcc {
	return &layerAcc{sum: map[string]float64{}, set: map[string]float64{}, go0: readGo()}
}

func (a *layerAcc) add(name string, v float64) { a.sum[name] += v }

// addSpans folds a recorder's self times into the per-layer sums: the
// span "p4.parse" feeds "p4.parse_ms", and so on. Spans that only group
// others ("op", "solve", "solve:<label>") are not layers.
func (a *layerAcc) addSpans(rec *recorder) {
	for name, self := range rec.selfByName() {
		if layerSpans[name] {
			a.add(name+"_ms", ms(self))
		}
	}
}

// untraced runs f, one untraced operation, and counts its allocations.
func (a *layerAcc) untraced(f func()) {
	g0 := readGo()
	f()
	g1 := readGo()
	a.allocBytes += g1.allocBytes - g0.allocBytes
	a.allocObjects += g1.allocObjects - g0.allocObjects
}

// finish sets the run-wide values once the last operation is done.
func (a *layerAcc) finish() {
	g := readGo()
	if cpu := g.totalCPU - a.go0.totalCPU; cpu > 0 {
		a.set["go.gc_cpu_frac"] = (g.gcCPU - a.go0.gcCPU) / cpu
	}
	if a.ops > 0 {
		a.set["go.alloc_mb_per_op"] = a.allocBytes / float64(a.ops) / (1 << 20)
		a.set["go.allocs_per_op"] = a.allocObjects / float64(a.ops)
	}
}

func (a *layerAcc) value(name string) float64 {
	if v, ok := a.set[name]; ok {
		return v
	}
	if a.ops == 0 {
		return 0
	}
	return a.sum[name] / float64(a.ops)
}
