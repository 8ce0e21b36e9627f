package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Utilization is the trace-analysis result: per-worker busy fractions
// over the solve phase, the critical path (the longest single check —
// the floor any scheduler can reach), and a straggler index quantifying
// load imbalance.
type Utilization struct {
	// SolveWallUS is the duration of the orchestrator's "solve" phase
	// (falls back to the envelope of all check spans).
	SolveWallUS int64 `json:"solve_wall_us"`
	// Checks is the number of solve:* spans across all workers.
	Checks  int                 `json:"checks"`
	Workers []WorkerUtilization `json:"workers"`
	// MeanBusyFrac / MinBusyFrac aggregate the per-worker fractions.
	MeanBusyFrac float64 `json:"mean_busy_frac"`
	MinBusyFrac  float64 `json:"min_busy_frac"`
	// CriticalPathUS is the longest single check span; no schedule can
	// finish the solve phase faster.
	CriticalPathUS    int64  `json:"critical_path_us"`
	CriticalPathLabel string `json:"critical_path_label"`
	// StragglerIndex is max worker busy time over mean worker busy time
	// (1.0 = perfectly balanced; 2.0 = one worker did twice the mean).
	StragglerIndex float64 `json:"straggler_index"`
}

// WorkerUtilization is one worker row: the sum of its solve:* span
// durations and that sum as a fraction of the solve-phase wall.
type WorkerUtilization struct {
	TID      int     `json:"tid"`
	Name     string  `json:"name,omitempty"`
	Checks   int     `json:"checks"`
	BusyUS   int64   `json:"busy_us"`
	BusyFrac float64 `json:"busy_frac"`
}

// Analyze computes utilization analytics from trace events. Check work
// is every span named "solve:<label>"; the solve wall is the "solve"
// phase on the orchestrator thread. Returns an error when the trace
// contains no check spans. Its remaining caller is perfbench's span-file
// test (TestSpanFileOpensWithTraceTooling, through AnalyzeTraceFile),
// which checks that a benchmark trace opens with the repo's own tooling.
func Analyze(events []Event) (*Utilization, error) {
	type open struct{ ts int64 }
	type key struct {
		tid  int
		name string
	}
	stacks := map[key][]open{}
	names := map[int]string{}
	u := &Utilization{}
	busy := map[int]int64{}
	checks := map[int]int{}
	var envLo, envHi int64 = -1, -1
	var solveLo, solveHi int64 = -1, -1
	for _, e := range events {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				if n, ok := e.Args["name"].(string); ok {
					names[e.TID] = n
				}
			}
		case "B":
			k := key{e.TID, e.Name}
			stacks[k] = append(stacks[k], open{e.TS})
		case "E":
			k := key{e.TID, e.Name}
			st := stacks[k]
			if len(st) == 0 {
				continue
			}
			b := st[len(st)-1]
			stacks[k] = st[:len(st)-1]
			dur := e.TS - b.ts
			if e.Name == "solve" {
				if solveLo < 0 || b.ts < solveLo {
					solveLo, solveHi = b.ts, e.TS
				}
				continue
			}
			if !strings.HasPrefix(e.Name, "solve:") {
				continue
			}
			busy[e.TID] += dur
			checks[e.TID]++
			u.Checks++
			if dur > u.CriticalPathUS {
				u.CriticalPathUS = dur
				u.CriticalPathLabel = strings.TrimPrefix(e.Name, "solve:")
			}
			if envLo < 0 || b.ts < envLo {
				envLo = b.ts
			}
			if e.TS > envHi {
				envHi = e.TS
			}
		}
	}
	if u.Checks == 0 {
		return nil, fmt.Errorf("obs: analyze: no solve:* spans in trace (run with -trace and -all)")
	}
	if solveLo >= 0 {
		u.SolveWallUS = solveHi - solveLo
	} else {
		u.SolveWallUS = envHi - envLo
	}
	if u.SolveWallUS <= 0 {
		u.SolveWallUS = 1
	}
	tids := make([]int, 0, len(busy))
	for tid := range busy {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	var sumBusy, maxBusy int64
	u.MinBusyFrac = 1
	for _, tid := range tids {
		frac := float64(busy[tid]) / float64(u.SolveWallUS)
		u.Workers = append(u.Workers, WorkerUtilization{
			TID: tid, Name: names[tid], Checks: checks[tid],
			BusyUS: busy[tid], BusyFrac: frac,
		})
		sumBusy += busy[tid]
		if busy[tid] > maxBusy {
			maxBusy = busy[tid]
		}
		if frac < u.MinBusyFrac {
			u.MinBusyFrac = frac
		}
	}
	mean := float64(sumBusy) / float64(len(tids))
	u.MeanBusyFrac = mean / float64(u.SolveWallUS)
	if mean > 0 {
		u.StragglerIndex = float64(maxBusy) / mean
	}
	return u, nil
}

// AnalyzeTraceFile reads a Chrome trace-event JSON file (as written by
// -trace) and analyzes it.
func AnalyzeTraceFile(path string) (*Utilization, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: analyze: %w", err)
	}
	var tf struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("obs: analyze: %s: %w", path, err)
	}
	return Analyze(tf.TraceEvents)
}
