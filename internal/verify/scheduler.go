// Work-stealing find-all scheduler. Static sharding keys every assertion
// to one worker up front, so a single heavy assertion leaves its shard
// grinding while the others idle — the straggler pattern the obs
// utilization analytics measure. Here the static shards become per-worker
// deques ordered largest-first (by blast-size estimate), a
// worker drains its own deque with a long-lived incremental solver, and an
// idle worker steals the largest remaining item from the busiest-looking
// victim, paying the fresh-blast fallback because its own solver's
// accumulated CNF does not cover the stolen shard's prefix.
//
// Determinism: which worker runs a check (and whether it was stolen)
// changes only cost accounting. Verdicts are semantic; Sat answers are
// re-solved on the original condition by a deterministic fresh solver in
// every path (checkOneShared, checkOne), so canonical reports are
// byte-identical to the static engine at every worker count. Budget
// (Unknown) verdicts remain the documented exception: stealing changes
// which learned clauses a budget reaches with.
package verify

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"aquila/internal/smt"
)

// stealQueue is the shared deque set: one queue per worker, each sorted
// largest-cost-first, guarded by one mutex (checks cost milliseconds; the
// pop costs nanoseconds, so a finer-grained structure would buy nothing).
type stealQueue struct {
	mu     sync.Mutex
	queues [][]int
	cost   []int64
}

// newStealQueue builds per-worker queues from static shards, ordering each
// queue by descending cost so owners start their heaviest work first and
// thieves steal the largest remaining item. Ties keep ascending assertion
// index (sort is stable; shards are index-ascending), so the schedule is a
// pure function of (shards, cost).
func newStealQueue(shards [][]int, cost []int64) *stealQueue {
	q := &stealQueue{queues: make([][]int, len(shards)), cost: cost}
	for s, idxs := range shards {
		own := append([]int(nil), idxs...)
		sort.SliceStable(own, func(a, b int) bool {
			return cost[own[a]] > cost[own[b]]
		})
		q.queues[s] = own
	}
	return q
}

// next returns the next assertion index for worker w: the head of w's own
// queue, else the largest head among the other queues (stolen=true), else
// ok=false when no work remains anywhere.
func (q *stealQueue) next(w int) (idx int, stolen, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if own := q.queues[w]; len(own) > 0 {
		q.queues[w] = own[1:]
		return own[0], false, true
	}
	best := -1
	var bestCost int64 = -1
	for v := range q.queues {
		if v == w || len(q.queues[v]) == 0 {
			continue
		}
		if c := q.cost[q.queues[v][0]]; c > bestCost {
			best, bestCost = v, c
		}
	}
	if best < 0 {
		return 0, false, false
	}
	idx = q.queues[best][0]
	q.queues[best] = q.queues[best][1:]
	return idx, true, true
}

// checkAllSteal is find-all under the work-stealing scheduler (Options.
// Schedule == ScheduleSteal). Owned checks run on the worker's long-lived
// incremental solver via activation literals; stolen checks fall back to
// deterministic fresh blasting, exactly the static fresh engine's unit of
// work.
func (rep *Report) checkAllSteal(opts Options) error {
	conds := rep.Result.Violations
	n := len(conds)
	workers := opts.Workers()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	rep.Stats.Workers = workers
	rep.Stats.Schedule = ScheduleSteal.String()
	o := opts.Observer()

	// Slices are computed serially before the context may freeze (slicing
	// creates terms), as in every other find-all engine.
	checkConds := make([]*smt.Term, n)
	for i, v := range conds {
		checkConds[i] = v.Cond
	}
	if opts.Slice {
		rep.sliceConds(opts, conds, checkConds)
	}

	// Work-item cost estimate: the check condition's DAG size, a proxy for
	// blast size and hence solve effort. Computed serially — TermSize
	// memoizes on the shared context.
	cost := make([]int64, n)
	for i, c := range checkConds {
		cost[i] = int64(smt.TermSize(c))
	}
	q := newStealQueue(StaticShards(workers, n), cost)

	outs := make([]checkOut, n)
	prefixClauses := make([]int64, workers) // dominating one-check Tseitin delta per owner

	// limit is the lowest assertion index seen to exhaust the budget;
	// workers skip checks at or beyond it so every worker stops promptly.
	limit := int64(n)

	// runWorker drains worker `shard`'s queue, then steals until the pool
	// is empty. The incremental solver is created lazily: a worker whose
	// whole queue was stolen out from under it never blasts a prefix.
	runWorker := func(worker, shard int) {
		var solver *smt.Solver
		var prev smt.SolverStats
		for {
			i, stolen, ok := q.next(shard)
			if !ok {
				return
			}
			if int64(i) >= atomic.LoadInt64(&limit) {
				continue
			}
			v := conds[i]
			out := &outs[i]
			out.stolen = stolen
			endSpan := o.Span(worker, "solve:"+v.Label)
			if stolen {
				out.status, out.model, out.ss, out.cpu =
					rep.checkOne(opts, v, checkConds[i], worker)
			} else {
				if solver == nil {
					solver = opts.newSolver(rep.Ctx)
				}
				var sharedTseitin int64
				out.status, out.model, out.ss, out.cpu, sharedTseitin =
					rep.checkOneShared(opts, v, checkConds[i], worker, solver, &prev)
				if sharedTseitin > prefixClauses[shard] {
					// The check that first touches the real VC blasts the
					// whole shared prefix; later owned checks reuse its CNF,
					// so the largest single-check delta is that one-time cost.
					prefixClauses[shard] = sharedTseitin
				}
			}
			endSpan()
			rep.recordCheck(o, v.Label, worker, out.ss, out.status, out.cpu)
			out.done = true
			if out.status == smt.Unknown {
				for {
					cur := atomic.LoadInt64(&limit)
					if int64(i) >= cur || atomic.CompareAndSwapInt64(&limit, cur, int64(i)) {
						break
					}
				}
			}
		}
	}

	if workers > 1 {
		// The context becomes shared read-only state; blasting and model
		// extraction never intern, and any stray term creation serializes.
		rep.Ctx.Freeze()
		if o != nil && o.Tracer != nil {
			o.Tracer.NameThread(0, "main")
			for w := 1; w <= workers; w++ {
				o.Tracer.NameThread(w, fmt.Sprintf("worker-%d", w))
			}
		}
		var wg sync.WaitGroup
		for s := 0; s < workers; s++ {
			wg.Add(1)
			go func(shard int) {
				defer wg.Done()
				runWorker(shard+1, shard)
			}(s)
		}
		wg.Wait()
	} else if n > 0 {
		runWorker(0, 0)
	}
	for _, pc := range prefixClauses {
		rep.Stats.PrefixClauses += pc
	}

	// Consume results in assertion order, exactly as checkAll: checks the
	// early stop skipped run inline fresh on the caller (worker/tid 0), so
	// the consumed prefix — violations up to the first budget-exhausted
	// check — is identical at every {workers, schedule} point.
	var err error
	for i, v := range conds {
		if !outs[i].done {
			endSpan := o.Span(0, "solve:"+v.Label)
			out := &outs[i]
			out.status, out.model, out.ss, out.cpu = rep.checkOne(opts, v, checkConds[i], 0)
			endSpan()
			rep.recordCheck(o, v.Label, 0, out.ss, out.status, out.cpu)
			out.done = true
		}
		out := &outs[i]
		rep.Stats.SolveCPU += out.cpu
		rep.Stats.addSolver(out.ss)
		if out.stolen {
			rep.Stats.Steals++
		}
		rep.Stats.PerAssertion = append(rep.Stats.PerAssertion, AssertionCost{
			Label:        v.Label,
			Status:       statusString(out.status),
			SolveTime:    out.cpu,
			Conflicts:    out.ss.Conflicts,
			Decisions:    out.ss.Decisions,
			Propagations: out.ss.Propagations,
			Restarts:     out.ss.Restarts,
			CNFClauses:   out.ss.Clauses,
			SATVars:      out.ss.SATVars,
		})
		o.Event("assertion", map[string]any{
			"label": v.Label, "status": statusString(out.status),
			"solve_us": out.cpu.Microseconds(), "conflicts": out.ss.Conflicts,
			"clauses": out.ss.Clauses, "stolen": out.stolen,
		})
		if out.status == smt.Unknown {
			o.Event("budget_exhausted", map[string]any{
				"label": v.Label, "budget": opts.Budget,
			})
			err = ErrBudget
			break
		}
		if out.status == smt.Sat {
			rep.Violations = append(rep.Violations, rep.makeViolation(v, out.model))
		}
	}
	return err
}
