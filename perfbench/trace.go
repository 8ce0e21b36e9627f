package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"aquila/internal/obs"
)

// layerSpans are the span names that stand for a pipeline layer; each
// feeds the per-layer metric of the same name with an "_ms" suffix.
var layerSpans = map[string]bool{
	"p4.parse":      true,
	"lpi.parse":     true,
	"tables.parse":  true,
	"lpi.compile":   true,
	"gcl.vcgen":     true,
	"smt.blast":     true,
	"sat.search":    true,
	"smt.model":     true,
	"verify.render": true,
	"session.apply": true,
}

// span is one timed call: name, start, end, the span that caused it
// (-1 for none), the operation it belongs to and the thread row it ran
// on (0 for the client, 1..N for find-all workers).
type span struct {
	Name       string
	Op         int
	Parent     int
	TID        int
	Start, End time.Duration
}

// recorder keeps spans in memory until the run ends. begin and end may
// be called from several goroutines at once.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, op, parent, tid int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, TID: tid, Start: time.Since(r.t0)})
	return len(r.spans) - 1
}

// end closes the span id.
func (r *recorder) end(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = time.Since(r.t0)
}

// wall returns the duration of span id.
func (r *recorder) wall(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].End - r.spans[id].Start
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover. Children running in parallel cover their union.
func (r *recorder) selfTimes() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		type iv struct{ lo, hi time.Duration }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(r.spans[c].Start, s.Start), min(r.spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		reach = s.Start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self times by span name.
func (r *recorder) selfByName() map[string]time.Duration {
	self := r.selfTimes()
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[s.Name] += self[i]
	}
	return out
}

// chromeEvents renders the spans as Chrome trace events, the format
// chrome://tracing, Perfetto and `aquila-bench -analyze` read: begin/end
// pairs in time order after one thread_name event per thread row. Each
// begin carries the operation id and the parent span's name.
func (r *recorder) chromeEvents() []obs.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	us := func(d time.Duration) int64 { return d.Microseconds() }
	tids := map[int]bool{}
	type ev struct {
		obs.Event
		at  time.Duration
		seq int
	}
	var evs []ev
	for i, s := range r.spans {
		parent := ""
		if s.Parent >= 0 {
			parent = r.spans[s.Parent].Name
		}
		tids[s.TID] = true
		evs = append(evs,
			ev{obs.Event{Name: s.Name, Ph: "B", TS: us(s.Start), TID: s.TID,
				Args: map[string]any{"op": s.Op, "parent": parent}}, s.Start, 2 * i},
			ev{obs.Event{Name: s.Name, Ph: "E", TS: us(s.End), TID: s.TID}, s.End, 2*i + 1})
	}
	// Ends sort before begins at the same instant, and a later span's
	// begin after an earlier one's, so nesting survives equal timestamps.
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		if ea, eb := evs[a].Ph == "E", evs[b].Ph == "E"; ea != eb {
			return ea
		}
		if evs[a].Ph == "E" {
			return evs[a].seq > evs[b].seq
		}
		return evs[a].seq < evs[b].seq
	})
	out := make([]obs.Event, 0, len(evs)+len(tids))
	ids := make([]int, 0, len(tids))
	for tid := range tids {
		ids = append(ids, tid)
	}
	sort.Ints(ids)
	for _, tid := range ids {
		name := "client"
		if tid > 0 {
			name = fmt.Sprintf("worker-%d", tid)
		}
		out = append(out, obs.Event{Name: "thread_name", Ph: "M", TID: tid,
			Args: map[string]any{"name": name}})
	}
	for _, e := range evs {
		out = append(out, e.Event)
	}
	return out
}

// writeSpans writes the run's spans as a Chrome trace-event JSON file
// under cfg.Out and returns its path. The environment stamp rides along
// in otherData.
func writeSpans(cfg config, rec *recorder, env map[string]any) (string, error) {
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	path := filepath.Join(cfg.Out, fmt.Sprintf("spans-%s-seed%d.json", cfg.Workload, cfg.Seed))
	data, err := json.Marshal(map[string]any{
		"traceEvents":     rec.chromeEvents(),
		"displayTimeUnit": "ms",
		"otherData":       env,
	})
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}
