package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"aquila/internal/serve"
	"aquila/internal/tables"
	"aquila/internal/verify"
)

// ServeRow is one steady-state delta of the serve experiment: the same
// single-entry update pushed through the in-process daemon (HTTP wall is
// end-to-end — parse, admission, queue, warm verify, journal-less reply)
// and verified by a full fresh run on the mutated snapshot.
type ServeRow struct {
	Delta string `json:"delta"`
	// HTTPWallMS is the full request round trip through the handler;
	// FreshWallMS the differential fresh run on the mutated snapshot.
	HTTPWallMS  float64 `json:"http_wall_ms"`
	FreshWallMS float64 `json:"fresh_wall_ms"`
	// Identical reports whether the HTTP response body matched the fresh
	// run's canonical bytes exactly (the daemon's determinism contract).
	Identical bool `json:"identical"`
}

// ServeResult is the continuous-verification-daemon experiment: the
// churn workload served over HTTP, measuring what the service layer adds
// on top of the warm session engine.
type ServeResult struct {
	Program    string `json:"program"`
	Assertions int    `json:"assertions"`
	Entries    int    `json:"entries"`
	CPUs       int    `json:"cpus"`
	Warmup     int    `json:"warmup"`
	// CreateWallMS is the POST /sessions round trip (baseline full
	// verification plus handler overhead).
	CreateWallMS float64 `json:"create_wall_ms"`
	// Medians over the steady-state rows; Speedup is fresh/HTTP — the
	// serve analogue of the churn headline, proving the HTTP layer does
	// not erode the warm engine's amortization. RelWall is its inverse,
	// the machine-independent quantity CompareServe gates on.
	MedianHTTPMS  float64    `json:"median_http_ms"`
	MedianFreshMS float64    `json:"median_fresh_ms"`
	Speedup       float64    `json:"speedup"`
	RelWall       float64    `json:"rel_wall"`
	Rows          []ServeRow `json:"rows"`
}

// Serve measures the daemon end-to-end on the churn workload: a session
// created over HTTP absorbs single-entry ECMP flips posted as deltas,
// each answered report is byte-compared against a fresh run on the
// mutated snapshot, and the per-delta HTTP wall (which includes every
// service-layer cost) is the measured quantity.
func Serve(entries, warmup, steady int) (*ServeResult, error) {
	if entries <= 0 {
		entries = 64
	}
	if warmup <= 0 {
		warmup = 2
	}
	if steady <= 0 {
		steady = 8
	}
	bm, spec, snap, err := ChurnWorkload(entries)
	if err != nil {
		return nil, err
	}
	prog, err := bm.Parse()
	if err != nil {
		return nil, err
	}
	flip, err := churnFlipDeltas()
	if err != nil {
		return nil, err
	}

	srv, err := serve.New(serve.Config{Prog: prog, Spec: spec, ProgramRef: "bench:serve"})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	h := srv.Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}

	createBody, err := json.Marshal(map[string]string{"id": "bench", "entries": tables.Format(snap)})
	if err != nil {
		return nil, err
	}
	c0 := time.Now()
	rr := post("/sessions", string(createBody))
	createWall := time.Since(c0)
	if rr.Code != http.StatusCreated {
		return nil, fmt.Errorf("bench: serve create: status %d: %s", rr.Code, rr.Body.String())
	}
	if rr.Header().Get("X-Aquila-Holds") != "true" {
		return nil, fmt.Errorf("bench: serve workload has standing violations")
	}
	var baseline struct {
		Assertions int `json:"assertions"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &baseline); err != nil {
		return nil, err
	}

	res := &ServeResult{
		Program:      bm.Name,
		Assertions:   baseline.Assertions,
		Entries:      entries,
		CPUs:         runtime.GOMAXPROCS(0),
		Warmup:       warmup,
		CreateWallMS: float64(createWall.Microseconds()) / 1000,
	}
	// Track the session's snapshot locally so each fresh differential run
	// sees exactly the state the daemon verified.
	cur := snap.Clone()
	deltaText := func(i int) (string, *tables.Delta) {
		d := flip[i%2]
		return tables.FormatDelta(d), d
	}
	for i := 0; i < warmup; i++ {
		text, d := deltaText(i)
		if rr := post("/sessions/bench/deltas", text); rr.Code != http.StatusOK {
			return nil, fmt.Errorf("bench: serve warmup delta %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
		if err := d.Apply(cur); err != nil {
			return nil, err
		}
	}
	var httpTimes, freshTimes []time.Duration
	for i := 0; i < steady; i++ {
		// Continue the warmup's flip parity so every steady delta is a
		// real change, never a no-op repeat of the previous state.
		text, d := deltaText(warmup + i)
		s0 := time.Now()
		rr := post("/sessions/bench/deltas", text)
		httpWall := time.Since(s0)
		if rr.Code != http.StatusOK {
			return nil, fmt.Errorf("bench: serve delta %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
		if err := d.Apply(cur); err != nil {
			return nil, err
		}
		f0 := time.Now()
		fresh, err := verify.Run(prog, cur, spec, verify.Options{FindAll: true, Parallel: 1})
		if err != nil {
			return nil, fmt.Errorf("bench: serve fresh run %d: %w", i, err)
		}
		freshWall := time.Since(f0)
		freshJS, err := fresh.CanonicalJSON()
		if err != nil {
			return nil, err
		}
		httpTimes = append(httpTimes, httpWall)
		freshTimes = append(freshTimes, freshWall)
		res.Rows = append(res.Rows, ServeRow{
			Delta:       strings.TrimSpace(text),
			HTTPWallMS:  float64(httpWall.Microseconds()) / 1000,
			FreshWallMS: float64(freshWall.Microseconds()) / 1000,
			Identical:   bytes.Equal(rr.Body.Bytes(), freshJS),
		})
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	res.MedianHTTPMS = ms(durMedian(httpTimes))
	res.MedianFreshMS = ms(durMedian(freshTimes))
	if res.MedianHTTPMS > 0 {
		res.Speedup = res.MedianFreshMS / res.MedianHTTPMS
	}
	if res.MedianFreshMS > 0 {
		res.RelWall = res.MedianHTTPMS / res.MedianFreshMS
	}
	return res, nil
}

// CompareServe checks a fresh serve run against a checked-in reference.
// Byte identity is absolute: every HTTP response must match its fresh
// run. The performance gate mirrors CompareChurn — the HTTP layer must
// preserve the SessionSpeedupFloor steady-state amortization bar, with a
// 50% noise-tolerant reference-relative backstop on RelWall.
func CompareServe(ref, cur *ServeResult) error {
	const slack = 1.50
	var problems []string
	for i, row := range cur.Rows {
		if !row.Identical {
			problems = append(problems, fmt.Sprintf(
				"delta %d (%s): HTTP response differs from fresh verification", i, row.Delta))
		}
	}
	if cur.Speedup < SessionSpeedupFloor {
		problems = append(problems, fmt.Sprintf(
			"steady-state speedup %.2fx below the %gx acceptance bar", cur.Speedup, SessionSpeedupFloor))
	}
	if ref.RelWall > 0 && cur.RelWall > ref.RelWall*slack {
		problems = append(problems, fmt.Sprintf(
			"relative wall time %.3f exceeds reference %.3f by more than %.0f%%",
			cur.RelWall, ref.RelWall, 100*(slack-1)))
	}
	if len(problems) > 0 {
		return fmt.Errorf("bench: serve regression on %s:\n  %s",
			cur.Program, strings.Join(problems, "\n  "))
	}
	return nil
}

// JSON renders the experiment for BENCH_serve.json.
func (r *ServeResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// FormatServe renders the experiment as the usual aquila-bench table.
func FormatServe(r *ServeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Continuous verification daemon: %s (%d assertions holding, %d entries, %d CPUs, %d warmup)\n",
		r.Program, r.Assertions, r.Entries, r.CPUs, r.Warmup)
	fmt.Fprintf(&b, "session create over HTTP (baseline verification): %.1f ms\n", r.CreateWallMS)
	fmt.Fprintf(&b, "%-4s  %-52s  %9s  %9s  %9s\n", "#", "delta", "http ms", "fresh ms", "identical")
	for i, row := range r.Rows {
		fmt.Fprintf(&b, "%-4d  %-52s  %9.2f  %9.2f  %9v\n",
			i, row.Delta, row.HTTPWallMS, row.FreshWallMS, row.Identical)
	}
	fmt.Fprintf(&b, "steady-state medians: http %.2f ms vs fresh %.2f ms per delta: %.1fx speedup\n",
		r.MedianHTTPMS, r.MedianFreshMS, r.Speedup)
	return b.String()
}
