package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aquila/internal/lpi"
	"aquila/internal/p4"
	"aquila/internal/progs"
	"aquila/internal/tables"
	"aquila/internal/verify"
)

// dcSnapshot is the base ECMP snapshot the DC-gateway serve tests
// install per session (mirrors the verify session tests).
const dcSnapshot = `
table GatewayIngress.ecmp_nhop_tbl {
  0 -> set_nhop(1)
  1 -> set_nhop(2)
  2 -> set_nhop(3)
  3 -> a_drop
}
`

// dcProblem builds the DC gateway with its inferred UB spec — the serve
// differential workload, matching the verify session tests.
func dcProblem(t testing.TB) (*p4.Program, *lpi.Spec) {
	t.Helper()
	bm := progs.DCGatewayBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	return prog, spec
}

// newTestServer builds a daemon and closes it when the test ends. Crash
// tests that must abandon a daemon without draining call New directly.
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// do drives one in-process request through the daemon's handler.
func do(srv *Server, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	return rr
}

// createSession creates a session over HTTP with inline entries and
// returns the baseline report body.
func createSession(t testing.TB, srv *Server, id, entries string) []byte {
	t.Helper()
	body, err := json.Marshal(createRequest{ID: id, Entries: entries})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	rr := do(srv, "POST", "/sessions", string(body))
	if rr.Code != http.StatusCreated {
		t.Fatalf("create %s: status %d: %s", id, rr.Code, rr.Body.String())
	}
	return rr.Body.Bytes()
}

// applyDelta posts one delta and asserts a 200 report response.
func applyDelta(t testing.TB, srv *Server, id, delta string) *httptest.ResponseRecorder {
	t.Helper()
	rr := do(srv, "POST", "/sessions/"+id+"/deltas", delta)
	if rr.Code != http.StatusOK {
		t.Fatalf("delta to %s: status %d: %s", id, rr.Code, rr.Body.String())
	}
	return rr
}

// freshCanonical is the oracle: a fresh find-all run on snap, canonical
// bytes — what every HTTP report must equal.
func freshCanonical(t testing.TB, prog *p4.Program, spec *lpi.Spec, snap *tables.Snapshot) []byte {
	t.Helper()
	rep, err := verify.Run(prog, snap, spec, verify.Options{FindAll: true, Parallel: 1})
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	js, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	return js
}

func mustSnapshot(t testing.TB, text string) *tables.Snapshot {
	t.Helper()
	snap, err := tables.ParseSnapshot(text)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap
}

func applyText(t testing.TB, snap *tables.Snapshot, delta string) {
	t.Helper()
	d, err := tables.ParseDelta(delta)
	if err != nil {
		t.Fatalf("delta %q: %v", delta, err)
	}
	if err := d.Apply(snap); err != nil {
		t.Fatalf("delta %q: %v", delta, err)
	}
}

// TestServeByteIdentityPins pins the HTTP determinism contract at
// {1 session, 4 concurrent sessions} x {clean start, journal-recovered
// start}: every report body returned over HTTP is byte-identical to a
// fresh verify.Run on the equivalent snapshot.
func TestServeByteIdentityPins(t *testing.T) {
	prog, spec := dcProblem(t)
	base := mustSnapshot(t, dcSnapshot)
	for _, tc := range []struct {
		name      string
		sessions  int
		recovered bool
	}{
		{"one-session-clean", 1, false},
		{"four-sessions-clean", 4, false},
		{"one-session-recovered", 1, true},
		{"four-sessions-recovered", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Prog: prog, Spec: spec, ProgramRef: "test:dc-gateway"}
			if tc.recovered {
				cfg.JournalDir = t.TempDir()
			}
			srv := newTestServer(t, cfg)

			ids := make([]string, tc.sessions)
			exp := make([]*tables.Snapshot, tc.sessions)
			for i := range ids {
				ids[i] = fmt.Sprintf("pin-%d", i)
				exp[i] = base.Clone()
				body := createSession(t, srv, ids[i], dcSnapshot)
				if i == 0 {
					want := freshCanonical(t, prog, spec, base)
					if !bytes.Equal(body, want) {
						t.Fatalf("create report differs from fresh baseline:\nhttp:\n%s\nfresh:\n%s", body, want)
					}
				}
			}
			// Two deltas per session, distinct across sessions so the
			// mutated states genuinely differ.
			for i, id := range ids {
				d1 := fmt.Sprintf("add GatewayIngress.ecmp_nhop_tbl %d -> set_nhop(%d)", 4+i, i%8+1)
				d2 := fmt.Sprintf("replace GatewayIngress.ecmp_nhop_tbl %d %d -> a_drop", i, i)
				applyDelta(t, srv, id, d1)
				applyText(t, exp[i], d1)
				rr := applyDelta(t, srv, id, d2)
				applyText(t, exp[i], d2)
				if !tc.recovered {
					want := freshCanonical(t, prog, spec, exp[i])
					if !bytes.Equal(rr.Body.Bytes(), want) {
						t.Fatalf("session %s delta 2: http report differs from fresh run", id)
					}
				}
			}
			if tc.recovered {
				srv.Close()
				srv = newTestServer(t, cfg)
				if got := srv.Recovered(); got != tc.sessions {
					t.Fatalf("recovered %d sessions, want %d", got, tc.sessions)
				}
			}
			// One more delta per (possibly recovered) session: the report
			// must match a fresh run on base + all applied deltas.
			for i, id := range ids {
				extra := "remove GatewayIngress.ecmp_nhop_tbl 2"
				rr := applyDelta(t, srv, id, extra)
				applyText(t, exp[i], extra)
				want := freshCanonical(t, prog, spec, exp[i])
				if !bytes.Equal(rr.Body.Bytes(), want) {
					t.Fatalf("session %s post-%s delta: http report differs from fresh run:\nhttp:\n%s\nfresh:\n%s",
						id, tc.name, rr.Body.Bytes(), want)
				}
			}
		})
	}
}

// TestServeHTTPErrors is the table-driven error-path suite: every
// rejection comes back as the right status with a JSON error body, and
// none of them mutate the session.
func TestServeHTTPErrors(t *testing.T) {
	prog, spec := dcProblem(t)
	srv := newTestServer(t, Config{Prog: prog, Spec: spec, MaxBody: 512})
	createSession(t, srv, "s1", dcSnapshot)

	valid := "replace GatewayIngress.ecmp_nhop_tbl 0 0 -> a_drop"
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantInBody string
	}{
		{"malformed delta text", "POST", "/sessions/s1/deltas", "bogus delta", http.StatusBadRequest, "unknown delta op"},
		{"empty delta", "POST", "/sessions/s1/deltas", "", http.StatusBadRequest, "empty delta"},
		{"unknown session id", "POST", "/sessions/nope/deltas", valid, http.StatusNotFound, `no session "nope"`},
		{"nonexistent table", "POST", "/sessions/s1/deltas", "add GatewayIngress.no_such_tbl 1 -> a_drop", http.StatusBadRequest, `unknown table "GatewayIngress.no_such_tbl"`},
		{"index out of range", "POST", "/sessions/s1/deltas", "remove GatewayIngress.ecmp_nhop_tbl 99", http.StatusBadRequest, "remove"},
		{"oversized body", "POST", "/sessions/s1/deltas", strings.Repeat("# pad\n", 200), http.StatusRequestEntityTooLarge, "exceeds 512 bytes"},
		{"double create", "POST", "/sessions", `{"id":"s1"}`, http.StatusConflict, "already exists"},
		{"bad session id", "POST", "/sessions", `{"id":"../escape"}`, http.StatusBadRequest, "session id"},
		{"create body not JSON", "POST", "/sessions", "not json", http.StatusBadRequest, "create body"},
		{"bad deadline param", "POST", "/sessions/s1/deltas?deadline_ms=abc", valid, http.StatusBadRequest, "deadline_ms"},
		{"info unknown session", "GET", "/sessions/nope", "", http.StatusNotFound, `no session "nope"`},
		{"delete unknown session", "DELETE", "/sessions/nope", "", http.StatusNotFound, `no session "nope"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := do(srv, tc.method, tc.path, tc.body)
			if rr.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d (body: %s)", rr.Code, tc.wantStatus, rr.Body.String())
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error body is not {\"error\": ...}: %s", rr.Body.String())
			}
			if !strings.Contains(e.Error, tc.wantInBody) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.wantInBody)
			}
		})
	}

	// None of the rejections above changed the session: zero deltas.
	rr := do(srv, "GET", "/sessions/s1", "")
	var info struct {
		Deltas int `json:"deltas"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
		t.Fatalf("info: %v", err)
	}
	if info.Deltas != 0 {
		t.Fatalf("rejected requests mutated the session: %d deltas recorded", info.Deltas)
	}
}

// TestServeDeadlineExceeded pins the deadline path: an expired deadline
// is mapped onto the solver cancellation token, so the apply comes back
// with the Unknown-status report shape and the deadline header — and the
// session recovers full determinism on the next undeadlined delta.
func TestServeDeadlineExceeded(t *testing.T) {
	prog, spec := dcProblem(t)
	srv := newTestServer(t, Config{Prog: prog, Spec: spec})
	// The seam runs after dequeue, before the deadline is armed: sleeping
	// past the deadline guarantees the token is pre-set when the first
	// check starts, making the Unknown deterministic.
	srv.beforeApply = func(string) { time.Sleep(50 * time.Millisecond) }
	createSession(t, srv, "dl", dcSnapshot)

	rr := do(srv, "POST", "/sessions/dl/deltas?deadline_ms=1",
		"replace GatewayIngress.ecmp_nhop_tbl 0 0 -> a_drop")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if got := rr.Header().Get("X-Aquila-Deadline-Exceeded"); got != "true" {
		t.Fatalf("X-Aquila-Deadline-Exceeded = %q, want true", got)
	}
	if got := rr.Header().Get("X-Aquila-Budget-Exhausted"); got != "true" {
		t.Fatalf("X-Aquila-Budget-Exhausted = %q, want true", got)
	}
	if !strings.Contains(rr.Body.String(), `"unknown"`) {
		t.Fatalf("deadline-exceeded report has no unknown-status assertion:\n%s", rr.Body.String())
	}

	// The delta WAS applied (state advanced); with no deadline the next
	// apply resolves every Unknown and byte-identity is restored.
	exp := mustSnapshot(t, dcSnapshot)
	applyText(t, exp, "replace GatewayIngress.ecmp_nhop_tbl 0 0 -> a_drop")
	applyText(t, exp, "add GatewayIngress.ecmp_nhop_tbl 7 -> set_nhop(3)")
	rr = applyDelta(t, srv, "dl", "add GatewayIngress.ecmp_nhop_tbl 7 -> set_nhop(3)")
	if got := rr.Header().Get("X-Aquila-Deadline-Exceeded"); got != "false" {
		t.Fatalf("X-Aquila-Deadline-Exceeded = %q, want false", got)
	}
	want := freshCanonical(t, prog, spec, exp)
	if !bytes.Equal(rr.Body.Bytes(), want) {
		t.Fatalf("post-deadline report differs from fresh run")
	}
}

// TestServeUnencodableDelta: a delta that applies to the snapshot but
// names an action its table lacks fails in encoding. It must come back
// 400, stay out of the journal and the delta count, and leave the
// session serving: the next valid delta is answered 200 with a report
// byte-identical to a fresh run, and journal recovery succeeds.
func TestServeUnencodableDelta(t *testing.T) {
	prog, spec := dcProblem(t)
	cfg := Config{Prog: prog, Spec: spec, ProgramRef: "test:dc-gateway", JournalDir: t.TempDir()}
	srv := newTestServer(t, cfg)
	createSession(t, srv, "u", dcSnapshot)

	rr := do(srv, "POST", "/sessions/u/deltas", "add GatewayIngress.ecmp_nhop_tbl 9 -> no_such_action")
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("unencodable delta: status %d, want 400 (body: %s)", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "no_such_action") {
		t.Fatalf("error body does not name the missing action: %s", rr.Body.String())
	}

	valid := "add GatewayIngress.ecmp_nhop_tbl 7 -> set_nhop(3)"
	exp := mustSnapshot(t, dcSnapshot)
	applyText(t, exp, valid)
	rr = applyDelta(t, srv, "u", valid)
	want := freshCanonical(t, prog, spec, exp)
	if !bytes.Equal(rr.Body.Bytes(), want) {
		t.Fatalf("report after an unencodable delta differs from fresh run:\nhttp:\n%s\nfresh:\n%s", rr.Body.Bytes(), want)
	}
	var info struct {
		Deltas int `json:"deltas"`
	}
	if err := json.Unmarshal(do(srv, "GET", "/sessions/u", "").Body.Bytes(), &info); err != nil {
		t.Fatalf("info: %v", err)
	}
	if info.Deltas != 1 {
		t.Fatalf("session counts %d deltas, want 1 (the unencodable one must not count)", info.Deltas)
	}

	srv.Close()
	srv = newTestServer(t, cfg)
	if got := srv.Recovered(); got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	extra := "remove GatewayIngress.ecmp_nhop_tbl 2"
	rr = applyDelta(t, srv, "u", extra)
	applyText(t, exp, extra)
	if want := freshCanonical(t, prog, spec, exp); !bytes.Equal(rr.Body.Bytes(), want) {
		t.Fatal("recovered session report differs from fresh run")
	}
}

// TestServeLifecycleEndpoints covers the non-report surface: healthz,
// session listing and info, delete, metrics exposition, and drain.
func TestServeLifecycleEndpoints(t *testing.T) {
	prog, spec := dcProblem(t)
	srv := newTestServer(t, Config{Prog: prog, Spec: spec})

	rr := do(srv, "GET", "/healthz", "")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", rr.Code, rr.Body.String())
	}
	createSession(t, srv, "a", dcSnapshot)
	createSession(t, srv, "b", dcSnapshot)
	applyDelta(t, srv, "a", "remove GatewayIngress.ecmp_nhop_tbl 0")

	rr = do(srv, "GET", "/sessions", "")
	if want := `{"count":2,"sessions":["a","b"]}`; rr.Body.String() != want {
		t.Fatalf("list = %s, want %s", rr.Body.String(), want)
	}
	rr = do(srv, "GET", "/sessions/a", "")
	var info struct {
		Deltas     int   `json:"deltas"`
		Assertions int   `json:"assertions"`
		Holds      bool  `json:"holds"`
		Budget     int64 `json:"budget"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
		t.Fatalf("info: %v: %s", err, rr.Body.String())
	}
	if info.Deltas != 1 || info.Assertions == 0 {
		t.Fatalf("info = %+v", info)
	}

	rr = do(srv, "GET", "/metrics", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rr.Code)
	}
	for _, want := range []string{"aquila_serve_apply_wall_us", "aquila_serve_queue_wait_us", "aquila_serve_sessions 2", "# EOF"} {
		if !strings.Contains(rr.Body.String(), want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, rr.Body.String())
		}
	}

	rr = do(srv, "DELETE", "/sessions/b", "")
	if rr.Code != http.StatusNoContent {
		t.Fatalf("delete: %d %s", rr.Code, rr.Body.String())
	}
	rr = do(srv, "GET", "/sessions/b", "")
	if rr.Code != http.StatusNotFound {
		t.Fatalf("deleted session still answers: %d", rr.Code)
	}

	srv.Close()
	rr = do(srv, "GET", "/healthz", "")
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), "draining") {
		t.Fatalf("healthz after Close: %d %s", rr.Code, rr.Body.String())
	}
	rr = do(srv, "POST", "/sessions", `{"id":"late"}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("create after Close: %d", rr.Code)
	}
}
