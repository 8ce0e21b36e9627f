// Package serve is aquila's continuous verification daemon: the paper's
// CP-bug class exists because control planes push table updates
// continuously, so verification has to be a long-lived service, not a
// one-shot CLI snapshot. The daemon loads one program+spec pair, then
// manages any number of named warm verify.Sessions over it: deltas to
// different sessions verify in parallel, deltas to one session queue in
// strict arrival order behind a per-session apply loop.
//
// The HTTP surface is deliberately thin and deterministic:
//
//	POST   /sessions               create a session (201, baseline report)
//	GET    /sessions               list session ids
//	POST   /sessions/{id}/deltas   apply one delta (200, delta report)
//	GET    /sessions/{id}          session info
//	DELETE /sessions/{id}          drop the session (204)
//	GET    /healthz                liveness + session count
//	GET    /metrics                OpenMetrics exposition of the registry
//
// The determinism contract over HTTP: every report body (create and
// delta) is EXACTLY the canonical JSON of the session's Report —
// byte-identical to a fresh verify.Run on the equivalent snapshot, with
// budget/deadline Unknowns the same documented exception the session
// engine has. Verdict metadata rides in X-Aquila-* headers so the body
// bytes stay comparable. Robustness is part of the subsystem: a
// checksummed append-only journal (journal.go) replayed on restart,
// per-request verification deadlines mapped onto the solver cancellation
// token, bounded request bodies, and graceful drain on shutdown.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aquila/internal/lpi"
	"aquila/internal/obs"
	"aquila/internal/p4"
	"aquila/internal/tables"
	"aquila/internal/verify"
)

// DefaultMaxBody bounds request bodies when Config.MaxBody is unset.
const DefaultMaxBody = 1 << 20

// Config configures a daemon over one program+spec pair.
type Config struct {
	Prog *p4.Program
	Spec *lpi.Spec
	// Snap is the base snapshot new sessions start from unless the create
	// request carries inline entries. nil is the "verify under any
	// entries" snapshot.
	Snap *tables.Snapshot
	// Opts is the base verification options for every session; the
	// session engine ignores FindAll and Parallel (it is always find-all
	// and serial), and each session gets its own cancellation token.
	Opts verify.Options
	// ProgramRef is an opaque identity of the program+spec pair, pinned
	// into every journal create record; recovery refuses a journal
	// written under a different ref rather than replaying deltas against
	// the wrong program.
	ProgramRef string
	// JournalDir, when non-empty, enables the crash-recovery journal:
	// one append-only file per session, replayed by New on restart.
	JournalDir string
	// MaxBody bounds request bodies in bytes (<=0: DefaultMaxBody).
	MaxBody int64
	// Deadline is the default per-delta verification deadline, measured
	// from request arrival and mapped onto the solver cancellation token
	// (0: none). A request's ?deadline_ms= parameter overrides it.
	Deadline time.Duration
	// Obs attaches observability sinks; its metrics registry (or a
	// private one when absent) backs /metrics and the serve instruments.
	Obs *obs.Obs
}

// Server is the daemon core, independent of any listener: Handler
// exposes the HTTP surface, Close drains it. Tests drive it through
// httptest; cmd/aquila-serve wraps it in an http.Server with signal
// handling.
type Server struct {
	cfg   Config
	known map[string]bool // fq "Control.table" names the program declares
	reg   *obs.Registry
	mux   *http.ServeMux

	mu        sync.Mutex
	sessions  map[string]*session
	creating  map[string]bool // ids reserved while their baseline runs
	draining  bool
	recovered int

	// beforeApply, when non-nil, runs after a job is dequeued and before
	// its deadline is armed — a test seam that makes deadline-expiry
	// deterministic (the test sleeps past the deadline here, so the
	// cancellation token is already set when the first check starts).
	beforeApply func(id string)
}

// session is one named warm verify.Session behind a serialized apply
// loop: the jobs channel is the queue, loop is its single consumer, so
// deltas to this session verify in strict arrival order while other
// sessions' loops run concurrently.
type session struct {
	id       string
	srv      *Server
	sess     *verify.Session
	cancel   *atomic.Bool // the verify cancellation token; armed per deadline
	budget   int64
	deadline time.Duration
	jw       *journalWriter // nil without a journal

	jobs chan *applyJob
	wg   sync.WaitGroup // in-flight enqueuing handlers
	done chan struct{}  // closed when loop has exited

	mu     sync.Mutex
	deltas int
	holds  bool
}

// applyJob is one queued delta with its reply channel; the loop answers
// every dequeued job exactly once, including during drain.
type applyJob struct {
	delta     *tables.Delta
	deltaText string
	deadline  time.Duration
	enq       time.Time
	reply     chan applyResult
}

type applyResult struct {
	rep *verify.Report
	// reject is a pre-verification failure (bad index against the current
	// snapshot, or a snapshot that fails to encode): the session did not
	// change and nothing was journaled.
	reject error
	// err is a post-verification failure (internal); the session DID
	// change and the delta was journaled.
	err error
	// budget reports the run stopped Unknown (ErrBudget); deadlineHit
	// distinguishes an expired deadline from conflict-budget exhaustion.
	budget      bool
	deadlineHit bool
}

var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// New builds a daemon and, when a journal directory is configured,
// recovers every session journaled there. Recovery is all-or-nothing and
// loud: a corrupted record or mismatched program ref fails New.
func New(cfg Config) (*Server, error) {
	if cfg.Prog == nil || cfg.Spec == nil {
		return nil, fmt.Errorf("serve: Config needs a program and a spec")
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	srv := &Server{
		cfg:      cfg,
		known:    map[string]bool{},
		sessions: map[string]*session{},
		creating: map[string]bool{},
	}
	for ctlName, ctl := range cfg.Prog.Controls {
		for tname := range ctl.Tables {
			srv.known[ctlName+"."+tname] = true
		}
	}
	if cfg.Obs != nil && cfg.Obs.Metrics != nil {
		srv.reg = cfg.Obs.Metrics
	} else {
		srv.reg = obs.NewRegistry()
	}
	srv.mux = http.NewServeMux()
	srv.mux.HandleFunc("POST /sessions", srv.handleCreate)
	srv.mux.HandleFunc("GET /sessions", srv.handleList)
	srv.mux.HandleFunc("POST /sessions/{id}/deltas", srv.handleDelta)
	srv.mux.HandleFunc("GET /sessions/{id}", srv.handleInfo)
	srv.mux.HandleFunc("DELETE /sessions/{id}", srv.handleDelete)
	srv.mux.HandleFunc("GET /healthz", srv.handleHealthz)
	srv.mux.HandleFunc("GET /metrics", srv.handleMetrics)
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			return nil, err
		}
		if err := srv.recoverSessions(); err != nil {
			return nil, err
		}
	}
	return srv, nil
}

// Handler returns the daemon's HTTP surface.
func (srv *Server) Handler() http.Handler { return srv.mux }

// Recovered reports how many sessions New rebuilt from the journal.
func (srv *Server) Recovered() int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.recovered
}

// Close drains the daemon: new requests are refused, queued deltas are
// verified (and journaled) to completion, then every session and journal
// file is closed. Safe to call once; the graceful-SIGTERM path.
func (srv *Server) Close() error {
	srv.mu.Lock()
	srv.draining = true
	list := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		list = append(list, s)
	}
	srv.sessions = map[string]*session{}
	srv.mu.Unlock()
	for _, s := range list {
		s.shutdown()
	}
	srv.reg.Gauge(obs.GaugeServeSessions).Set(0)
	return nil
}

// shutdown waits out in-flight enqueuers, lets the loop drain the queue,
// and closes the session. The caller must already have removed s from
// the registry map, so no new enqueuer can appear.
func (s *session) shutdown() {
	s.wg.Wait()
	close(s.jobs)
	<-s.done
}

// recoverSessions rebuilds sessions from every journal in the configured
// directory: replay the clean record prefix (truncating a torn tail),
// check the program ref, re-run the baseline, and re-apply each delta
// through the warm engine — deterministic, so the rebuilt session state
// matches what the crashed daemon had verified.
func (srv *Server) recoverSessions() error {
	paths, err := filepath.Glob(filepath.Join(srv.cfg.JournalDir, "*.journal"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, path := range paths {
		recs, cleanLen, torn, err := replayJournal(path)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return fmt.Errorf("serve: journal %s: no complete record survives (torn=%v); refusing to guess", path, torn)
		}
		cr := recs[0]
		if cr.Kind != recCreate {
			return fmt.Errorf("serve: journal %s: first record is %q, want %q", path, cr.Kind, recCreate)
		}
		id := idFromJournal(path)
		if cr.ID != id {
			return fmt.Errorf("serve: journal %s: create record names session %q", path, cr.ID)
		}
		if cr.ProgramRef != srv.cfg.ProgramRef {
			return fmt.Errorf("serve: journal %s: written under program ref %q, daemon is serving %q — refusing to replay deltas against a different program",
				path, cr.ProgramRef, srv.cfg.ProgramRef)
		}
		var snap *tables.Snapshot
		if !cr.AnyEntries {
			snap, err = tables.ParseSnapshot(cr.Snapshot)
			if err != nil {
				return fmt.Errorf("serve: journal %s: base snapshot: %v", path, err)
			}
		}
		s, _, err := srv.newSession(id, snap, cr.Budget, time.Duration(cr.DeadlineMS)*time.Millisecond)
		if err != nil {
			return fmt.Errorf("serve: journal %s: rebuilding session: %v", path, err)
		}
		for i, rec := range recs[1:] {
			if rec.Kind != recDelta {
				return fmt.Errorf("serve: journal %s: record %d is %q, want %q", path, i+1, rec.Kind, recDelta)
			}
			d, err := tables.ParseDelta(rec.Delta)
			if err != nil {
				return fmt.Errorf("serve: journal %s: record %d: %v", path, i+1, err)
			}
			// Same admission gate the HTTP path runs: a journal delta naming
			// a table the program lacks must fail replay, not silently add a
			// phantom table to the snapshot.
			if err := d.Validate(func(t string) bool { return srv.known[t] }); err != nil {
				return fmt.Errorf("serve: journal %s: record %d: %v", path, i+1, err)
			}
			rep, err := s.sess.Apply(d)
			if err != nil && !errors.Is(err, verify.ErrBudget) {
				return fmt.Errorf("serve: journal %s: replaying delta %d: %v", path, i+1, err)
			}
			s.deltas++
			s.holds = rep.Holds
		}
		jw, err := openJournal(path, cleanLen)
		if err != nil {
			return err
		}
		s.jw = jw
		srv.mu.Lock()
		srv.sessions[id] = s
		srv.recovered++
		srv.mu.Unlock()
		go s.loop()
		srv.reg.Counter(obs.CtrServeRecovered).Add(1)
	}
	srv.reg.Gauge(obs.GaugeServeSessions).Set(int64(len(srv.sessions)))
	return nil
}

func idFromJournal(path string) string {
	base := filepath.Base(path)
	return base[:len(base)-len(".journal")]
}

func (srv *Server) journalPath(id string) string {
	return filepath.Join(srv.cfg.JournalDir, id+".journal")
}

// newSession builds the warm engine for one session, with its own
// cancellation token wired through the verification options. The second
// result reports budget exhaustion during the baseline (the session is
// still usable; the verdicts are Unknown).
func (srv *Server) newSession(id string, snap *tables.Snapshot, budget int64, deadline time.Duration) (*session, bool, error) {
	cancel := &atomic.Bool{}
	opts := srv.cfg.Opts
	opts.Cancel = cancel
	if budget > 0 {
		opts.Budget = budget
	}
	sess, err := verify.NewSession(srv.cfg.Prog, snap, srv.cfg.Spec, opts)
	budgetHit := errors.Is(err, verify.ErrBudget)
	if err != nil && !budgetHit {
		return nil, false, err
	}
	s := &session{
		id:       id,
		srv:      srv,
		sess:     sess,
		cancel:   cancel,
		budget:   opts.Budget,
		deadline: deadline,
		jobs:     make(chan *applyJob, 64),
		done:     make(chan struct{}),
		holds:    sess.Baseline().Holds,
	}
	return s, budgetHit, nil
}

// loop is the session's single consumer: strict FIFO over the jobs
// channel, one verification at a time, every dequeued job answered.
func (s *session) loop() {
	defer close(s.done)
	for j := range s.jobs {
		s.srv.reg.Histogram(obs.HistServeQueueWaitUS).Observe(time.Since(j.enq).Microseconds())
		if hook := s.srv.beforeApply; hook != nil {
			hook(s.id)
		}
		s.apply(j)
	}
	s.sess.Close()
	if s.jw != nil {
		s.jw.Close()
	}
}

// apply runs one dequeued delta: trial-apply for snapshot-dependent
// validation (so a rejected delta provably left the session unchanged),
// arm the deadline, verify, journal, reply.
func (s *session) apply(j *applyJob) {
	res := applyResult{}
	trial := s.sess.Snapshot()
	if trial == nil {
		trial = tables.NewSnapshot()
	}
	if err := j.delta.Apply(trial); err != nil {
		res.reject = err
		j.reply <- res
		return
	}
	var timer *time.Timer
	if j.deadline > 0 {
		// The deadline is measured from request arrival: time queued
		// behind earlier deltas counts against it.
		if rem := time.Until(j.enq.Add(j.deadline)); rem <= 0 {
			s.cancel.Store(true)
		} else {
			timer = time.AfterFunc(rem, func() { s.cancel.Store(true) })
		}
	}
	t0 := time.Now()
	rep, err := s.sess.Apply(j.delta)
	wall := time.Since(t0)
	if timer != nil {
		timer.Stop()
	}
	fired := s.cancel.Load()
	s.cancel.Store(false)

	reg := s.srv.reg
	reg.Histogram(obs.HistServeApplyWallUS).Observe(wall.Microseconds())
	if rep == nil && err != nil {
		// The mutated snapshot failed to encode or compile (e.g. an entry
		// naming an action its table lacks); Apply undid it.
		res.reject = err
		j.reply <- res
		return
	}
	res.rep = rep
	switch {
	case err == nil:
	case errors.Is(err, verify.ErrBudget):
		res.budget = true
		res.deadlineHit = fired
	default:
		res.err = err
	}
	// The snapshot mutated (the trial apply and the check above rule out
	// rejection), so the journal must record the delta regardless of the
	// verdict.
	if s.jw != nil {
		if jerr := s.jw.append(journalRecord{Kind: recDelta, Delta: j.deltaText}); jerr != nil && res.err == nil {
			res.err = fmt.Errorf("serve: journal append: %w", jerr)
		}
	}
	if rep != nil {
		reg.Counter(obs.CtrServeDeltas).Add(1)
		s.mu.Lock()
		s.deltas++
		s.holds = rep.Holds
		s.mu.Unlock()
	}
	j.reply <- res
}

// ---- HTTP handlers ----

// createRequest is the POST /sessions body.
type createRequest struct {
	ID string `json:"id"`
	// Budget bounds SAT conflicts per check (0: the daemon default).
	Budget int64 `json:"budget,omitempty"`
	// DeadlineMS is this session's default per-delta deadline
	// (0: the daemon default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Entries, when non-empty, is the session's base snapshot in the
	// tables text format, overriding the daemon's base snapshot.
	Entries string `json:"entries,omitempty"`
}

func (srv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := srv.readBody(w, r)
	if !ok {
		return
	}
	var req createRequest
	if err := json.Unmarshal(body, &req); err != nil {
		srv.httpError(w, http.StatusBadRequest, "create body: %v", err)
		return
	}
	if !idPattern.MatchString(req.ID) {
		srv.httpError(w, http.StatusBadRequest, "session id %q: want %s", req.ID, idPattern)
		return
	}
	snap := srv.cfg.Snap
	anyEntries := snap == nil
	if req.Entries != "" {
		var err error
		snap, err = tables.ParseSnapshot(req.Entries)
		if err != nil {
			srv.httpError(w, http.StatusBadRequest, "entries: %v", err)
			return
		}
		anyEntries = false
	}
	deadline := srv.cfg.Deadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}

	// Reserve the id before the (slow) baseline run so a concurrent
	// duplicate create conflicts instead of racing.
	srv.mu.Lock()
	if srv.draining {
		srv.mu.Unlock()
		srv.httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if srv.sessions[req.ID] != nil || srv.creating[req.ID] {
		srv.mu.Unlock()
		srv.httpError(w, http.StatusConflict, "session %q already exists", req.ID)
		return
	}
	srv.creating[req.ID] = true
	srv.mu.Unlock()
	release := func() {
		srv.mu.Lock()
		delete(srv.creating, req.ID)
		srv.mu.Unlock()
	}

	s, budgetHit, err := srv.newSession(req.ID, snap, req.Budget, deadline)
	if err != nil {
		release()
		srv.httpError(w, http.StatusBadRequest, "creating session: %v", err)
		return
	}
	if srv.cfg.JournalDir != "" {
		jw, jerr := createJournal(srv.journalPath(req.ID), journalRecord{
			Kind:       recCreate,
			ID:         req.ID,
			ProgramRef: srv.cfg.ProgramRef,
			Budget:     s.budget,
			DeadlineMS: deadline.Milliseconds(),
			Snapshot:   tables.Format(snap),
			AnyEntries: anyEntries,
		})
		if jerr != nil {
			s.sess.Close()
			release()
			srv.httpError(w, http.StatusInternalServerError, "creating journal: %v", jerr)
			return
		}
		s.jw = jw
	}
	srv.mu.Lock()
	delete(srv.creating, req.ID)
	if srv.draining {
		// Close started while the baseline ran; it cannot see this
		// session, so dismantle it here instead of leaking it.
		srv.mu.Unlock()
		s.sess.Close()
		if s.jw != nil {
			s.jw.Close()
			os.Remove(srv.journalPath(req.ID))
		}
		srv.httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	srv.sessions[req.ID] = s
	n := len(srv.sessions)
	srv.mu.Unlock()
	srv.reg.Gauge(obs.GaugeServeSessions).Set(int64(n))
	go s.loop()

	w.Header().Set("X-Aquila-Holds", strconv.FormatBool(s.sess.Baseline().Holds))
	w.Header().Set("X-Aquila-Budget-Exhausted", strconv.FormatBool(budgetHit))
	srv.writeReport(w, http.StatusCreated, s.sess.Baseline())
}

func (srv *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	enq := time.Now()
	srv.mu.Lock()
	s := srv.sessions[id]
	if s != nil {
		// Holding wg across the enqueue keeps DELETE/Close from closing
		// the channel under us; taken inside srv.mu so the deleter's
		// map-removal + wg.Wait cannot slip between lookup and Add.
		s.wg.Add(1)
	}
	srv.mu.Unlock()
	if s == nil {
		srv.httpError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	defer s.wg.Done()

	body, ok := srv.readBody(w, r)
	if !ok {
		return
	}
	delta, err := tables.ParseDelta(string(body))
	if err != nil {
		srv.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(delta.Ops) == 0 {
		srv.httpError(w, http.StatusBadRequest, "empty delta")
		return
	}
	if err := delta.Validate(func(t string) bool { return srv.known[t] }); err != nil {
		srv.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	deadline := s.deadline
	if p := r.URL.Query().Get("deadline_ms"); p != "" {
		ms, err := strconv.ParseInt(p, 10, 64)
		if err != nil || ms < 0 {
			srv.httpError(w, http.StatusBadRequest, "deadline_ms %q: want a non-negative integer", p)
			return
		}
		deadline = time.Duration(ms) * time.Millisecond
	}
	j := &applyJob{
		delta:     delta,
		deltaText: tables.FormatDelta(delta),
		deadline:  deadline,
		enq:       enq,
		reply:     make(chan applyResult, 1),
	}
	s.jobs <- j
	res := <-j.reply
	switch {
	case res.reject != nil:
		srv.httpError(w, http.StatusBadRequest, "%v", res.reject)
		return
	case res.err != nil:
		srv.httpError(w, http.StatusInternalServerError, "%v", res.err)
		return
	}
	w.Header().Set("X-Aquila-Holds", strconv.FormatBool(res.rep.Holds))
	w.Header().Set("X-Aquila-Budget-Exhausted", strconv.FormatBool(res.budget))
	w.Header().Set("X-Aquila-Deadline-Exceeded", strconv.FormatBool(res.deadlineHit))
	srv.writeReport(w, http.StatusOK, res.rep)
}

func (srv *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	srv.mu.Lock()
	s := srv.sessions[id]
	srv.mu.Unlock()
	if s == nil {
		srv.httpError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	s.mu.Lock()
	info := map[string]any{
		"id":         s.id,
		"deltas":     s.deltas,
		"holds":      s.holds,
		"assertions": s.sess.Baseline().Stats.Assertions,
		"budget":     s.budget,
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

func (srv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	srv.mu.Lock()
	ids := make([]string, 0, len(srv.sessions))
	for id := range srv.sessions {
		ids = append(ids, id)
	}
	srv.mu.Unlock()
	sort.Strings(ids)
	writeJSON(w, http.StatusOK, map[string]any{"sessions": ids, "count": len(ids)})
}

func (srv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	srv.mu.Lock()
	s := srv.sessions[id]
	delete(srv.sessions, id)
	n := len(srv.sessions)
	srv.mu.Unlock()
	if s == nil {
		srv.httpError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	s.shutdown()
	if srv.cfg.JournalDir != "" {
		if err := os.Remove(srv.journalPath(id)); err != nil {
			srv.httpError(w, http.StatusInternalServerError, "removing journal: %v", err)
			return
		}
	}
	srv.reg.Gauge(obs.GaugeServeSessions).Set(int64(n))
	w.WriteHeader(http.StatusNoContent)
}

func (srv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	srv.mu.Lock()
	n, draining := len(srv.sessions), srv.draining
	srv.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "sessions": n})
}

func (srv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := srv.reg.WriteOpenMetrics(&buf); err != nil {
		srv.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// ---- helpers ----

// readBody reads a size-bounded request body; on failure it has already
// written the error response (413 for an oversized body).
func (srv *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body := http.MaxBytesReader(w, r.Body, srv.cfg.MaxBody)
	data, err := io.ReadAll(body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			srv.httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", srv.cfg.MaxBody)
		} else {
			srv.httpError(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	return data, true
}

// writeReport writes a report's canonical JSON as the EXACT response
// body — the byte-identity contract the differential tests compare.
func (srv *Server) writeReport(w http.ResponseWriter, code int, rep *verify.Report) {
	data, err := rep.CanonicalJSON()
	if err != nil {
		srv.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
}

func (srv *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	if code >= 400 && code < 500 {
		srv.reg.Counter(obs.CtrServeRejected).Add(1)
	}
	writeJSON(w, code, map[string]any{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(`{"error":"encoding response"}`)
		code = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
}
