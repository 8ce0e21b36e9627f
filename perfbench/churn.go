package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"aquila"
	"aquila/internal/progs"
	"aquila/internal/serve"
	"aquila/internal/tables"
	"aquila/internal/verify"
)

const (
	churnTable   = "GatewayIngress.ecmp_nhop_tbl"
	churnEntries = 256
	// churnKeys is the key space of the table: ecmp_offset is bit<16>.
	churnKeys = 1 << 16
	// churnWarmup deltas run after each session is created, before the
	// episode's measured deltas.
	churnWarmup = 16
	// churnEpisode is how many measured deltas one session takes. The
	// daemon never compacts a session, so under fresh values its memory
	// and per-delta cost grow with every delta; restarting the session
	// after a fixed number of deltas, and measuring whole episodes only,
	// keeps the figures from depending on how many deltas fit in a run.
	churnEpisode = 128
)

// churnModel generates the seeded delta stream and tracks the snapshot it
// leads to. Every value is fresh: a replace gives a random entry a new
// random action, an add installs a key that is not installed, a remove
// drops a random entry. Adds and removes alternate, so the table holds
// churnEntries or churnEntries+1 entries and an added entry comes last in
// match order.
type churnModel struct {
	rng       *rand.Rand
	keys      []int    // installed keys in match order
	actions   []string // the action of each installed entry
	installed map[int]bool
}

func nhopAction(rng *rand.Rand) string {
	if rng.Intn(16) == 0 {
		return "a_drop"
	}
	return fmt.Sprintf("set_nhop(%d)", 1+rng.Intn(511))
}

func newChurnModel(seed int64) *churnModel {
	m := &churnModel{rng: rand.New(rand.NewSource(seed)), installed: map[int]bool{}}
	for k := 0; k < churnEntries; k++ {
		m.keys = append(m.keys, k)
		m.actions = append(m.actions, nhopAction(m.rng))
		m.installed[k] = true
	}
	return m
}

// snapshot renders the snapshot text of the current state.
func (m *churnModel) snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "table %s {\n", churnTable)
	for i, k := range m.keys {
		fmt.Fprintf(&b, "  %d -> %s\n", k, m.actions[i])
	}
	b.WriteString("}\n")
	return b.String()
}

func (m *churnModel) replace(b *strings.Builder) {
	i := m.rng.Intn(len(m.keys))
	a := nhopAction(m.rng)
	for a == m.actions[i] {
		a = nhopAction(m.rng)
	}
	m.actions[i] = a
	fmt.Fprintf(b, "replace %s %d %d -> %s\n", churnTable, i, m.keys[i], a)
}

func (m *churnModel) addOrRemove(b *strings.Builder) {
	if len(m.keys) == churnEntries {
		k := m.rng.Intn(churnKeys)
		for m.installed[k] {
			k = m.rng.Intn(churnKeys)
		}
		a := nhopAction(m.rng)
		m.keys, m.actions, m.installed[k] = append(m.keys, k), append(m.actions, a), true
		fmt.Fprintf(b, "add %s %d -> %s\n", churnTable, k, a)
		return
	}
	i := m.rng.Intn(len(m.keys))
	delete(m.installed, m.keys[i])
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	m.actions = append(m.actions[:i], m.actions[i+1:]...)
	fmt.Fprintf(b, "remove %s %d\n", churnTable, i)
}

// next returns the next delta's text: mostly a single-entry replace,
// sometimes an add or a remove, occasionally a batch of two replaces and
// an add or a remove.
func (m *churnModel) next() string {
	var b strings.Builder
	switch r := m.rng.Intn(100); {
	case r < 85:
		m.replace(&b)
	case r < 95:
		m.addOrRemove(&b)
	default:
		m.replace(&b)
		m.replace(&b)
		m.addOrRemove(&b)
	}
	return b.String()
}

// churnSpec is the DC Gateway's inferred invalid-header spec without the
// items its seeded bugs violate, so it holds under every snapshot.
func churnSpec() (string, error) {
	ka, err := loadKnownAnswers()
	if err != nil {
		return "", err
	}
	bm := progs.DCGatewayBench()
	prog, err := aquila.ParseProgram(bm.Name, bm.Source)
	if err != nil {
		return "", err
	}
	full, _, err := aquila.InferUndefinedBehaviorSpec(prog, bm.Calls)
	if err != nil {
		return "", err
	}
	drop := map[string]bool{}
	for _, it := range ka.Corpus[bm.Name] {
		drop[it] = true
	}
	var out []string
	for _, ln := range strings.Split(full, "\n") {
		if !drop[strings.TrimSpace(ln)] {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n"), nil
}

// churnServer is an in-process aquila-serve daemon on a loopback port
// and the one-connection client that drives it.
type churnServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
}

// parseChurn parses the churn program and spec texts.
func parseChurn(p4src, spec string) (*aquila.Program, *aquila.Spec, error) {
	prog, err := aquila.ParseProgram("DC Gateway", p4src)
	if err != nil {
		return nil, nil, err
	}
	sp, err := aquila.ParseSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	return prog, sp, nil
}

func startChurnServer(p4src, spec string) (*churnServer, error) {
	prog, sp, err := parseChurn(p4src, spec)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Prog: prog, Spec: sp, ProgramRef: "perfbench:churn"})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	cs := &churnServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		base: "http://" + ln.Addr().String(),
	}
	go func() { cs.served <- cs.hs.Serve(ln) }()
	return cs, nil
}

// close stops the listener, waits for the serving goroutine, and drains
// the daemon's sessions.
func (cs *churnServer) close() error {
	cs.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := cs.hs.Shutdown(ctx)
	if serr := <-cs.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	cs.srv.Close()
	return err
}

// reply is one HTTP response.
type reply struct {
	code  int
	holds string
	body  []byte
}

func (cs *churnServer) do(method, path, body string) (reply, error) {
	req, err := http.NewRequest(method, cs.base+path, strings.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	resp, err := cs.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{resp.StatusCode, resp.Header.Get("X-Aquila-Holds"), data}, nil
}

// postDelta sends one delta and checks the status and the verdict.
func (cs *churnServer) postDelta(text string) (reply, error) {
	r, err := cs.do("POST", "/sessions/bench/deltas", text)
	if err == nil && (r.code != http.StatusOK || r.holds != "true") {
		err = fmt.Errorf("delta %q: status %d, holds %q: %s", strings.TrimSpace(text), r.code, r.holds, r.body)
	}
	return r, err
}

// histSums reads the daemon's serve instruments from GET /metrics:
// histogram sums (in microseconds) and counts by sample name.
func (cs *churnServer) histSums() (map[string]float64, error) {
	r, err := cs.do("GET", "/metrics", "")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, "aquila_serve_") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// refEnv set to 1 makes this program a reference checker (see
// refChecker) instead of a benchmark run.
const refEnv = "PERFBENCH_REFERENCE"

// refChecker verifies churn snapshots afresh in a child process, this
// program started with refEnv=1, so the reference verifications neither
// count in the benchmark process's CPU time and peak RSS nor leave
// garbage on the daemon's heap. Requests and replies are JSON lines over
// the child's standard input and output, one at a time.
type refChecker struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
}

type refRequest struct {
	Snapshot string `json:"snapshot"`
}

type refReply struct {
	Report []byte `json:"report"`
	Err    string `json:"error,omitempty"`
}

func startRefChecker() (*refChecker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), refEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("reference checker: %w", err)
	}
	return &refChecker{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), dec: json.NewDecoder(stdout)}, nil
}

// report returns the canonical report of a fresh aquila.Verify of the
// churn program and spec under a snapshot.
func (rc *refChecker) report(snapshot string) ([]byte, error) {
	if err := rc.enc.Encode(refRequest{snapshot}); err != nil {
		return nil, fmt.Errorf("reference checker: %w", err)
	}
	var r refReply
	if err := rc.dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("reference checker: %w", err)
	}
	if r.Err != "" {
		return nil, fmt.Errorf("reference checker: %s", r.Err)
	}
	return r.Report, nil
}

// close ends the child and waits for it.
func (rc *refChecker) close() error {
	rc.stdin.Close()
	return rc.cmd.Wait()
}

// serveReference is the child's side of refChecker: it answers each
// request read from in until in ends.
func serveReference(in io.Reader, out io.Writer) error {
	spec, err := churnSpec()
	if err != nil {
		return err
	}
	prog, sp, err := parseChurn(progs.DCGateway, spec)
	if err != nil {
		return err
	}
	dec, enc := json.NewDecoder(in), json.NewEncoder(out)
	for {
		var req refRequest
		if err := dec.Decode(&req); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		var r refReply
		snap, err := aquila.ParseSnapshot(req.Snapshot)
		var rep *aquila.Report
		if err == nil {
			rep, err = aquila.Verify(prog, snap, sp, opts)
		}
		if err == nil {
			r.Report, err = rep.CanonicalJSON()
		}
		if err != nil {
			r.Err = err.Error()
		}
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
}

// runReferenceChild runs serveReference on the standard streams and
// returns the exit code.
func runReferenceChild() int {
	if err := serveReference(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench reference checker:", err)
		return 2
	}
	return 0
}

// churnRun is one set-up of the churn workload: the daemon, the
// reference checker and the episode under way.
type churnRun struct {
	seed   int64
	p4     string
	spec   string
	server *churnServer
	ref    *refChecker
	// The stream runs in episodes of churnEpisode deltas, each over a
	// fresh session with a stream of its own.
	episodes int         // episodes started
	epSeed   int64       // seed of the current episode's stream
	model    *churnModel // the current episode's stream
	pos      int         // deltas attempted in the current episode
	// pending holds the replies not yet checked against a fresh
	// verification.
	pending []pendingCheck
	// seen holds a hash of every snapshot the stream reached; repeats
	// counts the checked deltas that led to one of them again.
	seen             map[uint64]bool
	checked, repeats int
}

// pendingCheck is one daemon reply and the snapshot it answers for.
type pendingCheck struct {
	n        int // the delta's number in the run, from 1
	snapshot string
	body     []byte
}

// setupChurn generates the inputs, starts the daemon and starts the
// first episode.
func setupChurn(seed int64, ref *refChecker) (*churnRun, error) {
	spec, err := churnSpec()
	if err != nil {
		return nil, err
	}
	cr := &churnRun{seed: seed, p4: progs.DCGateway, spec: spec, ref: ref, seen: map[uint64]bool{}}
	if cr.server, err = startChurnServer(cr.p4, spec); err != nil {
		return nil, err
	}
	if err := cr.startEpisode(); err != nil {
		cr.server.close()
		return nil, err
	}
	return cr, nil
}

// startEpisode replaces the daemon's session with a fresh one over the
// next episode's initial snapshot (its baseline verification) and sends
// the checked warm-up deltas.
func (cr *churnRun) startEpisode() error {
	if cr.episodes > 0 {
		r, err := cr.server.do("DELETE", "/sessions/bench", "")
		if err == nil && r.code != http.StatusNoContent {
			err = fmt.Errorf("delete session: status %d: %s", r.code, r.body)
		}
		if err != nil {
			return err
		}
	}
	cr.epSeed = cr.seed ^ int64(cr.episodes)<<32
	cr.model = newChurnModel(cr.epSeed)
	cr.episodes++
	cr.pos = 0
	create, err := json.Marshal(map[string]string{"id": "bench", "entries": cr.model.snapshot()})
	if err != nil {
		return err
	}
	r, err := cr.server.do("POST", "/sessions", string(create))
	if err == nil && (r.code != http.StatusCreated || r.holds != "true") {
		err = fmt.Errorf("create session: status %d, holds %q: %s", r.code, r.holds, r.body)
	}
	if err == nil {
		err = cr.check(r.body)
	}
	for i := 0; i < churnWarmup && err == nil; i++ {
		if r, err = cr.server.postDelta(cr.model.next()); err == nil {
			err = cr.check(r.body)
		}
		if err != nil {
			err = fmt.Errorf("warm-up: %w", err)
		}
	}
	return err
}

// record keeps a daemon reply for the reference check and counts
// whether the stream reached its snapshot before.
func (cr *churnRun) record(body []byte) {
	text := cr.model.snapshot()
	h := fnv.New64a()
	h.Write([]byte(text))
	if sum := h.Sum64(); cr.seen[sum] {
		cr.repeats++
	} else {
		cr.seen[sum] = true
	}
	cr.checked++
	cr.pending = append(cr.pending, pendingCheck{cr.checked, text, body})
}

// checkPending compares every kept reply with the canonical report of a
// fresh verification of its snapshot, and returns one error per reply
// that differs or could not be checked.
func (cr *churnRun) checkPending() []error {
	var errs []error
	for _, p := range cr.pending {
		want, err := cr.ref.report(p.snapshot)
		if err == nil && !bytes.Equal(p.body, want) {
			err = fmt.Errorf("delta %d: daemon report differs from a fresh verification of its snapshot", p.n)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	cr.pending = nil
	return errs
}

// check records a reply and checks it at once.
func (cr *churnRun) check(body []byte) error {
	cr.record(body)
	if errs := cr.checkPending(); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// endEpisode checks the replies of the episode's measured deltas,
// counting each that fails, once the episode is over.
func (cr *churnRun) endEpisode(oc *outcome) {
	for _, err := range cr.checkPending() {
		oc.fail(err)
	}
}

// noteRepeats reports the share of checked deltas that returned to a
// snapshot the stream had already reached.
func (cr *churnRun) noteRepeats(oc *outcome) {
	oc.note("churn: %d episodes; %d of %d checked deltas (%.2f%%, warm-ups included) reached an already-seen snapshot",
		cr.episodes, cr.repeats, cr.checked, 100*float64(cr.repeats)/float64(max(cr.checked, 1)))
}

// runChurn drives warm aquila-serve sessions with the seeded delta
// stream over one loopback connection.
func runChurn(cfg config) (*outcome, error) {
	ref, err := startRefChecker()
	if err != nil {
		return nil, err
	}
	oc, err := churnWith(cfg, ref)
	if rerr := ref.close(); err == nil && rerr != nil {
		err = fmt.Errorf("reference checker: %w", rerr)
	}
	return oc, err
}

// churnWith sets the workload up and runs it, checking every reply with
// ref.
func churnWith(cfg config, ref *refChecker) (*outcome, error) {
	oc := &outcome{}
	reps := setupReps
	if cfg.Traced {
		reps = 1
	}
	var cr *churnRun
	for r := 0; r < reps; r++ {
		if cr != nil {
			if err := cr.server.close(); err != nil {
				return nil, err
			}
		}
		var err error
		wall, cpu := measure(func() { cr, err = setupChurn(cfg.Seed, ref) })
		if err != nil {
			return nil, err
		}
		oc.setups = append(oc.setups, cpu)
		oc.setupWall = append(oc.setupWall, wall)
	}
	var err error
	if cfg.Traced {
		err = churnTraced(cfg, cr, oc)
	} else {
		churnLoop(cfg, cr, oc)
	}
	if cerr := cr.server.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	cr.noteRepeats(oc)
	return oc, nil
}

// churnLoop is the measured closed loop, run in whole episodes: the
// deltas of an episode go back to back, each round trip timed, and
// after the episode every reply is checked against a fresh verification.
// A failed episode start counts as a failed operation and ends the loop.
func churnLoop(cfg config, cr *churnRun, oc *outcome) {
	start := time.Now()
	for cr.pos < churnEpisode || time.Since(start) < cfg.Seconds {
		oc.attempted++
		if cr.pos == churnEpisode {
			cr.endEpisode(oc)
			if err := cr.startEpisode(); err != nil {
				oc.fail(fmt.Errorf("episode %d: %w", cr.episodes, err))
				break
			}
		}
		cr.pos++
		text := cr.model.next()
		var r reply
		var err error
		wall, cpu := measure(func() { r, err = cr.server.postDelta(text) })
		if err != nil {
			oc.fail(err)
			continue
		}
		cr.record(r.body)
		oc.wall = append(oc.wall, wall)
		oc.cpu = append(oc.cpu, cpu)
		oc.rows = append(oc.rows, "churn")
	}
	oc.peakRSS = peakRSSMB()
	cr.endEpisode(oc)
}

// newMirror starts a verify.Session over an episode's initial snapshot
// and replays the episode's warm-up deltas, so it holds what the
// daemon's session holds.
func newMirror(prog *aquila.Program, spec *aquila.Spec, seed int64) (*verify.Session, error) {
	m := newChurnModel(seed)
	snap, err := aquila.ParseSnapshot(m.snapshot())
	if err != nil {
		return nil, err
	}
	s, err := verify.NewSession(prog, snap, spec, verify.Options{Parallel: 1})
	if err != nil {
		return nil, err
	}
	for i := 0; i < churnWarmup; i++ {
		d, err := tables.ParseDelta(m.next())
		if err == nil {
			_, err = s.Apply(d)
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("mirror warm-up: %w", err)
		}
	}
	return s, nil
}

// histWindow sums the daemon's serve histograms over the windows it was
// open for: the measured deltas of each episode.
type histWindow struct {
	h0, sum map[string]float64
}

func (w *histWindow) open(cs *churnServer) (err error) {
	w.h0, err = cs.histSums()
	return err
}

func (w *histWindow) close(cs *churnServer) error {
	h1, err := cs.histSums()
	if err != nil {
		return err
	}
	if w.sum == nil {
		w.sum = map[string]float64{}
	}
	for k, v := range h1 {
		w.sum[k] += v - w.h0[k]
	}
	w.h0 = nil
	return nil
}

// meanMS is a histogram's mean over the windows, in milliseconds.
func (w *histWindow) meanMS(h string) float64 {
	n := w.sum[h+"_count"]
	if n <= 0 {
		return 0
	}
	return w.sum[h+"_sum"] / n / 1000
}

// churnTraced sends each delta to the daemon untraced, then applies it
// to a mirror verify.Session in this process with a span around the
// delta parse, the apply and the report rendering. The mirror's report
// must equal the daemon's byte for byte.
func churnTraced(cfg config, cr *churnRun, oc *outcome) error {
	oc.rec = newRecorder()
	acc := newLayerAcc()
	oc.layers = acc
	prog, spec, err := parseChurn(cr.p4, cr.spec)
	if err != nil {
		return err
	}
	mirror, err := newMirror(prog, spec, cr.epSeed)
	if err != nil {
		return err
	}
	defer func() { mirror.Close() }()
	var hist histWindow
	if err := hist.open(cr.server); err != nil {
		return err
	}
	var rtSum, tracedSum time.Duration
	var reuse, recheck int64
	start := time.Now()
	for cr.pos < churnEpisode || time.Since(start) < cfg.Seconds {
		oc.attempted++
		if cr.pos == churnEpisode {
			if err := hist.close(cr.server); err != nil {
				return err
			}
			cr.endEpisode(oc)
			if err := cr.startEpisode(); err != nil {
				oc.fail(fmt.Errorf("episode %d: %w", cr.episodes, err))
				break
			}
			mirror.Close()
			if mirror, err = newMirror(prog, spec, cr.epSeed); err != nil {
				return err
			}
			if err := hist.open(cr.server); err != nil {
				return err
			}
		}
		cr.pos++
		text := cr.model.next()
		var r reply
		var rt time.Duration
		acc.untraced(func() {
			t0 := time.Now()
			r, err = cr.server.postDelta(text)
			rt = time.Since(t0)
		})
		if err != nil {
			oc.fail(err)
			continue
		}
		cr.record(r.body)
		op := oc.rec.begin("op", acc.ops, -1, 0)
		sp := oc.rec.begin("tables.parse", acc.ops, op, 0)
		var d *tables.Delta
		d, err = tables.ParseDelta(text)
		oc.rec.end(sp)
		var rep *aquila.Report
		if err == nil {
			sp = oc.rec.begin("session.apply", acc.ops, op, 0)
			rep, err = mirror.Apply(d)
			oc.rec.end(sp)
		}
		var body []byte
		if err == nil {
			sp = oc.rec.begin("verify.render", acc.ops, op, 0)
			body, err = rep.CanonicalJSON()
			oc.rec.end(sp)
		}
		oc.rec.end(op)
		if err == nil && !bytes.Equal(body, r.body) {
			err = fmt.Errorf("delta %d: mirror session report differs from the daemon's", cr.checked)
		}
		if err != nil {
			oc.fail(err)
			continue
		}
		acc.ops++
		rtSum += rt
		tracedSum += oc.rec.wall(op)
		for _, o := range d.Ops {
			if o.Entry != nil {
				acc.add("tables.entries", 1)
			}
		}
		reuse += rep.Stats.DeltaReuse
		recheck += rep.Stats.DeltaRecheck
		acc.add("session.conflicts", float64(rep.Stats.Conflicts))
		acc.add("session.tseitin_clauses", float64(rep.Stats.TseitinClauses))
		acc.add("verify.report_bytes", float64(len(body)))
	}
	if hist.h0 != nil {
		if err := hist.close(cr.server); err != nil {
			return err
		}
	}
	cr.endEpisode(oc)
	acc.addSpans(oc.rec)
	acc.finish()
	if reuse+recheck > 0 {
		acc.set["session.reuse_frac"] = float64(reuse) / float64(reuse+recheck)
	}
	apply := hist.meanMS("aquila_serve_apply_wall_us")
	acc.set["serve.apply_ms"] = apply
	acc.set["serve.queue_wait_ms"] = hist.meanMS("aquila_serve_queue_wait_us")
	if acc.ops > 0 {
		acc.set["serve.overhead_ms"] = ms(rtSum)/float64(acc.ops) - apply
		acc.set["trace.overhead_ms"] = ms(tracedSum)/float64(acc.ops) - apply
		oc.note("round trip mean %.3f ms, daemon apply mean %.3f ms, traced mirror op mean %.3f ms over %d deltas",
			ms(rtSum)/float64(acc.ops), apply, ms(tracedSum)/float64(acc.ops), acc.ops)
	}
	return nil
}
