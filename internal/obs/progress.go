package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// ProgressSample is one solver heartbeat: a snapshot of a check in
// flight, published every ring.Every() conflicts by the SAT core (via
// the verification driver's adapter) and once more with Done set when
// the check's verdict lands.
type ProgressSample struct {
	// Seq is the sample's global publish index (0-based).
	Seq int64
	// Label names the check (assertion label, or "all-assertions" in
	// find-first mode). Worker is the publishing worker's trace tid.
	Label  string
	Worker int
	// WhenUS is microseconds since the ring was created.
	WhenUS int64
	// Solver trajectory at sample time. Conflicts etc. are cumulative
	// for the publishing solver instance, not the whole run.
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	TrailDepth   int
	LearntDB     int
	ArenaBytes   int64
	// Done marks the check's final sample (published with the verdict's
	// per-check stats). The watchdog treats a Done tail as idle.
	Done bool
}

// ProgressRing is a lock-free single-producer-per-sample, multi-reader
// ring of the most recent heartbeat samples. Writers claim a slot index
// with one atomic add and store an immutable *ProgressSample; readers
// load pointers and never block writers. A nil ring ignores publishes,
// so the solver-side hook stays a nil check when progress is off.
type ProgressRing struct {
	every int64
	start time.Time
	seq   atomic.Int64
	slots []atomic.Pointer[ProgressSample]
}

// NewProgressRing returns a ring holding the last cap samples, with a
// heartbeat period of every conflicts (defaults: cap 256, every 4096).
func NewProgressRing(cap int, every int64) *ProgressRing {
	if cap <= 0 {
		cap = 256
	}
	if every <= 0 {
		every = 4096
	}
	return &ProgressRing{
		every: every,
		start: time.Now(),
		slots: make([]atomic.Pointer[ProgressSample], cap),
	}
}

// Every returns the heartbeat period in conflicts (0 on nil, meaning
// disabled).
func (r *ProgressRing) Every() int64 {
	if r == nil {
		return 0
	}
	return r.every
}

// Publish stores a sample, stamping Seq and WhenUS. Safe on nil.
func (r *ProgressRing) Publish(s ProgressSample) {
	if r == nil {
		return
	}
	s.WhenUS = time.Since(r.start).Microseconds()
	n := r.seq.Add(1) - 1
	s.Seq = n
	r.slots[int(n%int64(len(r.slots)))].Store(&s)
}

// Seq returns the number of samples published so far (0 on nil).
func (r *ProgressRing) Seq() int64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Latest returns the most recent sample, if any. Safe on nil.
func (r *ProgressRing) Latest() (ProgressSample, bool) {
	if r == nil {
		return ProgressSample{}, false
	}
	n := r.seq.Load()
	if n == 0 {
		return ProgressSample{}, false
	}
	p := r.slots[int((n-1)%int64(len(r.slots)))].Load()
	if p == nil {
		// The claiming writer has not stored yet; fall back to any
		// published neighbour rather than blocking.
		for i := n - 2; i >= 0 && i > n-2-int64(len(r.slots)); i-- {
			if p = r.slots[int(i%int64(len(r.slots)))].Load(); p != nil {
				break
			}
		}
		if p == nil {
			return ProgressSample{}, false
		}
	}
	return *p, true
}

// Snapshot returns the retained samples in publish order. Safe on nil.
func (r *ProgressRing) Snapshot() []ProgressSample {
	if r == nil {
		return nil
	}
	n := r.seq.Load()
	lo := n - int64(len(r.slots))
	if lo < 0 {
		lo = 0
	}
	out := make([]ProgressSample, 0, n-lo)
	for i := lo; i < n; i++ {
		if p := r.slots[int(i%int64(len(r.slots)))].Load(); p != nil && p.Seq >= lo {
			out = append(out, *p)
		}
	}
	return out
}

// statusLine renders a heartbeat for the -progress stderr line.
func statusLine(cur ProgressSample, prev ProgressSample, havePrev bool) string {
	rate := ""
	if havePrev && cur.Label == prev.Label && cur.WhenUS > prev.WhenUS &&
		cur.Conflicts > prev.Conflicts {
		cps := float64(cur.Conflicts-prev.Conflicts) /
			(float64(cur.WhenUS-prev.WhenUS) / 1e6)
		rate = fmt.Sprintf(" (%.0f/s)", cps)
	}
	state := "solving"
	if cur.Done {
		state = "done"
	}
	return fmt.Sprintf(
		"aquila: %s %s [w%d] conflicts=%d%s restarts=%d trail=%d learnt=%d arena=%dKB",
		state, cur.Label, cur.Worker, cur.Conflicts, rate,
		cur.Restarts, cur.TrailDepth, cur.LearntDB, cur.ArenaBytes/1024)
}

// StartStatusLine spawns a goroutine printing one status line to w per
// interval whenever new heartbeats arrived, and returns its stop
// function. Used by the CLIs' -progress flag.
func StartStatusLine(w io.Writer, ring *ProgressRing, interval time.Duration) (stop func()) {
	if w == nil || ring == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var prev ProgressSample
		havePrev := false
		lastSeq := int64(0)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if n := ring.Seq(); n > lastSeq {
					lastSeq = n
					if cur, ok := ring.Latest(); ok {
						fmt.Fprintln(w, statusLine(cur, prev, havePrev))
						prev, havePrev = cur, true
					}
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
