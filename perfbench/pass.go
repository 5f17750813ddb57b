package main

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	overbook "repro"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/slice"
)

// pass is one measured run of a workload against one daemon.
type pass struct {
	w      *workload
	setups []time.Duration
	// The open loop ran over [openStart, openEnd); results are its
	// requests.
	openStart, openEnd time.Duration
	results            []result
	// The closed loop ran over [closedStart, closedEnd); closed are its
	// requests and closedCPU the CPU time at its segment boundaries.
	closedStart, closedEnd time.Duration
	closed                 []result
	closedCPU              []time.Duration
	// lags and closedLags are the event lags of the open loop's submits
	// (from the due time) and the closed loop's (from the send).
	lags, closedLags []sample
	// cpu is the process CPU time at the open loop's segment boundaries;
	// the other counters are sampled at its edges.
	cpu             []time.Duration
	mem0, mem1      runtime.MemStats
	gain0, gain1    core.GainReport
	seq0, seq1      int64
	persist0        core.PersistStatus
	persist1        core.PersistStatus
	live            int
	epochs          []interval
	frames, resyncs int
	replays         int
	rejects         map[slice.RejectCode]int
	recoverTime     time.Duration
	// rss is the peak resident set (MB) sampled during the open loop.
	rss   float64
	spans []span
}

// passOpts selects what one pass does.
type passOpts struct {
	setups int     // set-ups made; the last one is measured
	closed bool    // run the closed loop after the open loop
	tr     *tracer // trace the measured daemon
}

// runPass sets the daemon up, drives the open loop (and the closed loop),
// then runs every correctness check. Any failed check fails the pass.
func runPass(w *workload, seed int64, seconds time.Duration, opts passOpts, workDir string, base time.Time) (*pass, error) {
	p := &pass{w: w, rejects: make(map[slice.RejectCode]int)}
	// The open loop takes three fifths of the run, the closed loop (when
	// run) the rest; a traced pass measures the same open loop.
	openDur := seconds * 3 / 5
	var t *target
	defer func() {
		if t != nil {
			t.close()
		}
	}()
	var dir string
	for i := 0; i < opts.setups; i++ {
		dir = filepath.Join(workDir, fmt.Sprintf("wal-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		tr := opts.tr
		if i < opts.setups-1 {
			tr = nil
		}
		runtime.GC()
		s := time.Now()
		var err error
		t, err = setup(w, seed, dir, base, tr)
		p.setups = append(p.setups, time.Since(s))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i < opts.setups-1 {
			if err := t.close(); err != nil {
				return nil, err
			}
			t = nil
		}
	}

	o := t.orch
	p.gain0, p.seq0, p.persist0 = o.Gain(), o.Events().LastSeq(), o.PersistStatus()
	runtime.ReadMemStats(&p.mem0)
	p.openStart = time.Since(base) + 20*time.Millisecond
	r := newRunner(w, t, seed, base, p.openStart)
	p.openEnd = p.openStart + openDur
	stopRSS := sampleRSS(&p.rss)
	p.cpu = r.openLoop(p.openStart, p.openEnd)
	stopRSS()
	runtime.ReadMemStats(&p.mem1)
	p.gain1, p.seq1, p.persist1 = o.Gain(), o.Events().LastSeq(), o.PersistStatus()
	for _, s := range o.List() {
		if isLive(s.State) {
			p.live++
		}
	}
	p.results = r.results
	p.epochs = t.epochs.within(p.openStart, p.openEnd)
	if opts.closed {
		p.closedStart = time.Since(base)
		p.closedEnd = p.closedStart + seconds - openDur
		p.closedCPU = r.closedLoop(p.closedStart, p.closedEnd)
		p.closed = r.closed
	}

	wt := t.watch
	err := p.check(r, t, dir)
	t = nil // check closed it
	if err != nil {
		return nil, err
	}
	for _, s := range r.submits {
		if s.rejected {
			p.rejects[s.rejectCode]++
		}
	}
	p.replays = r.replays
	lag := func(rs []result, from func(result) time.Duration) []sample {
		var out []sample
		for _, res := range rs {
			if res.kind != opSubmit {
				continue
			}
			typ := core.EventAdmitted
			if res.rejected {
				typ = core.EventRejected
			}
			if f, ok := wt.lookup(frameKey{res.id, typ}); ok {
				out = append(out, sample{from(res), ms(f.first - from(res))})
			}
		}
		return out
	}
	p.lags = lag(p.results, func(r result) time.Duration { return r.due })
	p.closedLags = lag(p.closed, func(r result) time.Duration { return r.sent })
	if opts.tr != nil {
		p.spans = opts.tr.spans()
	}
	return p, nil
}

var errChecks = errors.New("correctness checks failed")

// check runs the correctness checks once the load has stopped. The daemon
// is closed on return (durable daemons are also recovered and checked).
func (p *pass) check(r *runner, t *target, dir string) error {
	var errs []string
	bad := func(format string, a ...any) { errs = append(errs, fmt.Sprintf(format, a...)) }
	o := t.orch

	// Every acked-live slice reads as live.
	for _, id := range r.liveIDs() {
		if st, _ := r.getState(id); !isLive(st) {
			bad("acked-live slice %s reads as %q", id, st)
		}
	}
	if !t.w.durable {
		// The churn drains with the epoch stopped, so only deletes move
		// the capacity ledger: each must release the same positive load
		// (every submit carries the same contract), and without demand
		// samples the epoch never re-provisions, so the ledger must be
		// back where set-up left it.
		t.epochs.stop()
		t.epochs = nil
		var released []float64
		for len(r.pending) > 0 {
			l := o.LedgerLoad()
			r.exec(heap.Pop(&r.pending).(op), phaseDrain)
			released = append(released, l-o.LedgerLoad())
		}
		for _, d := range released {
			if d <= 0 || math.Abs(d-released[0]) > 1e-9*released[0] {
				bad("drained deletes released %v of the ledger", released)
				break
			}
		}
		if l := o.LedgerLoad(); !t.w.demand && math.Abs(l-t.ledger0) > 1e-9*math.Max(1, t.ledger0) {
			bad("ledger load %.9g after the churn drained, %.9g after set-up", l, t.ledger0)
		}
	}
	// Every expected lifecycle frame arrives exactly once, unless the
	// stream resynced.
	var want []frameKey
	watched := func(ty core.EventType) bool { return slices.Contains(t.w.watch, ty) }
	for _, s := range r.submits {
		ty := core.EventAdmitted
		if s.rejected {
			ty = core.EventRejected
		}
		if watched(ty) {
			want = append(want, frameKey{s.id, ty})
		}
	}
	if watched(core.EventDeleted) {
		for _, id := range r.deleted {
			want = append(want, frameKey{id, core.EventDeleted})
		}
	}
	t.watch.waitFor(want, 5*time.Second)
	frames, resyncs, werr := t.watch.counts()
	p.frames, p.resyncs = frames, resyncs
	if werr != nil {
		bad("%v", werr)
	}
	missing, dup := 0, 0
	for _, k := range want {
		f, ok := t.watch.lookup(k)
		switch {
		case !ok:
			missing++
		case f.count > 1:
			dup++
		}
	}
	if dup > 0 {
		bad("%d lifecycle frames arrived more than once", dup)
	}
	if missing > 0 && resyncs == 0 {
		bad("%d of %d lifecycle frames never arrived and no resync was sent", missing, len(want))
	}

	// Finished slices read as terminated or rejected. The daemon keeps the
	// HistoryLimit finished slices submitted last; older ones may read as
	// 404, the latest ones must still be readable.
	deleted := make(map[slice.ID]bool, len(r.deleted))
	for _, id := range r.deleted {
		deleted[id] = true
	}
	recent := min(t.w.cfg.HistoryLimit/2, 100)
	for i := len(r.submits) - 1; i >= 0; i-- {
		s := r.submits[i]
		want := "rejected"
		switch {
		case deleted[s.id]:
			want = "terminated"
		case !s.rejected:
			continue
		}
		st, code := r.getState(s.id)
		switch {
		case code == http.StatusOK && st == want:
		case code == http.StatusNotFound && recent <= 0:
		default:
			bad("finished slice %s reads as %d %q, want %s", s.id, code, st, want)
		}
		recent--
	}

	// The gain report counts every submit exactly once.
	g := o.Gain()
	if d := g.Admitted + g.Rejected - p.gain0.Admitted - p.gain0.Rejected; d != len(r.submits) {
		bad("gain report counted %d decisions for %d submits", d, len(r.submits))
	}
	if len(r.failures) > 0 {
		errs = append(errs, r.failures...)
	}
	r.hc.CloseIdleConnections()
	live := r.liveIDs()
	if err := t.close(); err != nil {
		bad("close: %v", err)
	}
	if t.w.durable && len(errs) == 0 {
		if err := p.recover(t.w, dir, live, r.deleted); err != nil {
			bad("%v", err)
		}
	}
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "check:", e)
		}
		return errChecks
	}
	return nil
}

// recover reopens the data dir with NewLiveDurable, timing it, and checks
// that every acked-live slice is present and every acked delete terminated.
func (p *pass) recover(w *workload, dir string, live, deleted []slice.ID) error {
	cfg := w.cfg
	s := time.Now()
	sys, err := overbook.NewLiveDurable(overbook.Options{Orchestrator: &cfg, Testbed: w.tb}, dir)
	p.recoverTime = time.Since(s)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer func() {
		sys.Shutdown()
		if c, ok := sys.Clock.(*sim.RealtimeClock); ok {
			c.CancelAll()
		}
	}()
	for _, id := range live {
		sl, ok := sys.Orchestrator.Get(id)
		if !ok || !isLive(sl.State().String()) {
			return fmt.Errorf("recover: acked-live slice %s missing or not live", id)
		}
	}
	for _, id := range deleted {
		if sl, ok := sys.Orchestrator.Get(id); ok && sl.State() != slice.StateTerminated {
			return fmt.Errorf("recover: acked delete of %s recovered as %s", id, sl.State())
		}
	}
	return nil
}

// getState reads a slice over the API, returning its state and the status.
func (r *runner) getState(id slice.ID) (string, int) {
	status, b, _, _, err := r.request(http.MethodGet, "/api/v2/slices/"+string(id), nil, "")
	if err != nil || status != http.StatusOK {
		return "", status
	}
	var snap struct {
		State string `json:"state"`
	}
	if json.Unmarshal(b, &snap) != nil {
		return "", status
	}
	return snap.State, status
}

// sampleRSS records the peak of the process's resident set into *peak
// every 50 ms until the returned stop function is called. Set-up builds the
// daemon several times and the closed loop allocates at full speed, so the
// process high-water mark would report garbage-collector timing; the open
// loop is the steady serving state.
func sampleRSS(peak *float64) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	page := float64(os.Getpagesize())
	read := func() {
		b, err := os.ReadFile("/proc/self/statm")
		if err != nil {
			return
		}
		var size, res float64
		if _, err := fmt.Sscan(string(b), &size, &res); err == nil && res*page/1e6 > *peak {
			*peak = res * page / 1e6
		}
	}
	go func() {
		defer close(done)
		tk := time.NewTicker(50 * time.Millisecond)
		defer tk.Stop()
		for {
			read()
			select {
			case <-quit:
				return
			case <-tk.C:
			}
		}
	}()
	return func() { close(quit); <-done; read() }
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
