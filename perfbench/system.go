package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	overbook "repro"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/intent"
	"repro/internal/monitor"
	"repro/internal/restapi"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/wal"
)

// target is one running daemon: the orchestrator behind the same handler
// tree cmd/orchestrator serves, on a loopback listener, with the
// benchmark's epoch driver and event watcher attached.
type target struct {
	w       *workload
	orch    *core.Orchestrator
	base    string
	srv     *http.Server
	preload []slice.ID
	// ledger0 is LedgerLoad once set-up finished.
	ledger0 float64

	sys     *overbook.System // durable, untraced: owns the WAL
	walw    *wal.Writer      // durable, traced
	rtclock *sim.RealtimeClock
	dataDir string

	pacer  *pacer
	epochs *epochDriver
	watch  *watcher
}

// warp is how far set-up advances the simulator clock of an in-memory
// daemon so preloaded slices finish installing (~7.7 s) before the run.
const warp = 10 * time.Second

// setup builds the workload's daemon and waits until it is ready: the
// listener accepts, GET /healthz answers and the watcher is subscribed.
// tr, when set, installs the tracing decorators.
func setup(w *workload, seed int64, dataDir string, base time.Time, tr *tracer) (*target, error) {
	t := &target{w: w, dataDir: dataDir}
	var err error
	if w.durable {
		err = t.buildDurable(seed, tr)
	} else {
		err = t.buildInMemory(seed, tr)
	}
	if err != nil {
		t.close()
		return nil, err
	}
	if tr != nil {
		if err := checkCapabilities(t.orch.Testbed().Ctrl); err != nil {
			t.close()
			return nil, err
		}
	}
	api := restapi.NewServer(t.orch)
	api.AttachIntent(intent.NewManager(t.orch, sim.NewRealtimeClock(), intent.Config{}))
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", api)
	mux.Handle("/api/v2/", api)
	mux.Handle("/healthz", api)
	mux.Handle("/", dashboard.New(t.orch))
	var h http.Handler = mux
	if tr != nil {
		h = tr.handler(mux)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.base = "http://" + ln.Addr().String()
	t.srv = &http.Server{Handler: h}
	go t.srv.Serve(ln)

	if err := t.ready(); err != nil {
		t.close()
		return nil, err
	}
	t.epochs = startEpochs(t.orch, w.epoch, base)
	t.watch, err = startWatcher(t.base, t.orch.Events().LastSeq(), w.watch, base)
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// buildDurable opens the durable daemon on a fresh data dir. Untraced it
// is exactly overbook.NewLiveDurable; traced it repeats what core.Recover
// does (load, recover, create, attach) with the decorated domains and sink.
func (t *target) buildDurable(seed int64, tr *tracer) error {
	cfg := t.w.cfg
	if tr == nil {
		sys, err := overbook.NewLiveDurable(overbook.Options{Seed: seed, Orchestrator: &cfg, Testbed: t.w.tb}, t.dataDir)
		if err != nil {
			return err
		}
		t.sys, t.orch = sys, sys.Orchestrator
		t.rtclock, _ = sys.Clock.(*sim.RealtimeClock)
		return nil
	}
	tb, err := testbed.New(t.w.tb, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	tb.Ctrl.Wrap = tr.wrapDomain
	t.rtclock = sim.NewRealtimeClock()
	rec, err := wal.Load(t.dataDir)
	if err != nil {
		return err
	}
	o, _, err := core.RecoverFromWAL(cfg, tb, t.rtclock, monitor.NewStore(8192), rec)
	if err != nil {
		return err
	}
	w, err := wal.Create(t.dataDir, rec.LastSeq)
	if err != nil {
		return err
	}
	sink, err := tr.wrapSink(core.WALSink(w))
	if err != nil {
		w.Close()
		return err
	}
	o.AttachSink(sink, rec.LastSeq)
	t.orch, t.walw = o, w
	return nil
}

// buildInMemory builds the in-memory daemon on a simulator clock, preloads
// the registry, warps the clock so every preloaded slice is active, gives
// each one demand sample, runs one epoch (so GET /api/v2/epoch answers),
// and then paces the simulator with the wall clock.
func (t *target) buildInMemory(seed int64, tr *tracer) error {
	s := sim.NewSimulator(seed)
	tb, err := testbed.New(t.w.tb, s.Rand())
	if err != nil {
		return err
	}
	if tr != nil {
		tb.Ctrl.Wrap = tr.wrapDomain
	}
	t.orch = core.New(t.w.cfg, tb, s, monitor.NewStore(8192))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < t.w.preload; i++ {
		sl, err := t.orch.Submit(slice.Request{
			Tenant: fmt.Sprintf("pre-%d", i),
			SLA: slice.SLA{
				ThroughputMbps: t.w.preloadMbps, MaxLatencyMs: 50,
				Duration: 1000 * time.Hour, PriceEUR: 10, PenaltyEUR: 1,
			},
		}, nil)
		if err != nil {
			return err
		}
		if sl.State() == slice.StateRejected {
			return fmt.Errorf("preloaded slice %d rejected: %s", i, sl.Reason())
		}
		t.preload = append(t.preload, sl.ID())
	}
	s.RunFor(warp)
	if n := t.orch.ActiveCount(); n != t.w.preload {
		return fmt.Errorf("%d of %d preloaded slices active after set-up", n, t.w.preload)
	}
	if t.w.demand {
		for _, id := range t.preload {
			if err := t.orch.RecordDemand(id, t.w.preloadMbps*(0.2+0.8*rng.Float64())); err != nil {
				return err
			}
		}
	}
	t.orch.RunEpoch()
	t.ledger0 = t.orch.LedgerLoad()
	t.pacer = startPacer(s)
	return nil
}

// ready polls GET /healthz until the listener serves it.
func (t *target) ready() error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	var err error
	for i := 0; i < 100; i++ {
		var resp *http.Response
		resp, err = hc.Get(t.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return err
}

// stopLoad stops the watcher, the epoch driver and the HTTP server; the
// orchestrator stays readable.
func (t *target) stopLoad() {
	if t.watch != nil {
		t.watch.stop()
	}
	if t.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if t.srv.Shutdown(ctx) != nil {
			t.srv.Close()
		}
		cancel()
		t.srv = nil
	}
	if t.epochs != nil {
		t.epochs.stop()
		t.epochs = nil
	}
}

// close stops everything the target started, flushing and closing the WAL
// the way cmd/orchestrator shuts down.
func (t *target) close() error {
	t.stopLoad()
	if t.pacer != nil {
		t.pacer.stop()
		t.pacer = nil
	}
	var err error
	if t.orch != nil && t.w.durable {
		t.orch.Shutdown()
		switch {
		case t.sys != nil:
			err = t.sys.CloseWAL()
		case t.walw != nil:
			err = t.orch.ClosePersist(t.walw.Close)
		}
	}
	if t.rtclock != nil {
		t.rtclock.CancelAll()
	}
	return err
}

// pacer advances a simulator clock with the wall clock, so the in-memory
// daemon's timers fire in real time after set-up's warp.
type pacer struct {
	quit, done chan struct{}
}

func startPacer(s *sim.Simulator) *pacer {
	p := &pacer{quit: make(chan struct{}), done: make(chan struct{})}
	v0, w0 := s.Now(), time.Now()
	go func() {
		defer close(p.done)
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tk.C:
				s.RunUntil(v0.Add(time.Since(w0)))
			}
		}
	}()
	return p
}

func (p *pacer) stop() { close(p.quit); <-p.done }

// epochDriver calls RunEpoch every period, which is what Start schedules
// on the realtime clock, and times each pass from outside.
type epochDriver struct {
	quit, done chan struct{}
	mu         sync.Mutex
	passes     []interval
}

func startEpochs(o *core.Orchestrator, period time.Duration, base time.Time) *epochDriver {
	e := &epochDriver{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(e.done)
		tk := time.NewTicker(period)
		defer tk.Stop()
		for {
			select {
			case <-e.quit:
				return
			case <-tk.C:
				s := time.Since(base)
				o.RunEpoch()
				e.mu.Lock()
				e.passes = append(e.passes, interval{s, time.Since(base)})
				e.mu.Unlock()
			}
		}
	}()
	return e
}

func (e *epochDriver) stop() { close(e.quit); <-e.done }

// within returns the passes that started in [from, to).
func (e *epochDriver) within(from, to time.Duration) []interval {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []interval
	for _, p := range e.passes {
		if p.start >= from && p.start < to {
			out = append(out, p)
		}
	}
	return out
}

// frameKey identifies one expected lifecycle frame.
type frameKey struct {
	id  slice.ID
	typ core.EventType
}

// frame is what the watcher saw for one key.
type frame struct {
	first time.Duration // receive time of the first copy
	count int
}

// watcher is the SSE client on GET /api/v2/events, on its own connection,
// with a server-side type filter.
type watcher struct {
	cancel  context.CancelFunc
	done    chan struct{}
	hc      *http.Client
	mu      sync.Mutex
	frames  map[frameKey]frame
	total   int
	resyncs int
	err     error
}

// startWatcher subscribes after sequence since, so no event published
// after set-up can fall between the subscription and the first request.
func startWatcher(base string, since int64, types []core.EventType, tb time.Time) (*watcher, error) {
	q := "?since=" + strconv.FormatInt(since, 10)
	for _, ty := range types {
		q += "&type=" + string(ty)
	}
	ctx, cancel := context.WithCancel(context.Background())
	wt := &watcher{
		cancel: cancel, done: make(chan struct{}),
		hc:     &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
		frames: make(map[frameKey]frame),
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v2/events"+q, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := wt.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("events: %s", resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	// The stream opens with a retry: preamble once the handler runs.
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "retry:") {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("events: no stream preamble (%q, %v)", line, err)
	}
	go func() {
		defer close(wt.done)
		defer resp.Body.Close()
		var ev struct {
			Slice slice.ID `json:"slice"`
		}
		var typ core.EventType
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				if ctx.Err() == nil {
					wt.mu.Lock()
					wt.err = fmt.Errorf("events: stream ended: %w", err)
					wt.mu.Unlock()
				}
				return
			}
			if t, ok := strings.CutPrefix(line, "event: "); ok {
				typ = core.EventType(strings.TrimSpace(t))
				continue
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			at := time.Since(tb)
			wt.mu.Lock()
			wt.total++
			wt.mu.Unlock()
			// Only the frames the checks expect are decoded: the watcher
			// shares the box with the daemon, and resized frames alone
			// arrive at thousands per second on epoch-readmix.
			switch typ {
			case core.EventResync:
				wt.mu.Lock()
				wt.resyncs++
				wt.mu.Unlock()
				continue
			case core.EventAdmitted, core.EventRejected, core.EventDeleted:
			default:
				continue
			}
			ev.Slice = ""
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				wt.mu.Lock()
				wt.err = fmt.Errorf("events: bad frame: %w", err)
				wt.mu.Unlock()
				continue
			}
			k := frameKey{ev.Slice, typ}
			wt.mu.Lock()
			f, seen := wt.frames[k]
			if !seen {
				f.first = at
			}
			f.count++
			wt.frames[k] = f
			wt.mu.Unlock()
		}
	}()
	return wt, nil
}

func (wt *watcher) stop() {
	wt.cancel()
	<-wt.done
	wt.hc.CloseIdleConnections()
}

// lookup returns the frame seen for key.
func (wt *watcher) lookup(k frameKey) (frame, bool) {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	f, ok := wt.frames[k]
	return f, ok
}

// counts returns the frames and resyncs received so far and any stream error.
func (wt *watcher) counts() (total, resyncs int, err error) {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	return wt.total, wt.resyncs, wt.err
}

// waitFor waits until every key has arrived or the deadline passes.
func (wt *watcher) waitFor(keys []frameKey, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for _, k := range keys {
		for {
			if _, ok := wt.lookup(k); ok || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
