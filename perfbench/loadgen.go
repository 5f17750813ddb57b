package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/slice"
)

// result is one completed request. Times are offsets on the benchmark
// time base; latency is done-due, so a request that waited behind a slow
// one is charged for the wait (no coordinated omission).
type result struct {
	kind       opKind
	due, sent  time.Duration
	done       time.Duration
	id         slice.ID // submit: the new slice; delete/get/demand: the target
	key        string   // submit: Idempotency-Key
	rejectCode slice.RejectCode
	admitted   bool
	rejected   bool
}

func (r result) latency() time.Duration  { return r.done - r.due }
func (r result) lateness() time.Duration { return r.sent - r.due }

// deleteQueue orders pending deletes by due time.
type deleteQueue []op

func (q deleteQueue) Len() int           { return len(q) }
func (q deleteQueue) Less(i, j int) bool { return q[i].due < q[j].due }
func (q deleteQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *deleteQueue) Push(x any)        { *q = append(*q, x.(op)) }
func (q *deleteQueue) Pop() any {
	old := *q
	o := old[len(old)-1]
	*q = old[:len(old)-1]
	return o
}

// runner drives one daemon over one keep-alive request connection.
type runner struct {
	w     *workload
	t     *target
	base  time.Time
	hc    *http.Client
	sched *schedule
	key   string
	body  []byte
	// page is the keyset cursor of the list requests.
	page string
	// arrival is the next scheduled arrival not yet sent.
	arrival op
	pending deleteQueue

	// results and closed hold the open and the closed loop's requests;
	// submits and deleted cover every phase, for the correctness checks.
	results  []result
	closed   []result
	submits  []result
	deleted  []slice.ID // acked deletes, in order
	replays  int
	failures []string
}

func newRunner(w *workload, t *target, seed int64, base time.Time, origin time.Duration) *runner {
	body, _ := json.Marshal(map[string]any{
		"tenant": "bench", "throughput_mbps": w.contractMbps, "max_latency_ms": 50,
		"duration_seconds": 3600, "price_eur": 10, "penalty_eur": 1,
	})
	r := &runner{
		w: w, t: t, base: base, body: body,
		key:   fmt.Sprintf("%s-%d", w.name, seed),
		hc:    &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		sched: newSchedule(w, seed, len(t.preload), origin),
	}
	r.arrival = r.sched.next()
	return r
}

func (r *runner) now() time.Duration { return time.Since(r.base) }

func (r *runner) fail(format string, a ...any) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, a...))
	} else if len(r.failures) == 20 {
		r.failures = append(r.failures, "...")
	}
}

// nextOp pops whichever of the next arrival and the earliest pending
// delete is due first, unless it is due at or after end.
func (r *runner) nextOp(end time.Duration) (op, bool) {
	if len(r.pending) > 0 && r.pending[0].due < r.arrival.due {
		if r.pending[0].due >= end {
			return op{}, false
		}
		return heap.Pop(&r.pending).(op), true
	}
	if r.arrival.due >= end {
		return op{}, false
	}
	o := r.arrival
	r.arrival = r.sched.next()
	return o, true
}

// segments is how many equal windows each phase is split into. A run
// reports the median of the per-window figures, so one stall of the
// shared box moves one window, not the result.
const segments = 5

// openLoop sends every op due in [start, end) at its due time. It samples
// the process CPU time at the segment boundaries (segments+1 samples).
func (r *runner) openLoop(start, end time.Duration) []time.Duration {
	seg := (end - start) / segments
	cpu := []time.Duration{cpuTime()}
	for {
		o, ok := r.nextOp(end)
		if !ok {
			break
		}
		for len(cpu) < segments && o.due >= start+time.Duration(len(cpu))*seg {
			cpu = append(cpu, cpuTime())
		}
		sleepUntil(r.base.Add(o.due))
		r.exec(o, phaseOpen)
	}
	for len(cpu) <= segments {
		cpu = append(cpu, cpuTime())
	}
	return cpu
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime
// timer would wake it up to a millisecond late, which would show as
// generator lateness in every latency; the kernel timer is precise to tens
// of microseconds. The runtime hands the processor to other goroutines
// while the thread sleeps.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// closedLoop runs the same schedule back to back, ignoring due times, over
// [start, end). Deletes stay ordered by schedule time, so the live
// population matches the open loop's. It samples the process CPU time at
// the segment boundaries, as openLoop does.
func (r *runner) closedLoop(start, end time.Duration) []time.Duration {
	seg := (end - start) / segments
	cpu := []time.Duration{cpuTime()}
	for {
		now := r.now()
		if now >= end {
			break
		}
		for len(cpu) < segments && now >= start+time.Duration(len(cpu))*seg {
			cpu = append(cpu, cpuTime())
		}
		o, _ := r.nextOp(1<<62 - 1)
		r.exec(o, phaseClosed)
	}
	for len(cpu) <= segments {
		cpu = append(cpu, cpuTime())
	}
	return cpu
}

// liveIDs returns the acked-live slices: admitted, with a delete not yet
// sent.
func (r *runner) liveIDs() []slice.ID {
	out := make([]slice.ID, len(r.pending))
	for i, o := range r.pending {
		out[i] = o.id
	}
	return out
}

// request sends one request and reads the whole body. It reports the
// status, the body, whether the submit was a replay, and the send time.
func (r *runner) request(method, path string, body []byte, key string) (int, []byte, bool, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, r.t.base+path, rd)
	if err != nil {
		return 0, nil, false, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	sent := r.now()
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, nil, false, sent, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, resp.Header.Get("Idempotency-Replay") == "true", sent, err
}

// phase is the loop a request belongs to.
type phase uint8

const (
	phaseOpen   phase = iota // sent at its due time; recorded in results
	phaseClosed              // sent back to back; recorded in closed
	phaseDrain               // the drain after the run; not recorded
)

// exec sends one op, checks its response, and records the result.
func (r *runner) exec(o op, ph phase) {
	res := result{kind: o.kind, due: o.due}
	var (
		method, path string
		body         []byte
		want         = []int{http.StatusOK}
	)
	switch o.kind {
	case opSubmit:
		method, path, body = http.MethodPost, "/api/v2/slices", r.body
		res.key = fmt.Sprintf("%s-%d", r.key, o.seq)
		want = []int{http.StatusAccepted, http.StatusOK}
	case opDelete:
		method, path, res.id = http.MethodDelete, "/api/v2/slices/"+string(o.id), o.id
	case opGetSlice:
		res.id = r.t.preload[o.target]
		method, path = http.MethodGet, "/api/v2/slices/"+string(res.id)
	case opList:
		method, path = http.MethodGet, "/api/v2/slices?limit=100"
		if r.page != "" {
			path += "&page_token=" + r.page
		}
	case opGain:
		method, path = http.MethodGet, "/api/v1/gain"
	case opEpoch:
		method, path = http.MethodGet, "/api/v2/epoch"
	case opDemand:
		res.id = r.t.preload[o.target]
		method, path = http.MethodPost, "/api/v1/slices/"+string(res.id)+"/demand"
		body = []byte(fmt.Sprintf(`{"mbps":%g}`, o.mbps))
	}
	status, b, replay, sent, err := r.request(method, path, body, res.key)
	res.sent, res.done = sent, r.now()
	if err != nil {
		r.fail("%s %s: %v", method, path, err)
		return
	}
	ok := false
	for _, s := range want {
		ok = ok || s == status
	}
	if !ok {
		r.fail("%s %s: unexpected status %d: %s", method, path, status, strings.TrimSpace(string(b)))
		return
	}
	if err := r.check(o, &res, status, b); err != nil {
		r.fail("%s %s: %v", method, path, err)
		return
	}
	if replay {
		r.replays++
	}
	if o.kind == opSubmit && res.admitted && r.w.holdMean > 0 {
		due := o.due + o.hold
		if ph == phaseOpen && due < res.done {
			due = res.done
		}
		heap.Push(&r.pending, op{kind: opDelete, due: due, id: res.id})
	}
	switch o.kind {
	case opSubmit:
		r.submits = append(r.submits, res)
	case opDelete:
		r.deleted = append(r.deleted, o.id)
	}
	switch ph {
	case phaseOpen:
		r.results = append(r.results, res)
	case phaseClosed:
		r.closed = append(r.closed, res)
	}
}

// check validates one response body.
func (r *runner) check(o op, res *result, status int, b []byte) error {
	switch o.kind {
	case opSubmit:
		var snap struct {
			ID         slice.ID         `json:"id"`
			State      string           `json:"state"`
			RejectCode slice.RejectCode `json:"reject_code"`
		}
		if err := json.Unmarshal(b, &snap); err != nil {
			return err
		}
		if snap.ID == "" {
			return fmt.Errorf("no slice id")
		}
		res.id = snap.ID
		switch {
		case status == http.StatusOK && snap.State == "rejected" && snap.RejectCode != "":
			res.rejected, res.rejectCode = true, snap.RejectCode
		case status == http.StatusAccepted && isLive(snap.State):
			res.admitted = true
		default:
			return fmt.Errorf("status %d with state %q", status, snap.State)
		}
	case opDelete:
		if !bytes.Contains(b, []byte(`"terminated"`)) {
			return fmt.Errorf("delete not acked: %s", b)
		}
	case opGetSlice:
		var snap struct {
			ID    slice.ID `json:"id"`
			State string   `json:"state"`
		}
		if err := json.Unmarshal(b, &snap); err != nil {
			return err
		}
		if snap.ID != res.id || !isLive(snap.State) {
			return fmt.Errorf("preloaded slice reads as %s %q", snap.ID, snap.State)
		}
	case opList:
		var page struct {
			Slices []struct {
				ID slice.ID `json:"id"`
			} `json:"slices"`
			Next string `json:"next_page_token"`
		}
		if err := json.Unmarshal(b, &page); err != nil {
			return err
		}
		if len(page.Slices) == 0 || len(page.Slices) > 100 {
			return fmt.Errorf("page of %d slices", len(page.Slices))
		}
		r.page = page.Next
	case opGain:
		var g core.GainReport
		if err := json.Unmarshal(b, &g); err != nil {
			return err
		}
		if g.Admitted < len(r.t.preload) {
			return fmt.Errorf("gain reports %d admitted, %d preloaded", g.Admitted, len(r.t.preload))
		}
	case opEpoch:
		var e struct {
			Epoch int64 `json:"epoch"`
		}
		if err := json.Unmarshal(b, &e); err != nil {
			return err
		}
		if e.Epoch < 1 {
			return fmt.Errorf("epoch snapshot %d", e.Epoch)
		}
	case opDemand:
		if !bytes.Contains(b, []byte(`"recorded"`)) {
			return fmt.Errorf("demand not recorded: %s", b)
		}
	}
	return nil
}

func isLive(state string) bool {
	switch state {
	case "admitted", "installing", "active", "reconfiguring":
		return true
	}
	return false
}
