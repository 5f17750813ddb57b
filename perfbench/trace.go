package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/slice"
	"repro/internal/wal"
)

// The traced run times each layer from outside, through the program's own
// seams: a timing handler around the HTTP handler tree, a decorator
// installed with ctrl.Set.Wrap, and a core.StagedSink around the WAL sink.
// Spans stay in memory and are folded into the per-layer report once the
// run ends.

// Domain verbs of the ctrl decorator.
const (
	vFeasible = iota
	vReserve
	vCommit
	vAbort
	vResize
	vRelease
	numVerbs
)

var (
	verbNames   = [numVerbs]string{"feasible", "reserve", "commit", "abort", "resize", "release"}
	domainNames = []string{"ran", "transport", "cloud"}
)

// Span names. Domain-verb spans are numbered ctrlSpan(domain, verb).
const (
	spanHandler = iota
	spanWALAppend
	spanWALFsync
	spanWALSnapshot
	spanCtrlBase
)

func ctrlSpan(domain, verb int) int { return spanCtrlBase + domain*numVerbs + verb }

// span is one timed call. id is the slice the call was made for, when the
// seam exposes it; key is a submit's Idempotency-Key; aux carries bytes:
// the handler's response, a WAL record or a checkpoint.
type span struct {
	name       int
	start, end time.Duration
	id         slice.ID
	key        string
	aux        int64
}

// tracer collects spans on the benchmark's monotonic time base.
type tracer struct {
	base time.Time
	mu   sync.Mutex
	s    []span
	// grants maps a reserved grant back to its slice, so Commit and Abort
	// (which the Domain interface passes only the grant) can be joined.
	// Wrap switches grant recycling off, so a grant is never reused.
	grants sync.Map
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, s: make([]span, 0, 1<<16)}
}

func (t *tracer) now() time.Duration { return time.Since(t.base) }

func (t *tracer) add(sp span) {
	t.mu.Lock()
	t.s = append(t.s, sp)
	t.mu.Unlock()
}

// spans returns the spans recorded so far.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.s
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// handler times every request but the long-lived event stream.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v2/events" {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := t.now()
		h.ServeHTTP(cw, r)
		t.add(span{name: spanHandler, start: start, end: t.now(), key: r.Header.Get("Idempotency-Key"), aux: cw.n})
	})
}

// tracedDomain times every transactional verb of one domain; the
// monitoring surface passes through.
type tracedDomain struct {
	ctrl.Controller
	in  ctrl.Domain
	t   *tracer
	idx int
}

func (d *tracedDomain) span(verb int, start time.Duration, id slice.ID) {
	d.t.add(span{name: ctrlSpan(d.idx, verb), start: start, end: d.t.now(), id: id})
}

func (d *tracedDomain) grantID(g ctrl.Grant, drop bool) slice.ID {
	if g == nil {
		return ""
	}
	var v any
	if drop {
		v, _ = d.t.grants.LoadAndDelete(g)
	} else {
		v, _ = d.t.grants.Load(g)
	}
	id, _ := v.(slice.ID)
	return id
}

func (d *tracedDomain) Feasible(tx ctrl.Tx) *slice.RejectionCause {
	s := d.t.now()
	c := d.in.Feasible(tx)
	d.span(vFeasible, s, tx.Slice)
	return c
}

func (d *tracedDomain) Reserve(tx ctrl.Tx) (ctrl.Grant, *slice.RejectionCause) {
	s := d.t.now()
	g, c := d.in.Reserve(tx)
	d.span(vReserve, s, tx.Slice)
	if g != nil {
		d.t.grants.Store(g, tx.Slice)
	}
	return g, c
}

func (d *tracedDomain) Commit(g ctrl.Grant) error {
	s := d.t.now()
	err := d.in.Commit(g)
	d.span(vCommit, s, d.grantID(g, false))
	return err
}

func (d *tracedDomain) Abort(g ctrl.Grant) {
	s := d.t.now()
	d.in.Abort(g)
	d.span(vAbort, s, d.grantID(g, true))
}

func (d *tracedDomain) Resize(tx ctrl.Tx, mbps float64) (ctrl.Grant, error) {
	s := d.t.now()
	g, err := d.in.Resize(tx, mbps)
	d.span(vResize, s, tx.Slice)
	return g, err
}

func (d *tracedDomain) Release(id slice.ID, p slice.PLMN) {
	s := d.t.now()
	d.in.Release(id, p)
	d.span(vRelease, s, id)
}

// wrapDomain is the ctrl.Set.Wrap decorator. It forwards the optional
// capabilities the wrapped domain has: without FeasVersioner the
// feasibility memo switches off, and without LatencyContributor the
// latency budget shifts, so the traced run would execute another program.
func (t *tracer) wrapDomain(d ctrl.Domain) ctrl.Domain {
	idx := -1
	for i, n := range domainNames {
		if n == d.Domain() {
			idx = i
		}
	}
	if idx < 0 {
		// Only the three demo domains are configured; a fourth would
		// need its own span names.
		panic(fmt.Sprintf("perfbench: untraced domain %q", d.Domain()))
	}
	td := &tracedDomain{Controller: d, in: d, t: t, idx: idx}
	fv, isFV := d.(ctrl.FeasVersioner)
	lc, isLC := d.(ctrl.LatencyContributor)
	switch {
	case isFV && isLC:
		return struct {
			*tracedDomain
			ctrl.FeasVersioner
			ctrl.LatencyContributor
		}{td, fv, lc}
	case isFV:
		return struct {
			*tracedDomain
			ctrl.FeasVersioner
		}{td, fv}
	case isLC:
		return struct {
			*tracedDomain
			ctrl.LatencyContributor
		}{td, lc}
	}
	return td
}

// checkCapabilities is the fidelity guard on the decorator: every wrapped
// domain must expose exactly the optional capabilities of the unwrapped one.
func checkCapabilities(set ctrl.Set) error {
	ds := []ctrl.Domain{set.RAN, set.Transport, set.Cloud}
	ds = append(ds, set.Extra...)
	for _, d := range ds {
		w := set.Wrapped(d)
		_, fv := d.(ctrl.FeasVersioner)
		_, wfv := w.(ctrl.FeasVersioner)
		_, lc := d.(ctrl.LatencyContributor)
		_, wlc := w.(ctrl.LatencyContributor)
		if fv != wfv || lc != wlc {
			return fmt.Errorf("traced %s domain capabilities differ: FeasVersioner %v→%v, LatencyContributor %v→%v",
				d.Domain(), fv, wfv, lc, wlc)
		}
	}
	return nil
}

// tracedSink times the WAL sink. It implements StageCommit, so commits
// keep the group-commit path instead of falling back to an fsync under the
// persistence mutex.
type tracedSink struct {
	in core.StagedSink
	t  *tracer
}

var _ core.StagedSink = tracedSink{}

// recordBytes is a record's framed size on disk: length, CRC, sequence,
// type length, type and payload.
func recordBytes(rec wal.Record) int64 {
	return int64(4 + 4 + 8 + 1 + len(rec.Type) + len(rec.Payload))
}

func (s tracedSink) Append(rec wal.Record) error {
	st := s.t.now()
	err := s.in.Append(rec)
	s.t.add(span{name: spanWALAppend, start: st, end: s.t.now(), aux: recordBytes(rec)})
	return err
}

func (s tracedSink) Committed() error {
	st := s.t.now()
	err := s.in.Committed()
	s.t.add(span{name: spanWALFsync, start: st, end: s.t.now()})
	return err
}

func (s tracedSink) Snapshot(seq uint64, blob []byte) error {
	st := s.t.now()
	err := s.in.Snapshot(seq, blob)
	s.t.add(span{name: spanWALSnapshot, start: st, end: s.t.now(), aux: int64(len(blob))})
	return err
}

func (s tracedSink) StageCommit() func() error {
	step := s.in.StageCommit()
	return func() error {
		st := s.t.now()
		err := step()
		s.t.add(span{name: spanWALFsync, start: st, end: s.t.now()})
		return err
	}
}

// wrapSink wraps a staged sink for tracing; the assertion above guards
// that the wrapper stays staged.
func (t *tracer) wrapSink(in core.Sink) (core.Sink, error) {
	ss, ok := in.(core.StagedSink)
	if !ok {
		return nil, fmt.Errorf("WAL sink %T is not a core.StagedSink", in)
	}
	return tracedSink{in: ss, t: t}, nil
}
