package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/slice"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// sample is one observation; its time t places it in a segment.
type sample struct {
	t time.Duration
	v float64
}

func values(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.v
	}
	return out
}

func isKind(k opKind) func(opKind) bool { return func(o opKind) bool { return o == k } }
func anyKind(opKind) bool               { return true }

// latencies returns the open loop's latencies (ms, from the due time) of
// the kinds that match, placed by due time.
func (p *pass) latencies(match func(opKind) bool) []sample {
	var out []sample
	for _, r := range p.results {
		if match(r.kind) {
			out = append(out, sample{r.due, ms(r.latency())})
		}
	}
	return out
}

// service returns the closed loop's round trips (ms, from the send) of
// the kinds that match, placed by send time.
func (p *pass) service(match func(opKind) bool) []sample {
	var out []sample
	for _, r := range p.closed {
		if match(r.kind) {
			out = append(out, sample{r.sent, ms(r.done - r.sent)})
		}
	}
	return out
}

// lateness returns how late (ms) the generator sent each request.
func (p *pass) lateness() []sample {
	out := make([]sample, len(p.results))
	for i, r := range p.results {
		out[i] = sample{r.due, ms(r.lateness())}
	}
	return out
}

// window is one phase of a pass, split into equal segments.
type window struct{ start, end time.Duration }

func (w window) segment(t time.Duration) int {
	i := int((t - w.start) * segments / (w.end - w.start))
	return min(max(i, 0), segments-1)
}

// segmented is the median over w's segments of the q-quantile within each
// segment; every segment must have enough samples beyond the quantile.
func segmented(name string, w window, xs []sample, q float64) (metric, error) {
	parts := make([][]float64, segments)
	for _, x := range xs {
		i := w.segment(x.t)
		parts[i] = append(parts[i], x.v)
	}
	per := make([]float64, segments)
	for i, part := range parts {
		v, ok := percentile(part, q)
		if !ok {
			return metric{}, fmt.Errorf("%s: segment %d has %d samples, too few", name, i, len(part))
		}
		per[i] = v
	}
	return metric{name, median(per), "ms"}, nil
}

// perRequest is the median over w's segments of CPU time per request (ms)
// and of requests per second; cpu holds the CPU time at the segment
// boundaries and at is each request's time.
func perRequest(w window, cpu []time.Duration, at []time.Duration) (cpuMs, rps float64) {
	n := make([]float64, segments)
	for _, t := range at {
		n[w.segment(t)]++
	}
	c := make([]float64, segments)
	r := make([]float64, segments)
	for i := range n {
		c[i] = ms(cpu[i+1]-cpu[i]) / n[i]
		r[i] = n[i] * segments / (w.end - w.start).Seconds()
	}
	return median(c), median(r)
}

// pooled reports the p50 and p99 of xs as <name>_p50_ms and <name>_p99_ms,
// leaving out a level without enough samples beyond it.
func pooled(name string, xs []sample) []metric {
	var out []metric
	vs := values(xs)
	if v, ok := percentile(vs, 0.50); ok {
		out = append(out, metric{name + "_p50_ms", v, "ms"})
	}
	if v, ok := percentile(vs, 0.99); ok {
		out = append(out, metric{name + "_p99_ms", v, "ms"})
	}
	return out
}

// endToEnd returns the gated metrics and, apart, the open-loop figures
// that are printed but not gated.
//
// The gated latency and CPU figures come from the closed loop, where the
// request connection never idles; each is the median over 5 segments. At
// the open loop's stated rates the box idles between requests, and every
// request pays for waking a CPU. That cost moves by tens of percent from
// one run of identical code to the next on this shared box (README.md),
// which is more than any bound the benchmark may set. The open-loop
// figures, timed from the due time, are printed.
func endToEnd(p *pass) (gated, extra []metric, err error) {
	open := window{p.openStart, p.openEnd}
	closed := window{p.closedStart, p.closedEnd}
	for _, m := range []struct {
		name string
		xs   []sample
	}{
		{"closed_latency_p50_ms", p.service(anyKind)},
		{"closed_submit_p50_ms", p.service(isKind(opSubmit))},
		{"closed_event_lag_p50_ms", p.closedLags},
	} {
		g, err := segmented(m.name, closed, m.xs, 0.5)
		if err != nil {
			return nil, nil, err
		}
		gated = append(gated, g)
	}
	secs := make([]float64, len(p.setups))
	for i, d := range p.setups {
		secs[i] = d.Seconds()
	}
	sent := func(rs []result) []time.Duration {
		out := make([]time.Duration, len(rs))
		for i, r := range rs {
			out[i] = r.sent
		}
		return out
	}
	closedCPU, maxRPS := perRequest(closed, p.closedCPU, sent(p.closed))
	gated = append(gated,
		metric{"closed_cpu_ms_per_req", closedCPU, "ms"},
		metric{"setup_s", median(secs), "s"},
		metric{"peak_rss_mb", p.rss, "MB"},
	)
	// max_rps is printed, not gated: as a mean over the closed loop it
	// carries every slow fsync and stall, and it spread 0.26 over ten
	// seeds of durable-churn, more than the largest bound allowed.
	extra = append(extra, metric{"max_rps", maxRPS, "1/s"})

	due := make([]time.Duration, len(p.results))
	for i, r := range p.results {
		due[i] = r.due
	}
	cpu, _ := perRequest(open, p.cpu, due)
	extra = append(extra, metric{"cpu_ms_per_req", cpu, "ms"})
	for _, k := range []struct {
		name string
		xs   []sample
	}{
		{"latency", p.latencies(anyKind)},
		{"submit", p.latencies(isKind(opSubmit))},
		{"delete", p.latencies(isKind(opDelete))},
		{"read", p.latencies(opKind.isRead)},
		{"demand", p.latencies(isKind(opDemand))},
		{"event_lag", p.lags},
		{"loadgen.late", p.lateness()},
	} {
		extra = append(extra, pooled(k.name, k.xs)...)
	}
	var busy time.Duration
	for _, e := range p.epochs {
		busy += e.end - e.start
	}
	extra = append(extra,
		metric{"error_rate", 0, "ratio"},
		metric{"requests", float64(len(p.results)), "count"},
		metric{"offered_rps", float64(len(p.results)) / (p.openEnd - p.openStart).Seconds(), "1/s"},
		metric{"epoch.busy_share", busy.Seconds() / (p.openEnd - p.openStart).Seconds(), "ratio"},
	)
	if p.w.durable {
		extra = append(extra, metric{"recover_s", p.recoverTime.Seconds(), "s"})
	}
	return gated, extra, nil
}

// layers computes the per-layer metrics of traced pass p; u is the
// untraced pass of the same workload and seed.
func layers(u, p *pass) ([]metric, error) {
	reqs := float64(len(p.results))
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	p50 := func(xs []float64) float64 { v, _ := percentile(xs, 0.5); return v }
	p99 := func(xs []float64) float64 { v, _ := percentile(xs, 0.99); return v }
	per := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}

	// Handler spans of the open loop, one per client request in send
	// order: the request connection serves one request at a time.
	last := p.results[len(p.results)-1].done
	var hs, others []span
	for _, s := range p.spans {
		switch {
		case s.start < p.openStart || s.start > last:
		case s.name == spanHandler:
			hs = append(hs, s)
		default:
			others = append(others, s)
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].start < hs[j].start })
	if len(hs) != len(p.results) {
		return nil, fmt.Errorf("%d handler spans for %d requests", len(hs), len(p.results))
	}
	for i, r := range p.results {
		if r.kind == opSubmit && hs[i].key != r.key {
			return nil, fmt.Errorf("handler span %d has key %q, request %q", i, hs[i].key, r.key)
		}
	}

	// Parent each ctrl and WAL span: the request for the same slice that
	// contains it, else the epoch pass that contains it, else whichever
	// request contains it (a squeeze resizes other slices).
	inEpoch := func(s span) bool {
		for _, e := range p.epochs {
			if s.start >= e.start && s.end <= e.end {
				return true
			}
		}
		return false
	}
	children := make([][]interval, len(hs))
	for _, s := range others {
		if s.name == spanWALSnapshot {
			continue
		}
		i := sort.Search(len(hs), func(i int) bool { return hs[i].start > s.start }) - 1
		if i < 0 || s.end > hs[i].end {
			continue
		}
		if s.id == "" || s.id != p.results[i].id {
			if inEpoch(s) {
				continue
			}
		}
		children[i] = append(children[i], interval{s.start, s.end})
	}

	var overhead, self []float64
	byKind := make([][]float64, numOpKinds)
	var respBytes int64
	nOverlap := 0
	for i, h := range hs {
		r := p.results[i]
		d := h.end - h.start
		overhead = append(overhead, ms(r.done-r.sent-d))
		self = append(self, ms(selfTime(interval{h.start, h.end}, children[i])))
		byKind[r.kind] = append(byKind[r.kind], ms(d))
		respBytes += h.aux
		for _, e := range p.epochs {
			if h.start < e.end && e.start < h.end {
				nOverlap++
				break
			}
		}
	}
	var reads []float64
	for k := opKind(0); k < numOpKinds; k++ {
		if k.isRead() {
			reads = append(reads, byKind[k]...)
		}
	}
	add("net.overhead_p50_ms", p50(overhead), "ms")
	add("restapi.submit_p50_ms", p50(byKind[opSubmit]), "ms")
	add("restapi.submit_p99_ms", p99(byKind[opSubmit]), "ms")
	add("restapi.delete_p50_ms", p50(byKind[opDelete]), "ms")
	add("restapi.read_p50_ms", p50(reads), "ms")
	add("restapi.demand_p50_ms", p50(byKind[opDemand]), "ms")
	add("restapi.resp_bytes_per_req", per(float64(respBytes), reqs), "B")
	add("restapi.self_p50_ms", p50(self), "ms")

	// ctrl: calls per request and median call time per domain verb.
	durs := make(map[int][]float64)
	var appendUs, fsyncMs, snapMs []float64
	var walBytes, snapBytes int64
	for _, s := range others {
		d := s.end - s.start
		switch s.name {
		case spanWALAppend:
			appendUs = append(appendUs, us(d))
			walBytes += s.aux
		case spanWALFsync:
			fsyncMs = append(fsyncMs, ms(d))
		case spanWALSnapshot:
			snapMs = append(snapMs, ms(d))
			snapBytes += s.aux
		default:
			durs[s.name] = append(durs[s.name], us(d))
		}
	}
	submits := float64(len(byKind[opSubmit]))
	var feasible float64
	for di, dn := range domainNames {
		for v, vn := range verbNames {
			xs := durs[ctrlSpan(di, v)]
			add(fmt.Sprintf("ctrl.%s.%s_calls_per_req", dn, vn), per(float64(len(xs)), reqs), "count")
			add(fmt.Sprintf("ctrl.%s.%s_p50_us", dn, vn), p50(xs), "us")
			if v == vFeasible {
				feasible += float64(len(xs))
			}
		}
	}
	add("ctrl.feasible_calls_per_submit", per(feasible, submits), "count")

	fsyncs := float64(p.persist1.Fsyncs - p.persist0.Fsyncs)
	add("wal.records_per_req", per(float64(len(appendUs)), reqs), "count")
	add("wal.bytes_per_req", per(float64(walBytes), reqs), "B")
	add("wal.append_p50_us", p50(appendUs), "us")
	add("wal.fsyncs_per_req", per(fsyncs, reqs), "count")
	add("wal.reqs_per_fsync", per(float64(p.persist1.CommitOps-p.persist0.CommitOps), fsyncs), "count")
	add("wal.fsync_p50_ms", p50(fsyncMs), "ms")
	add("wal.fsync_p99_ms", p99(fsyncMs), "ms")
	add("wal.snapshots", float64(len(snapMs)), "count")
	add("wal.snapshot_p50_ms", median(snapMs), "ms")
	add("wal.snapshot_bytes", per(float64(snapBytes), float64(len(snapMs))), "B")

	add("events.published_per_req", per(float64(p.seq1-p.seq0), reqs), "count")
	add("events.sse_frames", float64(p.frames), "count")
	add("events.resyncs", float64(p.resyncs), "count")

	var runs []float64
	var busy time.Duration
	for _, e := range p.epochs {
		runs = append(runs, ms(e.end-e.start))
		busy += e.end - e.start
	}
	add("epoch.passes", float64(len(p.epochs)), "count")
	add("epoch.run_p50_ms", median(append([]float64(nil), runs...)), "ms")
	runMax := 0.0
	for _, x := range runs {
		runMax = math.Max(runMax, x)
	}
	add("epoch.run_max_ms", runMax, "ms")
	add("epoch.busy_share", busy.Seconds()/(p.openEnd-p.openStart).Seconds(), "ratio")
	add("epoch.overlap_share", per(float64(nOverlap), reqs), "ratio")

	add("core.reconfigs_per_req", per(float64(p.gain1.Reconfigurations-p.gain0.Reconfigurations), reqs), "count")
	add("core.admit_ratio", p.admitRatio(), "ratio")
	add("core.live_slices", float64(p.live), "count")
	add("core.idem_replays", float64(p.replays), "count")

	ur := float64(len(u.results))
	add("go.alloc_bytes_per_req", per(float64(u.mem1.TotalAlloc-u.mem0.TotalAlloc), ur), "B")
	add("go.mallocs_per_req", per(float64(u.mem1.Mallocs-u.mem0.Mallocs), ur), "count")
	add("go.gc_cycles", float64(u.mem1.NumGC-u.mem0.NumGC), "count")
	add("go.gc_pause_total_ms", float64(u.mem1.PauseTotalNs-u.mem0.PauseTotalNs)/1e6, "ms")

	tsub, _ := percentile(values(p.latencies(isKind(opSubmit))), 0.5)
	usub, _ := percentile(values(u.latencies(isKind(opSubmit))), 0.5)
	add("trace.overhead_submit_p50_ms", tsub-usub, "ms")
	return out, nil
}

// admitRatio is admitted ÷ decided over the open loop.
func (p *pass) admitRatio() float64 {
	a := float64(p.gain1.Admitted - p.gain0.Admitted)
	d := a + float64(p.gain1.Rejected-p.gain0.Rejected)
	if d == 0 {
		return 0
	}
	return a / d
}

// sameOutcomes is the fidelity guard between the untraced and the traced
// pass: the admit ratio and the share of each reject code must agree.
func sameOutcomes(u, p *pass) error {
	if math.Abs(u.admitRatio()-p.admitRatio()) > 0.01 {
		return fmt.Errorf("admit ratio %.4f untraced, %.4f traced", u.admitRatio(), p.admitRatio())
	}
	share := func(m map[slice.RejectCode]int) map[slice.RejectCode]float64 {
		n := 0
		for _, c := range m {
			n += c
		}
		out := make(map[slice.RejectCode]float64, len(m))
		for k, c := range m {
			out[k] = float64(c) / float64(n)
		}
		return out
	}
	us, ts := share(u.rejects), share(p.rejects)
	if len(us) != len(ts) {
		return fmt.Errorf("reject codes %v untraced, %v traced", u.rejects, p.rejects)
	}
	for k, v := range us {
		if w, ok := ts[k]; !ok || math.Abs(v-w) > 0.01 {
			return fmt.Errorf("reject codes %v untraced, %v traced", u.rejects, p.rejects)
		}
	}
	return nil
}
