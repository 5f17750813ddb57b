package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{19, 0.50, false, 0},
		{20, 0.50, true, 10},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{0, 0.50, false, 0},
	} {
		v, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || v != c.want {
			t.Errorf("percentile(n=%d, %g) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	iv := func(a, b int) interval { return interval{time.Duration(a), time.Duration(b)} }
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(30, 50)}, 70},
		{"overlapping counted once", []interval{iv(10, 40), iv(20, 50), iv(45, 60)}, 50},
		{"nested", []interval{iv(10, 90), iv(20, 30)}, 20},
		{"clipped to the parent", []interval{iv(-50, 10), iv(95, 200)}, 85},
		{"outside the parent", []interval{iv(200, 300)}, 100},
	} {
		if got := selfTime(iv(0, 100), c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	w, err := findWorkload("epoch-readmix")
	if err != nil {
		t.Fatal(err)
	}
	take := func(seed int64) []op {
		s := newSchedule(w, seed, 100, time.Second)
		out := make([]op, 5000)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b := take(7), take(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, take(8)) {
		t.Fatal("different seeds gave the same schedule")
	}
	kinds := make(map[opKind]int)
	for i, o := range a {
		kinds[o.kind]++
		if i > 0 && o.due < a[i-1].due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
	}
	// Poisson arrivals at the workload rate, starting at the origin.
	mean := (a[len(a)-1].due - time.Second).Seconds() / float64(len(a))
	if want := 1 / w.rate; mean < 0.9*want || mean > 1.1*want {
		t.Errorf("mean inter-arrival %.6fs, want about %.6fs", mean, want)
	}
	if got := float64(kinds[opSubmit]) / float64(len(a)); got < 0.03 || got > 0.07 {
		t.Errorf("submit share %.3f, want about 0.05", got)
	}
}

// A request that waits behind a slow one is charged from its due time,
// not from when the generator got to send it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			time.Sleep(50 * time.Millisecond)
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"id":"s-1","state":"rejected","reject_code":"radio_capacity"}`))
	}))
	defer srv.Close()
	w := &workload{name: "co", rate: 1000, mix: []mixEntry{{opSubmit, 1}}}
	base := time.Now()
	r := newRunner(w, &target{w: w, base: srv.URL}, 1, base, 10*time.Millisecond)
	r.openLoop(10*time.Millisecond, 200*time.Millisecond)
	if len(r.failures) > 0 || len(r.results) < 10 {
		t.Fatalf("%d results, failures %v", len(r.results), r.failures)
	}
	first, second := r.results[0], r.results[1]
	if first.latency() < 50*time.Millisecond {
		t.Fatalf("first request latency %v, want at least the 50ms stall", first.latency())
	}
	// The second was due during the stall: its latency includes the wait.
	if want := first.done - second.due; second.latency() < want {
		t.Errorf("second latency %v, want at least %v (due %v, first done %v)", second.latency(), want, second.due, first.done)
	}
	if second.lateness() < first.done-second.due-time.Millisecond {
		t.Errorf("second lateness %v, want the time it waited behind the first", second.lateness())
	}
}
