package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/slice"
	"repro/internal/testbed"
)

// opKind is one kind of client request.
type opKind uint8

const (
	opSubmit   opKind = iota // POST /api/v2/slices with an Idempotency-Key
	opDelete                 // DELETE /api/v2/slices/{id}
	opGetSlice               // GET /api/v2/slices/{id}
	opList                   // GET /api/v2/slices?limit=100, keyset-paged
	opGain                   // GET /api/v1/gain
	opEpoch                  // GET /api/v2/epoch
	opDemand                 // POST /api/v1/slices/{id}/demand
	numOpKinds
)

func (k opKind) isRead() bool {
	return k == opGetSlice || k == opList || k == opGain || k == opEpoch
}

// op is one generated request. Everything but a delete's target comes from
// the seeded schedule; a delete is scheduled when its submit is acked.
type op struct {
	kind opKind
	// due is when the request should be sent, as an offset on the
	// benchmark's monotonic time base.
	due time.Duration
	// seq numbers the arrivals of one schedule (submits derive their
	// Idempotency-Key from it).
	seq int
	// target indexes the preloaded slices (get, demand).
	target int
	// hold is how long after its due time an admitted submit is deleted
	// (0: never deleted).
	hold time.Duration
	// mbps is a demand sample.
	mbps float64
	// id is a delete's slice.
	id slice.ID
}

// mixEntry weights one request kind in a workload's arrival mix.
type mixEntry struct {
	kind   opKind
	weight float64
}

// workload is one traffic mix against one daemon configuration. The
// comments on the workloads below record why each was chosen.
type workload struct {
	name string
	// durable serves from overbook.NewLiveDurable on a fresh data dir;
	// otherwise the daemon is in memory on a paced simulator clock.
	durable bool
	cfg     core.Config
	tb      testbed.Config
	// preload slices of preloadMbps are admitted during set-up; each gets
	// one demand sample when demand is set.
	preload     int
	preloadMbps float64
	demand      bool
	// rate is the open-loop arrival rate (requests per second, deletes
	// not included); mix weights the arrivals.
	rate float64
	mix  []mixEntry
	// contractMbps is the throughput of every submitted contract
	// (50 ms, 1 h, 10 EUR, 1 EUR penalty).
	contractMbps float64
	// holdMean is the mean of the exponential hold before an admitted
	// submit is deleted (0: submits are never deleted).
	holdMean time.Duration
	// epoch is the period at which the benchmark calls RunEpoch.
	epoch time.Duration
	// watch is the watcher's server-side event type filter.
	watch []core.EventType
}

// readmixSlices is the preloaded registry of epoch-readmix; readmixScale
// adds headroom for the submit→delete churn that runs beside it.
const (
	readmixSlices = 4096
	readmixScale  = readmixSlices + 512
)

var workloads = []*workload{
	{
		// HTTP in, durable ack out: every submit and delete waits for its
		// group-commit fsync before the client sees the response. The only
		// workload where the WAL does work. The durable benchmark shape
		// (4 eNBs, 32 core and 16 edge hosts) with 16 carriers per cell,
		// 128-vCPU core hosts and wide links, so no domain binds: the
		// first rejection comes at 864 live slices, far above the ~500
		// that 250 submits/s with a 2 s hold keep alive. Slices die while
		// still installing (~7.7 s), so the epoch has almost nothing to
		// analyze.
		name:    "durable-churn",
		durable: true,
		cfg: core.Config{
			Overbook: true, Risk: 0.9, AdmissionLoadFactor: 0.5,
			PLMNLimit: 4096, HistoryLimit: 256,
		},
		tb: testbed.Config{
			ENBs: 4, ENBCarriers: 16, MaxPLMNs: 4096,
			CoreHosts: 32, CoreHostVCPUs: 128, EdgeHosts: 16,
			MmWaveMbps: 1 << 14, MicroWaveMbps: 1 << 14,
		},
		rate:         250,
		mix:          []mixEntry{{opSubmit, 1}},
		contractMbps: 2,
		holdMean:     2 * time.Second,
		epoch:        time.Second,
		watch:        []core.EventType{core.EventAdmitted, core.EventRejected, core.EventDeleted},
	},
	{
		// The epoch pipeline and the read plane: 4096 active slices, each
		// with a demand sample, re-analyzed every 250 ms while reads page
		// through the registry and demand writes and a thin submit→delete
		// churn contend with the epoch for the same shard locks. No WAL.
		// Testbed scaled like the epoch benchmarks, sized for the preload
		// plus the churn.
		name: "epoch-readmix",
		cfg: core.Config{
			Overbook: true, Risk: 0.9, AdmissionLoadFactor: 0.5,
			PLMNLimit: readmixScale + 8, HistoryLimit: 64,
		},
		tb: testbed.Config{
			ENBs:          2,
			ENBCarriers:   readmixScale/50 + 2,
			MaxPLMNs:      readmixScale + 8,
			CoreHosts:     readmixScale/16 + 8,
			CoreHostVCPUs: 64,
			EdgeHosts:     4,
			MmWaveMbps:    1 << 20,
			MicroWaveMbps: 1 << 20,
			WiredMbps:     1 << 22,
		},
		preload:     readmixSlices,
		preloadMbps: 2,
		demand:      true,
		rate:        400,
		mix: []mixEntry{
			{opList, 0.10}, {opGetSlice, 0.40}, {opGain, 0.10}, {opEpoch, 0.10},
			{opDemand, 0.25}, {opSubmit, 0.05},
		},
		contractMbps: 2,
		holdMean:     2 * time.Second,
		epoch:        250 * time.Millisecond,
		watch: []core.EventType{
			core.EventResized, core.EventViolation, core.EventAdmitted, core.EventRejected,
		},
	},
	{
		// Overload: four single-carrier cells filled with 100 long-lived
		// 1 Mbps slices, where PRB quantization binds before the ledger
		// estimate does. Every submit squeezes the whole registry (about
		// 100 resizes and 100 events) and is then rejected. The registry
		// is sized to expose that cost, not to avoid it.
		name: "squeeze-storm",
		cfg: core.Config{
			Overbook: true, Risk: 0.9, AdmissionLoadFactor: 0.5,
			PLMNLimit: 4096, HistoryLimit: 256,
		},
		tb: testbed.Config{
			ENBs: 4, MaxPLMNs: 4096, CoreHosts: 32, EdgeHosts: 16,
		},
		preload:      100,
		preloadMbps:  1,
		rate:         300,
		mix:          []mixEntry{{opSubmit, 1}},
		contractMbps: 1,
		epoch:        time.Second,
		watch:        []core.EventType{core.EventRejected},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// schedule is a workload's seeded Poisson arrival process. The same seed
// gives the same arrivals, kinds, targets, holds and demand values.
type schedule struct {
	w      *workload
	rng    *rand.Rand
	cum    []float64
	npre   int
	origin time.Duration
	t      time.Duration
	n      int
}

// newSchedule starts a schedule at origin on the benchmark time base;
// npre is the number of preloaded slices reads and demand writes target.
func newSchedule(w *workload, seed int64, npre int, origin time.Duration) *schedule {
	s := &schedule{w: w, rng: rand.New(rand.NewSource(seed)), npre: npre, origin: origin}
	var sum float64
	for _, m := range w.mix {
		sum += m.weight
		s.cum = append(s.cum, sum)
	}
	for i := range s.cum {
		s.cum[i] /= sum
	}
	return s
}

// next returns the next arrival.
func (s *schedule) next() op {
	s.t += time.Duration(s.rng.ExpFloat64() / s.w.rate * float64(time.Second))
	u := s.rng.Float64()
	k := s.w.mix[len(s.w.mix)-1].kind
	for i, c := range s.cum {
		if u < c {
			k = s.w.mix[i].kind
			break
		}
	}
	o := op{kind: k, due: s.origin + s.t, seq: s.n}
	s.n++
	switch k {
	case opSubmit:
		if s.w.holdMean > 0 {
			o.hold = time.Duration(s.rng.ExpFloat64() * float64(s.w.holdMean))
		}
	case opGetSlice:
		o.target = s.rng.Intn(s.npre)
	case opDemand:
		o.target = s.rng.Intn(s.npre)
		o.mbps = 0.5 + 1.5*s.rng.Float64()
	}
	return o
}
