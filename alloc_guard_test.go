package overbook

import (
	"testing"

	"repro/internal/core"
	"repro/internal/slice"
)

// TestAdmitAllocCeiling pins the allocation budget of the full admit →
// install → delete cycle. The cycle runs in ~70 allocs/op with every grant
// and grant list freshly allocated; the ceiling leaves slack for map-growth
// jitter but fails loudly if the hot path regresses — revisit the number
// only alongside a deliberate hot-path change.
func TestAdmitAllocCeiling(t *testing.T) {
	const ceiling = 90
	cfg := core.Config{
		Overbook:            true,
		Risk:                0.9,
		AdmissionLoadFactor: 0.5,
		PLMNLimit:           4096,
		HistoryLimit:        256,
		Shards:              16,
	}
	sys, err := NewLive(Options{
		Orchestrator: &cfg,
		Testbed: TestbedConfig{
			ENBs: 4, MaxPLMNs: 4096, CoreHosts: 32, EdgeHosts: 16,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	req := benchReq(0)
	req.SLA.ThroughputMbps = 2
	// Warm the caches on the cycle.
	for i := 0; i < 8; i++ {
		sl, err := sys.Orchestrator.Submit(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sl.State() == slice.StateRejected {
			t.Fatalf("admit guard request rejected: %s", sl.Reason())
		}
		if err := sys.Orchestrator.Delete(sl.ID()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		sl, err := sys.Orchestrator.Submit(req, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if sl.State() == slice.StateRejected {
			t.Errorf("admit guard request rejected: %s", sl.Reason())
			return
		}
		if err := sys.Orchestrator.Delete(sl.ID()); err != nil {
			t.Error(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("admit cycle allocates %.1f allocs/op, ceiling %d", allocs, ceiling)
	}
}
