package core

import (
	"math"
	"sync/atomic"

	"repro/internal/ctrl"
	"repro/internal/slice"
)

// Feasibility memoization. Admission's per-domain dry runs (chooseDataCenter
// → feasibleAll) are pure functions of (a) the transaction's capacity
// signature and (b) the domain's substrate state. Domains that implement
// ctrl.FeasVersioner expose a monotonic counter covering (b), so an outcome
// observed at version v can be replayed verbatim while the version still
// reads v — an exact cache, never a heuristic. Domains without the
// capability (the RAN dry run is vacuous; chaos Wrap decorators deliberately
// hide it) are simply called every time, which switches memoization off
// under fault injection without any identity branching.
//
// The payoff is asymmetric by design: every successful install mutates the
// substrates and bumps the versions, so admit-heavy traffic sees few hits —
// but a rejection storm leaves the substrates untouched, and every probe
// after the first is a lock-free table read.

// feasSlots is the per-domain direct-mapped table size. Collisions only cost
// a re-computation, never a wrong answer: the full key is compared on probe.
const feasSlots = 64

// feasKey is the capacity signature of a feasibility query — every Tx field
// a Feasible implementation may consult except the slice/PLMN identity,
// which the FeasVersioner contract requires outcomes to be independent of.
type feasKey struct {
	dc     string
	mbps   float64
	budget float64
	sla    slice.SLA
}

// feasEntry is one memoized outcome: the dry-run answer for key observed
// while the domain's feasibility version read ver. The cause pointer is
// shared across every request that hits the entry; RejectionCause values are
// immutable after construction, so sharing is safe.
type feasEntry struct {
	key   feasKey
	ver   uint64
	cause *slice.RejectionCause
}

// feasMemo is one domain's direct-mapped memo table. A nil versioner
// disables it.
type feasMemo struct {
	versioner ctrl.FeasVersioner
	slots     [feasSlots]atomic.Pointer[feasEntry]
}

// newFeasTable builds one memo per engine domain, enabled only where the
// domain advertises the FeasVersioner capability.
func newFeasTable(e txEngine) []feasMemo {
	memos := make([]feasMemo, len(e.all))
	for i, d := range e.all {
		if v, ok := d.(ctrl.FeasVersioner); ok {
			memos[i].versioner = v
		}
	}
	return memos
}

// feasHash maps a key onto a table slot (FNV-1a over the DC name and the
// float bit patterns; written out manually so probing allocates nothing).
func feasHash(k *feasKey) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(k.dc); i++ {
		h = (h ^ uint32(k.dc[i])) * prime32
	}
	mix := func(h uint32, v uint64) uint32 {
		h = (h ^ uint32(v)) * prime32
		return (h ^ uint32(v>>32)) * prime32
	}
	h = mix(h, math.Float64bits(k.mbps))
	h = mix(h, math.Float64bits(k.budget))
	h = mix(h, math.Float64bits(k.sla.ThroughputMbps))
	h = mix(h, math.Float64bits(k.sla.MaxLatencyMs))
	h = mix(h, uint64(k.sla.Duration))
	h = mix(h, uint64(k.sla.Class))
	if k.sla.EdgeCompute {
		h = (h ^ 1) * prime32
	}
	return h
}

// feasibleAll runs every domain's admission dry run against tx in
// acquisition order and returns the first failing domain's cause, memoizing
// per-domain outcomes under their feasibility versions (see the file
// comment). The version is read before and after the dry run and the
// outcome stored only when unchanged, so a mutation racing the dry run can
// never freeze a stale answer under a newer version.
func (o *Orchestrator) feasibleAll(tx ctrl.Tx) *slice.RejectionCause {
	k := feasKey{dc: tx.DataCenter, mbps: tx.Mbps, budget: tx.LatencyBudgetMs, sla: tx.SLA}
	slot := feasHash(&k) & (feasSlots - 1)
	for i, d := range o.domains.all {
		m := &o.feas[i]
		if m.versioner == nil {
			if cause := d.Feasible(tx); cause != nil {
				return cause
			}
			continue
		}
		ver := m.versioner.FeasVersion()
		if e := m.slots[slot].Load(); e != nil && e.ver == ver && e.key == k {
			if e.cause != nil {
				return e.cause
			}
			continue
		}
		cause := d.Feasible(tx)
		if m.versioner.FeasVersion() == ver {
			m.slots[slot].Store(&feasEntry{key: k, ver: ver, cause: cause})
		}
		if cause != nil {
			return cause
		}
	}
	return nil
}
