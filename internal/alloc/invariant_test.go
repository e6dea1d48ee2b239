package alloc

import (
	"testing"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
)

// TestPolicyInvariantsOnRandomSnapshots checks, for every policy over 50
// seeded random snapshots: allocated nodes are monitored livehosts, the
// reserved process total equals the request, and every chosen node hosts
// at least one process.
func TestPolicyInvariantsOnRandomSnapshots(t *testing.T) {
	rnd := rng.New(0xBEEF)
	successes := 0
	for trial := 0; trial < 50; trial++ {
		snap := randomSnapshot(rnd, 2+rnd.Intn(23), true)
		live := map[int]bool{}
		for _, id := range MonitoredLivehosts(snap) {
			live[id] = true
		}
		req := Request{Procs: 1 + rnd.Intn(32), Alpha: 0.5, Beta: 0.5}
		if rnd.Bool(0.3) {
			req.PPN = 1 + rnd.Intn(4)
		}
		for _, pol := range allPolicies() {
			a, err := Allocate(pol, snap, req, rnd.Split())
			if err != nil {
				continue // e.g. no pairwise data, cluster too small
			}
			successes++
			for _, node := range a.Nodes {
				if !live[node] {
					t.Fatalf("trial %d %s: node %d allocated but not a monitored livehost", trial, pol.Name(), node)
				}
				if a.Procs[node] < 1 {
					t.Fatalf("trial %d %s: node %d assigned %d procs", trial, pol.Name(), node, a.Procs[node])
				}
			}
			if got := a.TotalProcs(); got != req.Procs {
				t.Fatalf("trial %d %s: reserved %d procs, requested %d", trial, pol.Name(), got, req.Procs)
			}
			if len(a.Nodes) != len(a.Procs) {
				t.Fatalf("trial %d %s: %d nodes vs %d proc entries", trial, pol.Name(), len(a.Nodes), len(a.Procs))
			}
		}
	}
	if successes < 100 {
		t.Fatalf("only %d successful allocations across all trials; generator too hostile", successes)
	}
}

// TestEffectiveProcsBounds fuzzes Equation 3 over adversarial inputs:
// the slot estimate must stay within [1, max(cores,1)] and a positive
// PPN override must always win.
func TestEffectiveProcsBounds(t *testing.T) {
	rnd := rng.New(7)
	for i := 0; i < 2000; i++ {
		cores := rnd.Intn(24) - 4 // includes negative and zero
		load := rnd.Float64()*40 - 2
		na := metrics.NodeAttrs{Cores: cores, CPULoad: stats.Windowed{M1: load}}
		got := EffectiveProcs(na, 0)
		maxSlots := cores
		if maxSlots < 1 {
			maxSlots = 1
		}
		if got < 1 || got > maxSlots {
			t.Fatalf("EffectiveProcs(cores=%d, load=%v) = %d, want within [1,%d]", cores, load, got, maxSlots)
		}
		ppn := 1 + rnd.Intn(8)
		if p := EffectiveProcs(na, ppn); p != ppn {
			t.Fatalf("ppn override: got %d want %d", p, ppn)
		}
	}
}
