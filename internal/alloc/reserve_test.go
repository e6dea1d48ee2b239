package alloc

import (
	"math"
	"testing"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
)

// TestChargedGuardsZeroCores is the Equation-1 edge-case regression: a
// node publishing Cores == 0 used to price its occupancy share at +Inf
// (or NaN for an empty claim), poisoning every attribute fed into the
// SAW matrix. The guard treats such a node as single-core, like
// Equation 3's effProcs does.
func TestChargedGuardsZeroCores(t *testing.T) {
	snap := synthSnapshot(uniformLoads(3, 0.5))
	broken := snap.Nodes[1]
	broken.Cores = 0
	snap.Nodes[1] = broken

	p := NewReservingPolicy(LoadAware{}, time.Minute)
	cancel := p.Reserve(map[int]int{0: 4, 1: 4, 2: 4}, snap.Taken)
	defer cancel()

	charged := p.Charged(snap)
	if charged == snap {
		t.Fatal("live reservation did not produce a charged copy")
	}
	for id := 0; id < 3; id++ {
		na := charged.Nodes[id]
		if math.IsInf(na.CPUUtilPct.M1, 0) || math.IsNaN(na.CPUUtilPct.M1) {
			t.Fatalf("node %d utilization poisoned: %v", id, na.CPUUtilPct.M1)
		}
		// The mutated attrs must actually land in charged.Nodes: load
		// rises by the reserved ranks on every window.
		if got, want := na.CPULoad.M1, 0.5+4; got != want {
			t.Fatalf("node %d charged load %g, want %g", id, got, want)
		}
		if na.CPULoad.M15 != 0.5+4 {
			t.Fatalf("node %d M15 not written back: %g", id, na.CPULoad.M15)
		}
	}
	// Zero-core node: 4 ranks on 1 assumed core want +400% but clamp at
	// the 100% ceiling.
	if got := charged.Nodes[1].CPUUtilPct.M1; got != 100 {
		t.Fatalf("zero-core node utilization %g, want clamped 100", got)
	}
	// Equation 1 must stay finite over the charged snapshot.
	cl, err := ComputeLoads(charged, []int{0, 1, 2}, PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range cl {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("CL[%d] = %v on charged snapshot", id, v)
		}
	}
}

// TestReservationExpiryStaleSnapshot is the clock-skew regression: a
// degraded or stale-read snapshot carries an old (or zero) Taken, and
// `snap.Taken.Sub(res.at) < TTL` then held forever — reservations became
// immortal the moment the store served one stale value. Pruning is now
// bounded by the latest clock ever seen.
func TestReservationExpiryStaleSnapshot(t *testing.T) {
	fresh := synthSnapshot(uniformLoads(4, 0.5))
	p := NewReservingPolicy(LoadAware{}, time.Minute)
	r := rng.New(3)
	if _, err := Allocate(p, fresh, Request{Procs: 8, PPN: 4}, r.Split()); err != nil {
		t.Fatal(err)
	}
	if got := p.Outstanding(fresh.Taken); got != 1 {
		t.Fatalf("outstanding %d", got)
	}

	// The monitor's clock advances past the TTL...
	later := fresh.Clone()
	later.Taken = fresh.Taken.Add(2 * time.Minute)
	if got := p.Charged(later); got != later {
		t.Fatal("expired reservation still charged at the fresh clock")
	}

	// ...and a subsequent stale read hands back the original snapshot
	// (old Taken) — with the old arithmetic this resurrected nothing but
	// kept anything recorded after it alive forever. Re-record and prune
	// through a stale view to prove expiry still works.
	if _, err := Allocate(p, later, Request{Procs: 8, PPN: 4}, r.Split()); err != nil {
		t.Fatal(err)
	}
	stale := fresh.Clone() // Taken == t0 again, 2 minutes in the past
	if got := p.Charged(stale); got == stale {
		t.Fatal("live reservation invisible through a stale snapshot")
	}
	expired := fresh.Clone()
	expired.Taken = later.Taken.Add(2 * time.Minute)
	if got := p.Charged(expired); got != expired {
		t.Fatal("reservation immortal after stale-read rewind")
	}
	if got := p.Outstanding(fresh.Taken); got != 0 {
		t.Fatalf("outstanding through stale clock %d, want 0 (seen clock governs)", got)
	}
}

// TestZeroTakenSnapshotCannotPinReservations covers the degraded path
// where a snapshot arrives with a zero Taken: recording against it must
// stamp the reservation at the latest seen clock, not at the epoch
// (which would make it instantly expired — or immortal under the old
// subtraction, depending on direction).
func TestZeroTakenSnapshotCannotPinReservations(t *testing.T) {
	fresh := synthSnapshot(uniformLoads(4, 0.5))
	p := NewReservingPolicy(LoadAware{}, time.Minute)
	if p.Charged(fresh) != fresh {
		t.Fatal("no reservations yet")
	}
	zero := fresh.Clone()
	zero.Taken = time.Time{}
	p.Reserve(map[int]int{0: 2}, zero.Taken)
	// Stamped at the seen clock (fresh.Taken), so it is alive now...
	if got := p.Outstanding(fresh.Taken); got != 1 {
		t.Fatalf("outstanding %d, want 1", got)
	}
	// ...and dead after TTL.
	if got := p.Outstanding(fresh.Taken.Add(90 * time.Second)); got != 0 {
		t.Fatalf("outstanding after TTL %d, want 0", got)
	}
}

// TestReserveCancelReleasesClaim verifies the external-reservation API
// used for backfill shadow reservations: the claim is charged while
// live and vanishes on cancel.
func TestReserveCancelReleasesClaim(t *testing.T) {
	snap := synthSnapshot(uniformLoads(4, 0.5))
	p := NewReservingPolicy(LoadAware{}, time.Minute)
	cancel := p.Reserve(map[int]int{2: 6}, snap.Taken)
	charged := p.Charged(snap)
	if charged == snap || charged.Nodes[2].CPULoad.M1 != 6.5 {
		t.Fatalf("shadow claim not charged: %+v", charged.Nodes[2].CPULoad)
	}
	cancel()
	if got := p.Charged(snap); got != snap {
		t.Fatal("cancelled claim still charged")
	}
	if got := p.Outstanding(snap.Taken); got != 0 {
		t.Fatalf("outstanding after cancel %d", got)
	}
}

// TestNodeFreeSlots pins the non-wrapping free-capacity reading against
// Equation 3's wrap-around.
func TestNodeFreeSlots(t *testing.T) {
	mk := func(cores int, load float64) metrics.NodeAttrs {
		na := metrics.NodeAttrs{Cores: cores}
		na.CPULoad = stats.Windowed{M1: load}
		return na
	}
	cases := []struct {
		cores int
		load  float64
		want  int
	}{
		{12, 0, 12},
		{12, 3.2, 8},
		{12, 11.5, 0},
		{12, 12, 0},  // saturated: EffectiveProcs would wrap to 12
		{12, 25, 0},  // oversubscribed
		{12, -1, 12}, // negative load clamps to idle
		{0, 3, 0},    // no published cores: one assumed core, busy
		{0, 0, 1},    // no published cores, idle
	}
	for _, c := range cases {
		if got := NodeFreeSlots(mk(c.cores, c.load)); got != c.want {
			t.Fatalf("NodeFreeSlots(cores=%d, load=%g) = %d, want %d", c.cores, c.load, got, c.want)
		}
	}
	// Saturated node under Equation 3 reports full capacity — the wrap
	// the aggregate reading must avoid.
	if got := EffectiveProcs(mk(12, 12), 0); got != 12 {
		t.Fatalf("EffectiveProcs wrap changed: %d", got)
	}
}

// TestFreeSlotsAggregates sums over monitored livehosts only.
func TestFreeSlotsAggregates(t *testing.T) {
	snap := synthSnapshot([]float64{0, 3.2, 12})
	// 12 + 8 + 0 idle slots on 12-core nodes.
	if got := FreeSlots(snap); got != 20 {
		t.Fatalf("FreeSlots = %d, want 20", got)
	}
	snap.Livehosts = []int{0, 2, 99} // 99 unmonitored, 1 dead
	if got := FreeSlots(snap); got != 12 {
		t.Fatalf("FreeSlots after livehost filter = %d, want 12", got)
	}
}

// TestChargedPrunesSaturatedNodes is the Equation-3 wrap regression on
// the reservation path: once charging leaves a node without a single
// free slot, EffectiveProcs' modulo would report it freshly empty and
// the inner policy's fill step would happily pile more ranks onto it.
// Charging must instead drop such nodes from the copy's universe.
func TestChargedPrunesSaturatedNodes(t *testing.T) {
	snap := synthSnapshot([]float64{12.5, 0.5, 0.5, 0.5}) // node 0 saturated
	p := NewReservingPolicy(LoadAware{}, time.Minute)
	cancel := p.Reserve(map[int]int{1: 2}, snap.Taken)
	defer cancel()

	charged := p.Charged(snap)
	if charged == snap {
		t.Fatal("live reservation did not produce a charged copy")
	}
	for _, id := range charged.Livehosts {
		if id == 0 {
			t.Fatalf("saturated node 0 kept in charged livehosts %v", charged.Livehosts)
		}
	}
	if len(charged.Livehosts) != 3 {
		t.Fatalf("charged livehosts %v, want nodes 1-3", charged.Livehosts)
	}
	// The original snapshot is untouched.
	if len(snap.Livehosts) != 4 {
		t.Fatalf("caller snapshot mutated: %v", snap.Livehosts)
	}
	// And an allocation through the policy steers clear of the node.
	r := rng.New(11)
	a, err := Allocate(p, snap, Request{Procs: 24, PPN: 12}, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range a.Nodes {
		if n == 0 {
			t.Fatalf("allocation %v used the saturated node", a.Nodes)
		}
	}
}

// TestChargedKeepsUniverseWhenAllSaturated: when pruning would empty the
// universe entirely, the full node set is kept — an oversubscribed
// allocation still beats failing with "no live monitored nodes".
func TestChargedKeepsUniverseWhenAllSaturated(t *testing.T) {
	snap := synthSnapshot(uniformLoads(3, 0.5))
	p := NewReservingPolicy(LoadAware{}, time.Minute)
	cancel := p.Reserve(map[int]int{0: 12, 1: 12, 2: 12}, snap.Taken)
	defer cancel()

	charged := p.Charged(snap)
	if len(charged.Livehosts) != 3 {
		t.Fatalf("all-saturated universe pruned to %v", charged.Livehosts)
	}
	r := rng.New(12)
	if _, err := Allocate(p, snap, Request{Procs: 6, PPN: 6}, r.Split()); err != nil {
		t.Fatalf("allocation on saturated cluster failed: %v", err)
	}
}

// TestChargedKeepsUniverseWhenOnlyUnmonitoredSurvive: a livehost without
// a node record passes the saturation prune but can never be allocated,
// so it must not count as a survivor — with every monitored node
// saturated the universe stays whole and the inner policy oversubscribes
// instead of failing with "no live monitored nodes".
func TestChargedKeepsUniverseWhenOnlyUnmonitoredSurvive(t *testing.T) {
	snap := synthSnapshot(uniformLoads(3, 0.5))
	snap.Livehosts = append(snap.Livehosts, 99) // alive, no NodeStateD record yet
	p := NewReservingPolicy(LoadAware{}, time.Minute)
	cancel := p.Reserve(map[int]int{0: 12, 1: 12, 2: 12}, snap.Taken)
	defer cancel()

	charged := p.Charged(snap)
	if len(charged.Livehosts) != 4 {
		t.Fatalf("universe pruned to %v with only an unmonitored survivor", charged.Livehosts)
	}
	r := rng.New(12)
	if _, err := Allocate(p, snap, Request{Procs: 6, PPN: 6}, r.Split()); err != nil {
		t.Fatalf("allocation on saturated cluster failed: %v", err)
	}
}
