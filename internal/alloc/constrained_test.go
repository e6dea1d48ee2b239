package alloc

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
)

// TestAllocateConstrainedBoundedStarts checks the k-seeded mode: the
// winner comes from the given starts, capacity-zero nodes are never
// selected, and the full request is placed.
func TestAllocateConstrainedBoundedStarts(t *testing.T) {
	p := NetLoadAware{}
	r := rng.New(42)
	snap := randomSnapshot(r, 24, false)
	req := Request{Procs: 16, PPN: 4, Alpha: 0.5, Beta: 0.5}
	vreq, _ := req.Validate()
	m := NewCostModel(snap, vreq.Weights, false)
	caps := make([]int, m.Len())
	for i := range caps {
		if i%3 != 0 {
			caps[i] = 4 // every third node excluded (busy)
		}
	}
	starts := []int{1, 5, 7, 10}
	var sc AllocScratch
	got, err := p.AllocateConstrained(m, req, caps, starts, &sc)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range starts {
		if got.Start == s {
			found = true
		}
	}
	if !found {
		t.Fatalf("winner start %d not among seeds %v", got.Start, starts)
	}
	total := 0
	for k, i := range got.Nodes {
		if i%3 == 0 {
			t.Fatalf("capacity-zero node %d selected", i)
		}
		total += got.Counts[k]
	}
	if total != req.Procs {
		t.Fatalf("placed %d procs, want %d", total, req.Procs)
	}
	// Same inputs, same scratch: byte-stable.
	again, err := p.AllocateConstrained(m, req, caps, starts, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if again.Start != got.Start || again.TotalLoad != got.TotalLoad || len(again.Nodes) != len(got.Nodes) {
		t.Fatalf("repeat call diverged: %+v vs %+v", again, got)
	}
}

// TestRefreshAttrsTouchedColumns holds RefreshAttrs' column stats, which
// re-reduce only the columns a refresh changed, to a full reduction over
// the same rows, bit for bit: a fresh model, a first refresh, then
// randomized sequences mixing charged load
// rising and falling (the simulator's shape), a job finishing on the
// column's maximum, a republish of every dynamic attribute, and a
// refresh that changes no value; last, a refresh of a charged
// destination, whose cache was shifted rather than reduced.
func TestRefreshAttrsTouchedColumns(t *testing.T) {
	r := rng.New(17)
	snap := randomSnapshot(r, 40, false)
	m := NewCostModel(snap, PaperWeights(), false)
	base := snap.Clone()
	committed := map[int]int{}
	check := func(tag string, m *CostModel) {
		t.Helper()
		want := &CostModel{attrRows: m.attrRows}
		want.reduceCols(nil)
		if !sameBits(m.colSums[:], want.colSums[:]) || !sameBits(m.colMaxs[:], want.colMaxs[:]) {
			t.Fatalf("%s: cached sums %v maxima %v, full re-reduction %v %v", tag, m.colSums, m.colMaxs, want.colSums, want.colMaxs)
		}
	}
	refresh := func(tag string, next *metrics.Snapshot, changed []int) {
		t.Helper()
		if !m.RefreshAttrs(next, changed) {
			t.Fatalf("%s: RefreshAttrs refused", tag)
		}
		check(tag, m)
		snap = next
	}
	check("fresh", m)
	refresh("first", snap.Clone(), []int{m.IDs[0]})

	for step := 0; step < 60; step++ {
		next := snap.Clone()
		var changed []int
		switch step % 4 {
		case 0, 1: // ranks committed or released, rebuilt from the base
			for k := 1 + r.Intn(6); k > 0; k-- {
				id := m.IDs[r.Intn(len(m.IDs))]
				committed[id] = max(0, committed[id]+r.Intn(17)-8)
				next.Nodes[id] = ChargeRanks(base.Nodes[id], committed[id])
				changed = append(changed, id)
			}
		case 2: // the most loaded node's job finishes: the maximum falls
			top := m.IDs[0]
			for _, id := range m.IDs {
				if next.Nodes[id].CPULoad.M1 > next.Nodes[top].CPULoad.M1 {
					top = id
				}
			}
			committed[top] = 0
			na := base.Nodes[top]
			na.CPULoad = stats.Windowed{}
			base.Nodes[top] = na
			next.Nodes[top] = na
			changed = append(changed, top)
		case 3: // a republish of every dynamic attribute, and one of nothing
			id := m.IDs[r.Intn(len(m.IDs))]
			mutateDynamicAttrs(r, next, id)
			base.Nodes[id] = next.Nodes[id]
			committed[id] = 0
			changed = append(changed, id, m.IDs[r.Intn(len(m.IDs))])
		}
		refresh(fmt.Sprintf("step %d", step), next, changed)
	}
	refresh("unchanged", snap.Clone(), m.IDs)

	var dst CostModel
	d, ok := m.ChargeRanksAt([]int{m.IDs[3]}, []int{4}, nil, &dst)
	if !ok {
		t.Fatal("ChargeRanksAt refused")
	}
	next := snap.Clone()
	next.Nodes[m.IDs[5]] = ChargeRanks(next.Nodes[m.IDs[5]], 2)
	if !d.RefreshAttrs(next, []int{m.IDs[5]}) {
		t.Fatal("RefreshAttrs refused a charged destination")
	}
	check("charged destination", d)
}

// TestChargeRanksAgainstRebuild holds CostModel.ChargeRanksAt (the
// attribute-row form of the charge) to its definition, ChargeRanks
// applied to the snapshot and priced by the oracle — the hub's charge
// spoke on one fixed snapshot, with NewCostModel's ignored forecast
// argument false and true, and cand nil (every row priced) or a strict
// subset (the branch the simulator and bench/ run; rows outside it are
// stale by contract and not compared).
func TestChargeRanksAgainstRebuild(t *testing.T) {
	snap := randomSnapshot(rng.New(7), 16, false)
	for _, forecast := range []bool{false, true} {
		t.Run(fmt.Sprintf("forecast=%v", forecast), func(t *testing.T) {
			for _, tc := range []struct {
				name string
				cand []int
			}{{"cand=nil", nil}, {"cand=subset", []int{1, 2, 5, 9, 12}}} {
				t.Run(tc.name, func(t *testing.T) { checkCharge(t, snap, forecast, tc.cand) })
			}
		})
	}
}

// TestChargedModelLifecycle drives ReservingPolicy.ChargedModelAt through
// the states the simulator exercises: pass-through with nothing live, a
// charged model while a reservation is live, pass-through again after
// cancel and after TTL expiry — pricing every row (nil cand) and only a
// subset that holds the reserved rows.
func TestChargedModelLifecycle(t *testing.T) {
	for name, cand := range map[string][]int{"cand=nil": nil, "cand=subset": {0, 1, 7}} {
		t.Run(name, func(t *testing.T) {
			r := rng.New(9)
			snap := randomSnapshot(r, 12, false)
			m := NewCostModel(snap, PaperWeights(), false)
			rp := NewReservingPolicy(NetLoadAware{}, 30*time.Second)
			dst := &CostModel{}

			now := snap.Taken
			if got, ok := rp.ChargedModelAt(now, m, cand, dst); !ok || got != m {
				t.Fatalf("empty policy: got %p ok=%v, want base pass-through", got, ok)
			}

			cancel := rp.Reserve([]int{m.IDs[0]}, []int{6}, now)
			got, ok := rp.ChargedModelAt(now, m, cand, dst)
			if !ok || got == m {
				t.Fatalf("live reservation: ok=%v, charged=%v", ok, got != m)
			}
			if got.CL[0] <= m.CL[0] {
				t.Fatalf("reserved node not charged: %g <= %g", got.CL[0], m.CL[0])
			}

			cancel()
			if got, ok := rp.ChargedModelAt(now, m, cand, dst); !ok || got != m {
				t.Fatalf("after cancel: got charged=%v ok=%v, want pass-through", got != m, ok)
			}

			rp.Reserve([]int{m.IDs[1]}, []int{2}, now)
			if got, ok := rp.ChargedModelAt(now.Add(31*time.Second), m, cand, dst); !ok || got != m {
				t.Fatalf("after TTL: got charged=%v ok=%v, want pass-through", got != m, ok)
			}
		})
	}
}

// rackSnapshot builds a seeded snapshot of n nodes (IDs 0..n-1) in racks
// of rack nodes: every pair inside a rack measured at low latency, four
// sampled pairs per pair of racks at higher latency, the rest unmeasured
// (priced at the worst measured) — the policy simulator's topology.
func rackSnapshot(r *rng.Rand, n, rack int) *metrics.Snapshot {
	snap := &metrics.Snapshot{
		Taken:     t0,
		Nodes:     make(map[int]metrics.NodeAttrs, n),
		Latency:   make(map[metrics.PairKey]metrics.PairLatency),
		Bandwidth: make(map[metrics.PairKey]metrics.PairBandwidth),
	}
	addPair := func(u, v int, lat time.Duration, avail float64) {
		k := metrics.Pair(u, v)
		snap.Latency[k] = metrics.PairLatency{U: k.U, V: k.V, Timestamp: t0, Last: lat, Mean1: lat}
		snap.Bandwidth[k] = metrics.PairBandwidth{U: k.U, V: k.V, Timestamp: t0, AvailBps: avail, PeakBps: 125e6}
	}
	for i := 0; i < n; i++ {
		snap.Livehosts = append(snap.Livehosts, i)
		load, util := r.Range(0, 0.5), r.Range(0, 5)
		snap.Nodes[i] = metrics.NodeAttrs{
			NodeID: i, Hostname: fmt.Sprintf("r%04d", i), Timestamp: t0,
			Cores: 8, FreqGHz: r.Range(2.2, 3.2), TotalMemMB: 32768,
			CPULoad:     stats.Windowed{M1: load, M5: load, M15: load},
			CPUUtilPct:  stats.Windowed{M1: util, M5: util, M15: util},
			FlowRateBps: stats.Windowed{M1: r.Range(0, 2e6), M5: 1e6, M15: 1e6},
			AvailMemMB:  stats.Windowed{M1: r.Range(24000, 30000), M5: 27000, M15: 27000},
		}
		for j := i - i%rack; j < i; j++ {
			addPair(j, i, time.Duration(r.Range(60, 140))*time.Microsecond, r.Range(80e6, 120e6))
		}
	}
	for a := 0; a < n; a += rack {
		for b := a + rack; b < n; b += rack {
			for s := 0; s < 4; s++ {
				addPair(a+r.Intn(rack), b+r.Intn(rack), time.Duration(r.Range(300, 700))*time.Microsecond, r.Range(20e6, 50e6))
			}
		}
	}
	return snap
}

// BenchmarkAllocateConstrained times one AllocateConstrainedFree decision
// at the policy simulator's shape: 1,024 nodes in 64-node racks, two
// thirds busy, eight starts (the cheapest free nodes), a request that one
// node covers and one that takes four. `go test -run '^$' -bench
// BenchmarkAllocateConstrained ./internal/alloc`.
func BenchmarkAllocateConstrained(b *testing.B) {
	const n, ppn = 1024, 8
	r := rng.New(1024)
	m := NewCostModel(rackSnapshot(r, n, 64), PaperWeights(), false)
	caps := make([]int, n)
	var free []int
	for i := range caps {
		if r.Bool(1.0 / 3) {
			caps[i] = ppn
			free = append(free, i)
		}
	}
	starts := slices.Clone(free)
	slices.SortStableFunc(starts, func(a, b int) int { return cmp.Compare(m.CLUnit[a], m.CLUnit[b]) })
	starts = starts[:8]
	for _, bc := range []struct {
		name  string
		procs int
	}{{"procs<=ppn", ppn - 2}, {"4-node", 4 * ppn}} {
		b.Run(bc.name, func(b *testing.B) {
			req := Request{Procs: bc.procs, PPN: ppn, Alpha: 0.5, Beta: 0.5}
			var sc AllocScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (NetLoadAware{}).AllocateConstrainedFree(m, req, caps, free, starts, &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
