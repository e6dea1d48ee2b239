package alloc

import (
	"fmt"
	"math"
	"testing"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
)

// TestAllocateConstrainedMatchesExplainModel proves the scratch-reusing
// constrained seam is the same heuristic: with every node as a start and
// the model's own Equation 3 capacities, the winner matches
// AllocateExplainModel's bit for bit — selection, order, counts, and
// cost floats — across seeded random snapshots and request shapes.
func TestAllocateConstrainedMatchesExplainModel(t *testing.T) {
	p := NetLoadAware{}
	var sc AllocScratch
	for seed := uint64(1); seed <= 16; seed++ {
		r := rng.New(seed * 104729)
		n := 4 + r.Intn(29)
		snap := randomEquivSnapshot(r, n)
		req := Request{
			Procs: 1 + r.Intn(4*n),
			Alpha: 0.5, Beta: 0.5,
		}
		if r.Bool(0.5) {
			req.PPN = 1 + r.Intn(8)
		}
		vreq, err := req.Validate()
		if err != nil {
			t.Fatal(err)
		}
		m := NewCostModel(snap, vreq.Weights, vreq.UseForecast)
		want, _, err := p.AllocateExplainModel(m, req)
		if err != nil {
			t.Fatalf("seed %d: explain: %v", seed, err)
		}
		got, err := p.AllocateConstrained(m, req, m.caps(vreq), nil, &sc)
		if err != nil {
			t.Fatalf("seed %d: constrained: %v", seed, err)
		}
		if m.IDs[got.Start] != want.Start {
			t.Fatalf("seed %d: start %d != %d", seed, m.IDs[got.Start], want.Start)
		}
		if got.ComputeCost != want.ComputeCost || got.NetworkCost != want.NetworkCost || got.TotalLoad != want.TotalLoad {
			t.Fatalf("seed %d: costs (%g,%g,%g) != (%g,%g,%g)", seed,
				got.ComputeCost, got.NetworkCost, got.TotalLoad,
				want.ComputeCost, want.NetworkCost, want.TotalLoad)
		}
		if len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("seed %d: %d nodes != %d", seed, len(got.Nodes), len(want.Nodes))
		}
		for k, i := range got.Nodes {
			id := m.IDs[i]
			if id != want.Nodes[k] {
				t.Fatalf("seed %d: node %d is %d, want %d", seed, k, id, want.Nodes[k])
			}
			if got.Counts[k] != want.Procs[id] {
				t.Fatalf("seed %d: node %d count %d, want %d", seed, k, got.Counts[k], want.Procs[id])
			}
		}
	}
}

// TestAllocateConstrainedBoundedStarts checks the k-seeded mode: the
// winner comes from the given starts, capacity-zero nodes are never
// selected, and the full request is placed.
func TestAllocateConstrainedBoundedStarts(t *testing.T) {
	p := NetLoadAware{}
	r := rng.New(42)
	snap := randomEquivSnapshot(r, 24)
	req := Request{Procs: 16, PPN: 4, Alpha: 0.5, Beta: 0.5}
	vreq, _ := req.Validate()
	m := NewCostModel(snap, vreq.Weights, vreq.UseForecast)
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

// TestChargeRanksAgainstRebuild pins CostModel.ChargeRanksAt (the
// attribute-row form) to its definition, ChargeRanks, applied through
// the reference snapshot-variant + full-rebuild path
// (ReservingPolicy.Charged + NewLike). The two coincide only when the
// per-window clamp semantics cannot diverge — uniform load/util windows,
// utilization far from 100, and enough cores that no node saturates out
// of the livehost set — so the test pins the snapshot to that regime and
// then demands agreement to float tolerance (the paths associate the
// same arithmetic differently, so bit-equality is not expected). The
// forecast row prices Equation 1's CPU-load column from the published
// forecast on every node: the charge must land there too, on both paths.
// cand is the second dimension: nil prices every row, a strict subset
// (the branch the simulator and bench/ run) prices only its own rows and
// leaves the rest stale by contract, so only priced rows are compared.
func TestChargeRanksAgainstRebuild(t *testing.T) {
	for _, forecast := range []bool{false, true} {
		t.Run(fmt.Sprintf("forecast=%v", forecast), func(t *testing.T) {
			r := rng.New(7)
			snap := randomEquivSnapshot(r, 16)
			for id, na := range snap.Nodes {
				na.Cores = 32
				na.CPULoad.M5, na.CPULoad.M15 = na.CPULoad.M1, na.CPULoad.M1
				util := math.Min(na.CPUUtilPct.M1, 50)
				na.CPUUtilPct.M1, na.CPUUtilPct.M5, na.CPUUtilPct.M15 = util, util, util
				if forecast {
					na.CPULoadForecast = &metrics.Forecast{Value: na.CPULoad.M1 + 0.25, Method: "ar"}
				}
				snap.Nodes[id] = na
			}
			m := NewCostModel(snap, PaperWeights(), forecast)
			if m.CLErr() != nil {
				t.Fatal(m.CLErr())
			}
			ids := []int{m.IDs[2], m.IDs[5]}
			ranks := []int{8, 4}

			// Reference: the generic snapshot-level path.
			rp := NewReservingPolicy(NetLoadAware{}, time.Minute)
			rp.Reserve(map[int]int{ids[0]: 8, ids[1]: 4}, snap.Taken)
			charged := rp.Charged(snap)
			if charged == snap {
				t.Fatal("reference Charged returned the base snapshot")
			}
			want := m.NewLike(charged, m.Weights, m.Forecast)
			// The charge went onto copies: the base snapshot's forecasts
			// are shared with every other reader.
			for _, id := range ids {
				if f := snap.Nodes[id].CPULoadForecast; forecast && f.Value != snap.Nodes[id].CPULoad.M1+0.25 {
					t.Fatalf("node %d: charging wrote through the shared forecast (%g)", id, f.Value)
				}
			}

			all := make([]int, m.Len())
			for i := range all {
				all[i] = i
			}
			for _, tc := range []struct {
				name         string
				cand, priced []int
			}{
				{"cand=nil", nil, all},
				{"cand=subset", []int{1, 2, 5, 9, 12}, []int{1, 2, 5, 9, 12}},
			} {
				t.Run(tc.name, func(t *testing.T) {
					dst := &CostModel{}
					got, ok := m.ChargeRanksAt(ids, ranks, tc.cand, dst)
					if !ok {
						t.Fatal("ChargeRanksAt refused")
					}
					for k, id := range ids {
						i, _ := m.IndexOf(id)
						if got.CL[i] <= m.CL[i] {
							t.Fatalf("charged node %d did not get more expensive: %g <= %g", id, got.CL[i], m.CL[i])
						}
						if got.LoadM1[i] != m.LoadM1[i]+float64(ranks[k]) {
							t.Fatalf("charged node %d LoadM1 %g, base %g", id, got.LoadM1[i], m.LoadM1[i])
						}
					}
					for _, i := range tc.priced {
						gl, wl := got.attrRows[i][attrColCPULoad], want.attrRows[i][attrColCPULoad]
						if d := math.Abs(gl - wl); d > 1e-9*(1+math.Abs(wl)) {
							t.Fatalf("node %d CPU-load column: row-level %g vs rebuild %g", m.IDs[i], gl, wl)
						}
						if d := math.Abs(got.CL[i] - want.CL[i]); d > 1e-9*(1+math.Abs(want.CL[i])) {
							t.Fatalf("CL[%d]: row-level %g vs rebuild %g (Δ %g)", i, got.CL[i], want.CL[i], d)
						}
						if d := math.Abs(got.CLUnit[i] - want.CLUnit[i]); d > 1e-9*(1+math.Abs(want.CLUnit[i])) {
							t.Fatalf("CLUnit[%d]: row-level %g vs rebuild %g (Δ %g)", i, got.CLUnit[i], want.CLUnit[i], d)
						}
					}

					// Determinism: repeat into the same dst.
					first := append([]float64(nil), got.CL...)
					again, ok := m.ChargeRanksAt(ids, ranks, tc.cand, dst)
					if !ok {
						t.Fatal("repeat ChargeRanksAt refused")
					}
					for _, i := range tc.priced {
						if again.CL[i] != first[i] {
							t.Fatalf("repeat charge diverged at %d", i)
						}
					}
				})
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
			snap := randomEquivSnapshot(r, 12)
			m := NewCostModel(snap, PaperWeights(), false)
			rp := NewReservingPolicy(NetLoadAware{}, 30*time.Second)
			dst := &CostModel{}

			now := snap.Taken
			if got, ok := rp.ChargedModelAt(now, m, cand, dst); !ok || got != m {
				t.Fatalf("empty policy: got %p ok=%v, want base pass-through", got, ok)
			}

			cancel := rp.Reserve(map[int]int{m.IDs[0]: 6}, now)
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

			rp.Reserve(map[int]int{m.IDs[1]: 2}, now)
			if got, ok := rp.ChargedModelAt(now.Add(31*time.Second), m, cand, dst); !ok || got != m {
				t.Fatalf("after TTL: got charged=%v ok=%v, want pass-through", got != m, ok)
			}
		})
	}
}
