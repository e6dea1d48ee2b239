package alloc

import (
	"fmt"
	"testing"
	"time"

	"nlarm/internal/rng"
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
