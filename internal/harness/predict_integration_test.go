package harness

import (
	"testing"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/apps"
	"nlarm/internal/monitor"
	"nlarm/internal/mpisim"
	"nlarm/internal/predict"
	"nlarm/internal/rng"
)

// TestPredictionTracksSimulation checks the monitoring-data predictor
// against the simulator: the predicted ordering of a good (NLA) vs a bad
// (random) allocation must match the actually-simulated ordering, and
// predictions must land within an order of magnitude of reality (the
// predictor sees a frozen snapshot; the simulation keeps evolving).
func TestPredictionTracksSimulation(t *testing.T) {
	s := smallSession(t, 61)
	snap, err := monitor.ReadSnapshot(s.Store, s.Now())
	if err != nil {
		t.Fatal(err)
	}
	shape := func() *mpisim.Shape {
		sh, err := apps.MiniMD(apps.MiniMDParams{S: 16, Steps: 50}, 8)
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	req := alloc.Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7}
	r := rng.New(3)

	nlaAlloc, err := alloc.Allocate(alloc.NetLoadAware{}, snap, req, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	// Use the worst random draw of a few, to get a clearly bad candidate.
	var worst alloc.Allocation
	var worstPred time.Duration
	for i := 0; i < 5; i++ {
		cand, err := alloc.Allocate(alloc.Random{}, snap, req, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		res, err := predict.EstimateAllocation(snap, shape(), cand.RankNodes())
		if err != nil {
			t.Fatal(err)
		}
		if res.Elapsed > worstPred {
			worstPred = res.Elapsed
			worst = cand
		}
	}

	nlaPred, err := predict.EstimateAllocation(snap, shape(), nlaAlloc.RankNodes())
	if err != nil {
		t.Fatal(err)
	}
	if nlaPred.Elapsed >= worstPred {
		t.Fatalf("predictor does not separate NLA (%v) from bad random (%v)", nlaPred.Elapsed, worstPred)
	}

	// Now run both for real, NLA first, with a gap between.
	nlaActual, err := s.RunJob(shape(), nlaAlloc)
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(time.Minute)
	randActual, err := s.RunJob(shape(), worst)
	if err != nil {
		t.Fatal(err)
	}
	if nlaActual.Elapsed >= randActual.Elapsed {
		t.Fatalf("simulation disagrees with predictor ordering: NLA %v vs random %v",
			nlaActual.Elapsed, randActual.Elapsed)
	}
	// Magnitude sanity: within 10x either way.
	ratio := nlaActual.Elapsed.Seconds() / nlaPred.Elapsed.Seconds()
	if ratio < 0.1 || ratio > 10 {
		t.Fatalf("NLA prediction off by %gx (predicted %v, actual %v)", ratio, nlaPred.Elapsed, nlaActual.Elapsed)
	}
}
