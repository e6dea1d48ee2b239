// Package predict estimates how long an MPI job would run on a candidate
// allocation using only the resource monitor's published data — the same
// α-β cost model the simulator executes, but driven by measured node
// attributes and pairwise bandwidth/latency instead of ground truth.
//
// This is the broker-side "what-if" that the paper's cost heuristic
// approximates implicitly: given a candidate node set, Estimate prices
// the actual job on it, so the queue can plan around a predicted
// execution time and predictions can later be compared against reality.
package predict

import (
	"fmt"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/mpisim"
)

// snapshotEnv adapts a monitoring snapshot to mpisim.Env: the prediction
// runs the job against frozen measured conditions.
type snapshotEnv struct {
	snap *metrics.Snapshot
}

func (e snapshotEnv) NodeCores(id int) int { return e.snap.Nodes[id].Cores }

func (e snapshotEnv) NodeFreqGHz(id int) float64 { return e.snap.Nodes[id].FreqGHz }

func (e snapshotEnv) NodeBackgroundLoad(id int, _ int) float64 {
	return e.snap.Nodes[id].CPULoad.M1
}

func (e snapshotEnv) AvailBandwidthBps(u, v int, _ int) float64 {
	if avail, _, ok := e.snap.BandwidthOf(u, v); ok {
		return avail
	}
	return 1 // unmeasured pair: pessimistic, like the allocator's pricing
}

func (e snapshotEnv) Latency(u, v int) time.Duration {
	if lat, ok := e.snap.LatencyOf(u, v); ok {
		return lat
	}
	return time.Second
}

// Estimate prices shape on placement under the snapshot's measured
// conditions and returns the projected result (total, compute and
// communication time). Every placed node must have published state.
func Estimate(snap *metrics.Snapshot, shape *mpisim.Shape, place mpisim.Placement) (mpisim.Result, error) {
	for _, n := range place.NodeOf {
		if _, ok := snap.Nodes[n]; !ok {
			return mpisim.Result{}, fmt.Errorf("predict: node %d has no published state", n)
		}
	}
	j, err := mpisim.NewJob(0, shape, place, snap.Taken)
	if err != nil {
		return mpisim.Result{}, err
	}
	env := snapshotEnv{snap: snap}
	// Conditions are frozen, so the job completes in a bounded number of
	// coarse steps (one, unless the shape is degenerate).
	const maxSteps = 1000
	for i := 0; i < maxSteps; i++ {
		if _, done := j.Advance(env, 24*time.Hour); done {
			return j.Result(), nil
		}
	}
	return mpisim.Result{}, fmt.Errorf("predict: job %q did not converge within %d steps", shape.Name, maxSteps)
}

// EstimateAllocation is Estimate over an allocation's rank slots with the
// given total rank count (block placement, as the broker hands out).
func EstimateAllocation(snap *metrics.Snapshot, shape *mpisim.Shape, rankNodes []int) (mpisim.Result, error) {
	if len(rankNodes) != shape.Ranks {
		return mpisim.Result{}, fmt.Errorf("predict: %d rank slots for %d ranks", len(rankNodes), shape.Ranks)
	}
	return Estimate(snap, shape, mpisim.Placement{NodeOf: rankNodes})
}
