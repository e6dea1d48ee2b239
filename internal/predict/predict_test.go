package predict

import (
	"testing"
	"time"

	"nlarm/internal/apps"
	"nlarm/internal/metrics"
	"nlarm/internal/mpisim"
	"nlarm/internal/stats"
)

var t0 = time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)

// snap builds a synthetic snapshot: n nodes on a line, latency and
// bandwidth degrading with distance, per-node loads given.
func snap(loads []float64) *metrics.Snapshot {
	n := len(loads)
	s := &metrics.Snapshot{
		Taken:     t0,
		Nodes:     make(map[int]metrics.NodeAttrs),
		Latency:   make(map[metrics.PairKey]metrics.PairLatency),
		Bandwidth: make(map[metrics.PairKey]metrics.PairBandwidth),
	}
	for i := 0; i < n; i++ {
		s.Livehosts = append(s.Livehosts, i)
		na := metrics.NodeAttrs{
			NodeID: i, Hostname: "n", Timestamp: t0,
			Cores: 12, FreqGHz: 4.6, TotalMemMB: 16384,
		}
		na.CPULoad = stats.Windowed{M1: loads[i], M5: loads[i], M15: loads[i]}
		s.Nodes[i] = na
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := float64(j - i)
			key := metrics.Pair(i, j)
			s.Latency[key] = metrics.PairLatency{
				U: i, V: j, Timestamp: t0,
				Mean1: time.Duration(80+100*d) * time.Microsecond,
			}
			s.Bandwidth[key] = metrics.PairBandwidth{
				U: i, V: j, Timestamp: t0,
				AvailBps: 120e6 / d,
				PeakBps:  125e6,
			}
		}
	}
	return s
}

func blockPlacement(t *testing.T, ranks int, nodes []int, ppn int) mpisim.Placement {
	t.Helper()
	p, err := mpisim.NewPlacement(ranks, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEstimateBasic(t *testing.T) {
	s := snap([]float64{0.2, 0.2, 0.2, 0.2})
	shape, err := apps.MiniMD(apps.MiniMDParams{S: 8, Steps: 50}, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Estimate(s, shape, blockPlacement(t, 8, []int{0, 1}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || res.CommTime <= 0 || res.ComputeTime <= 0 {
		t.Fatalf("estimate %+v", res)
	}
}

func TestEstimateSensitivities(t *testing.T) {
	shapeOf := func() *mpisim.Shape {
		sh, err := apps.MiniMD(apps.MiniMDParams{S: 16, Steps: 50}, 8)
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	// Near pair beats far pair (better latency and bandwidth).
	s := snap([]float64{0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2})
	near, err := Estimate(s, shapeOf(), blockPlacement(t, 8, []int{0, 1}, 4))
	if err != nil {
		t.Fatal(err)
	}
	far, err := Estimate(s, shapeOf(), blockPlacement(t, 8, []int{0, 7}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if far.Elapsed <= near.Elapsed {
		t.Fatalf("far pair predicted faster: %v vs %v", near.Elapsed, far.Elapsed)
	}
	// Loaded nodes predicted slower than idle ones.
	loaded := snap([]float64{12, 12, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2})
	busy, err := Estimate(loaded, shapeOf(), blockPlacement(t, 8, []int{0, 1}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if busy.Elapsed <= near.Elapsed {
		t.Fatalf("loaded nodes predicted faster: %v vs %v", near.Elapsed, busy.Elapsed)
	}
}

func TestEstimateUnpublishedNode(t *testing.T) {
	s := snap([]float64{0.2, 0.2})
	shape, _ := apps.MiniMD(apps.MiniMDParams{S: 8, Steps: 10}, 8)
	if _, err := Estimate(s, shape, blockPlacement(t, 8, []int{0, 9}, 4)); err == nil {
		t.Fatal("unpublished node accepted")
	}
}

func TestEstimateUnmeasuredPairIsPessimistic(t *testing.T) {
	s := snap([]float64{0.2, 0.2, 0.2})
	delete(s.Bandwidth, metrics.Pair(0, 1))
	delete(s.Latency, metrics.Pair(0, 1))
	shape, _ := apps.MiniMD(apps.MiniMDParams{S: 8, Steps: 10}, 8)
	unknown, err := Estimate(s, shape, blockPlacement(t, 8, []int{0, 1}, 4))
	if err != nil {
		t.Fatal(err)
	}
	known, err := Estimate(s, shape, blockPlacement(t, 8, []int{1, 2}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if unknown.Elapsed <= known.Elapsed {
		t.Fatal("unmeasured pair not priced pessimistically")
	}
}

func TestEstimateAllocationRejectsShortPlacement(t *testing.T) {
	s := snap([]float64{0.2, 0.2})
	shape, _ := apps.MiniMD(apps.MiniMDParams{S: 8, Steps: 10}, 8)
	if _, err := EstimateAllocation(s, shape, []int{0, 1}); err == nil {
		t.Fatal("2 rank slots accepted for 8 ranks")
	}
}
