package netmodel

import (
	"testing"
	"time"

	"nlarm/internal/topology"
)

func testNet(t *testing.T) *Network {
	t.Helper()
	topo, err := topology.New(topology.DefaultIITK())
	if err != nil {
		t.Fatal(err)
	}
	return New(topo, Config{JitterSigma: 1e-9}, 42) // near-zero jitter for exact assertions
}

func TestIdleBandwidthNearCapacity(t *testing.T) {
	n := testNet(t)
	bw := n.AvailBandwidthBps(0, 1) // same switch
	if bw < 0.9*topology.GigabitBps || bw > 1.2*topology.GigabitBps {
		t.Fatalf("idle same-switch bandwidth %g", bw)
	}
}

func TestHopDegradationShowsInIdlePeak(t *testing.T) {
	n := testNet(t)
	near := n.PeakBandwidthBps(0, 1) // 1 hop
	far := n.PeakBandwidthBps(0, 59) // 4 hops
	mid := n.PeakBandwidthBps(0, 16) // 2 hops
	if !(far < mid && mid < near) {
		t.Fatalf("peak bandwidth not hop-ordered: 1h=%g 2h=%g 4h=%g", near, mid, far)
	}
	// Default HopFactor 0.88: 4 hops = 0.88^3 ≈ 0.68 of capacity.
	if ratio := far / near; ratio < 0.6 || ratio > 0.8 {
		t.Fatalf("4-hop degradation ratio %g", ratio)
	}
}

func TestContentionReducesBandwidth(t *testing.T) {
	n := testNet(t)
	before := n.AvailBandwidthBps(0, 1)
	// Saturate node 1's edge link with a background flow.
	n.Update(time.Second, []Flow{{Src: 1, Dst: 2, RateBps: 100e6, Owner: BackgroundOwner}})
	after := n.AvailBandwidthBps(0, 1)
	if after >= before {
		t.Fatalf("bandwidth did not drop under contention: %g -> %g", before, after)
	}
	if after > 30e6 {
		t.Fatalf("100MB/s of contention left %g available on a GigE link", after)
	}
}

func TestMinShareFloor(t *testing.T) {
	n := testNet(t)
	// Overload far beyond capacity.
	n.Update(time.Second, []Flow{{Src: 1, Dst: 2, RateBps: 500e6}})
	bw := n.AvailBandwidthBps(0, 1)
	if bw <= 0 {
		t.Fatalf("available bandwidth collapsed to %g; MinShareFrac floor should hold", bw)
	}
}

func TestOwnerExclusion(t *testing.T) {
	n := testNet(t)
	n.Update(time.Second, []Flow{
		{Src: 0, Dst: 1, RateBps: 80e6, Owner: 7},
		{Src: 1, Dst: 2, RateBps: 10e6, Owner: BackgroundOwner},
	})
	withOwn := n.AvailBandwidthBps(0, 1)
	withoutOwn := n.AvailBandwidthBpsExcl(0, 1, 7)
	if withoutOwn <= withOwn {
		t.Fatalf("excluding own traffic should raise available bandwidth: %g vs %g", withOwn, withoutOwn)
	}
}

func TestTrunkContentionAffectsCrossSwitchOnly(t *testing.T) {
	n := testNet(t)
	// Saturate the 0-1 trunk with traffic between switches 0 and 1 using
	// nodes not under test.
	n.Update(time.Second, []Flow{
		{Src: 2, Dst: 17, RateBps: 90e6},
		{Src: 3, Dst: 18, RateBps: 90e6},
	})
	intra := n.AvailBandwidthBps(0, 1)  // switch 0 internal
	cross := n.AvailBandwidthBps(0, 16) // crosses the loaded trunk
	if cross >= intra {
		t.Fatalf("trunk contention should hit cross-switch pairs: intra %g cross %g", intra, cross)
	}
}

func TestLatencyGrowsWithHopsAndLoad(t *testing.T) {
	n := testNet(t)
	near := n.Latency(0, 1)
	far := n.Latency(0, 59)
	if far <= near {
		t.Fatalf("latency not hop-ordered: %v vs %v", near, far)
	}
	idle := n.Latency(0, 16)
	n.Update(time.Second, []Flow{{Src: 2, Dst: 17, RateBps: 100e6}})
	loaded := n.Latency(0, 16)
	if loaded <= idle {
		t.Fatalf("latency did not grow under load: %v -> %v", idle, loaded)
	}
	// Inflation is capped.
	if loaded > idle*15 {
		t.Fatalf("latency inflation exceeded cap: %v -> %v", idle, loaded)
	}
}

func TestLoopback(t *testing.T) {
	n := testNet(t)
	if lat := n.Latency(5, 5); lat > 10*time.Microsecond {
		t.Fatalf("loopback latency %v", lat)
	}
	if bw := n.AvailBandwidthBps(5, 5); bw < topology.GigabitBps {
		t.Fatalf("loopback bandwidth %g", bw)
	}
}

func TestNodeFlowRate(t *testing.T) {
	n := testNet(t)
	if r := n.NodeFlowRateBps(4); r != 0 {
		t.Fatalf("idle node flow rate %g", r)
	}
	n.Update(time.Second, []Flow{
		{Src: 4, Dst: 9, RateBps: 30e6},
		{Src: 2, Dst: 4, RateBps: 20e6},
	})
	if r := n.NodeFlowRateBps(4); r != 50e6 {
		t.Fatalf("node flow rate %g, want 50e6 (both directions charged)", r)
	}
	// Node 7 uninvolved.
	if r := n.NodeFlowRateBps(7); r != 0 {
		t.Fatalf("bystander node flow rate %g", r)
	}
}

func TestExternalFlowLoadsPathToGateway(t *testing.T) {
	n := testNet(t)
	// External flow from a switch-3 node must cross every trunk to the
	// switch-0 gateway.
	n.Update(time.Second, []Flow{{Src: 59, Dst: -1, RateBps: 50e6}})
	if r := n.NodeFlowRateBps(59); r != 50e6 {
		t.Fatalf("external flow not charged at source: %g", r)
	}
	for _, trunk := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if n.links[topology.TrunkLink(trunk[0], trunk[1])].traffic <= 0 {
			t.Fatalf("trunk %v not loaded by external flow", trunk)
		}
	}
}

func TestExternalFlowFromSwitch0OnlyEdge(t *testing.T) {
	n := testNet(t)
	n.Update(time.Second, []Flow{{Src: 0, Dst: -1, RateBps: 40e6}})
	if tr := n.links[topology.TrunkLink(0, 1)].traffic; tr != 0 {
		t.Fatalf("switch-0 external flow loaded trunk 0-1: %g", tr)
	}
}

func TestSelfAndZeroFlowsIgnored(t *testing.T) {
	n := testNet(t)
	n.Update(time.Second, []Flow{
		{Src: 3, Dst: 3, RateBps: 50e6},
		{Src: 4, Dst: 5, RateBps: 0},
		{Src: 4, Dst: 5, RateBps: -10},
	})
	if r := n.NodeFlowRateBps(3) + n.NodeFlowRateBps(4); r != 0 {
		t.Fatalf("degenerate flows charged traffic: %g", r)
	}
}

func TestUpdateReplacesFlows(t *testing.T) {
	n := testNet(t)
	n.Update(time.Second, []Flow{{Src: 0, Dst: 1, RateBps: 50e6}})
	n.Update(time.Second, nil)
	if r := n.NodeFlowRateBps(0); r != 0 {
		t.Fatalf("flows not cleared: %g", r)
	}
}

func TestJitterStaysBounded(t *testing.T) {
	topo, _ := topology.New(topology.DefaultIITK())
	n := New(topo, Config{JitterSigma: 0.5}, 7) // violent jitter
	for i := 0; i < 10000; i++ {
		n.Update(time.Second, nil)
	}
	bw := n.AvailBandwidthBps(0, 1)
	if bw < 0.4*topology.GigabitBps || bw > 1.3*topology.GigabitBps {
		t.Fatalf("jitter escaped clamp: %g", bw)
	}
}

func TestDeterministicJitter(t *testing.T) {
	topo, _ := topology.New(topology.DefaultIITK())
	n1 := New(topo, Config{}, 5)
	n2 := New(topo, Config{}, 5)
	for i := 0; i < 100; i++ {
		n1.Update(time.Second, nil)
		n2.Update(time.Second, nil)
	}
	if n1.AvailBandwidthBps(0, 59) != n2.AvailBandwidthBps(0, 59) {
		t.Fatal("same-seed networks diverged")
	}
}

func TestLatencySoftwareOverheadFloor(t *testing.T) {
	n := testNet(t)
	// 1-hop latency must include per-hop base + software overhead.
	want := 50*time.Microsecond + 30*time.Microsecond
	got := n.Latency(0, 1)
	if got < want || got > want*2 {
		t.Fatalf("1-hop latency %v, want ~%v", got, want)
	}
}

func TestTopologyAccessor(t *testing.T) {
	n := testNet(t)
	if n.topo == nil || n.topo.NumNodes() != 60 {
		t.Fatal("Topology accessor broken")
	}
}

// Property: adding traffic to the network never increases any pair's
// available bandwidth, and availability never exceeds the pair's
// zero-load peak by more than the jitter ceiling.
func TestContentionMonotonicityProperty(t *testing.T) {
	topo, err := topology.New(topology.DefaultIITK())
	if err != nil {
		t.Fatal(err)
	}
	n := New(topo, Config{JitterSigma: 1e-9}, 3)
	pairs := [][2]int{{0, 1}, {0, 16}, {5, 59}, {20, 40}}
	baseline := make([]float64, len(pairs))
	for i, p := range pairs {
		baseline[i] = n.AvailBandwidthBps(p[0], p[1])
		if baseline[i] > n.PeakBandwidthBps(p[0], p[1])*1.2 {
			t.Fatalf("idle avail exceeds peak for %v", p)
		}
	}
	// Add flows one at a time; no pair's availability may rise.
	flows := []Flow{}
	sources := []Flow{
		{Src: 2, Dst: 17, RateBps: 30e6},
		{Src: 3, Dst: 45, RateBps: 50e6},
		{Src: 0, Dst: -1, RateBps: 20e6},
		{Src: 30, Dst: 31, RateBps: 80e6},
	}
	prev := append([]float64(nil), baseline...)
	for _, f := range sources {
		flows = append(flows, f)
		n.Update(0, flows) // dt=0: no jitter movement
		for i, p := range pairs {
			cur := n.AvailBandwidthBps(p[0], p[1])
			if cur > prev[i]+1 { // +1 byte/s numeric slack
				t.Fatalf("adding flow %+v raised avail for %v: %g -> %g", f, p, prev[i], cur)
			}
			prev[i] = cur
		}
	}
}
