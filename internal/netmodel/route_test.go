package netmodel

import (
	"math"
	"testing"
	"time"

	"nlarm/internal/rng"
	"nlarm/internal/topology"
)

// routeTopologies are the IITK tree and a three-cluster chain whose WAN
// trunks carry extra latency and a lower capacity.
func routeTopologies(t *testing.T) map[string]*topology.Topology {
	t.Helper()
	mc, err := topology.MultiCluster(topology.MultiClusterConfig{Clusters: 3, SwitchesPerCluster: 2, NodesPerSwitch: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*topology.Topology{}
	for name, cfg := range map[string]topology.Config{"iitk": topology.DefaultIITK(), "multicluster": mc} {
		topo, err := topology.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = topo
	}
	return out
}

func linkIDs(states []*linkState) []topology.LinkID {
	ids := make([]topology.LinkID, len(states))
	for i, ls := range states {
		ids[i] = ls.id
	}
	return ids
}

func sameLinks(a, b []topology.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refCharge is how Update charged flows before routes: a map lookup per
// link of every flow's path. It runs after ref.Update(nil, jitter), which
// resets the traffic and takes the jitter, both per link.
func refCharge(n *Network, flows []Flow) {
	for _, f := range flows {
		if f.RateBps <= 0 || f.Src == f.Dst {
			continue
		}
		var path []topology.LinkID
		if f.Dst < 0 {
			path = n.externalPath(f.Src)
		} else {
			path = n.topo.Path(f.Src, f.Dst)
		}
		for _, l := range path {
			ls := n.links[l]
			ls.traffic += f.RateBps
			if f.Owner != BackgroundOwner {
				ls.byOwner[f.Owner] += f.RateBps
			}
		}
	}
}

// refAvail and refLatency are AvailBandwidthBpsExcl and Latency over map
// lookups of Path's links.
func refAvail(n *Network, u, v, excludeOwner int) float64 {
	if u == v {
		return n.topo.EdgeCapacityBps() * 10
	}
	avail := math.Inf(1)
	for _, l := range n.topo.Path(u, v) {
		if a := n.linkAvail(n.links[l], excludeOwner); a < avail {
			avail = a
		}
	}
	return avail * n.hopDegradation(u, v)
}

func refLatency(n *Network, u, v int) time.Duration {
	if u == v {
		return time.Microsecond
	}
	maxU := 0.0
	for _, l := range n.topo.Path(u, v) {
		ls := n.links[l]
		maxU = math.Max(maxU, math.Min(ls.traffic/ls.cap, 1))
	}
	base := n.topo.BaseLatency(u, v) + n.cfg.SoftwareOverhead
	infl := math.Min(1+n.cfg.QueueFactor*maxU*maxU/math.Max(0.05, 1.02-maxU), n.cfg.MaxLatencyInflation)
	return time.Duration(float64(base) * infl)
}

// Property: every resolved route walks the links of topology.Path (or
// externalPath) in order, and after random flow sets the routed network
// answers every query bit for bit like one charged by map lookups.
func TestRoutesMatchPaths(t *testing.T) {
	for name, topo := range routeTopologies(t) {
		t.Run(name, func(t *testing.T) {
			n, ref := New(topo, Config{}), New(topo, Config{})
			// Each network orders its links its own way; a link's stream
			// depends on its identity alone, so the factors agree per link.
			jn, jref := n.NewJitter(7), ref.NewJitter(7)
			nodes := topo.NumNodes()
			for u := 0; u < nodes; u++ {
				if got, want := linkIDs(n.externalRoute(u)), n.externalPath(u); !sameLinks(got, want) {
					t.Fatalf("external route of %d: %v, path %v", u, got, want)
				}
				for v := 0; v < nodes; v++ {
					if got, want := linkIDs(n.route(u, v)), topo.Path(u, v); !sameLinks(got, want) {
						t.Fatalf("route %d->%d: %v, path %v", u, v, got, want)
					}
				}
			}
			r := rng.New(11)
			for step := 0; step < 5; step++ {
				flows := make([]Flow, 40)
				for i := range flows {
					flows[i] = Flow{Src: r.Intn(nodes), Dst: r.Intn(nodes+3) - 3, RateBps: r.Range(-1e6, 200e6), Owner: r.Intn(4)}
				}
				jn.Step(5 * time.Second)
				jref.Step(5 * time.Second)
				n.Update(flows, jn.Factors())
				ref.Update(nil, jref.Factors())
				refCharge(ref, flows)
				for u := 0; u < nodes; u++ {
					if got, want := n.NodeFlowRateBps(u), ref.NodeFlowRateBps(u); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("step %d: flow rate of %d %v, reference %v", step, u, got, want)
					}
					for v := 0; v < nodes; v++ {
						if got, want := n.Latency(u, v), refLatency(ref, u, v); got != want {
							t.Fatalf("step %d: latency %d->%d %v, reference %v", step, u, v, got, want)
						}
						for owner := 0; owner < 4; owner++ {
							got, want := n.AvailBandwidthBpsExcl(u, v, owner), refAvail(ref, u, v, owner)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("step %d: avail %d->%d excluding %d %v, reference %v", step, u, v, owner, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestUpdateAllocs pins a warmed Update over a fixed flow set, job
// traffic and external flows included, at zero allocations.
func TestUpdateAllocs(t *testing.T) {
	n := testNet(t)
	flows := []Flow{
		{Src: 0, Dst: 59, RateBps: 30e6, Owner: 3},
		{Src: 5, Dst: -1, RateBps: 10e6},
		{Src: 17, Dst: 40, RateBps: 50e6},
		{Src: 40, Dst: 17, RateBps: 20e6, Owner: 4},
		{Src: 2, Dst: 2, RateBps: 1e6},
	}
	j := n.NewJitter(1)
	n.Update(flows, j.Factors())
	if a := testing.AllocsPerRun(100, func() { n.Update(flows, j.Factors()) }); a != 0 {
		t.Fatalf("warmed Update allocates %v times, want 0", a)
	}
}
