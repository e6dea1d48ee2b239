package harness

import (
	"testing"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/apps"
	"nlarm/internal/cluster"
	"nlarm/internal/monitor"
	"nlarm/internal/rng"
	"nlarm/internal/topology"
)

// multiClusterSession builds a 3-cluster deployment (2 switches × 4 nodes
// each) joined by slow WAN links, with full monitoring.
func multiClusterSession(t *testing.T, seed uint64) (*Session, func(int) int) {
	t.Helper()
	mc := topology.MultiClusterConfig{
		Clusters:           3,
		SwitchesPerCluster: 2,
		NodesPerSwitch:     4,
	}
	cl, clusterOf, err := cluster.BuildMultiCluster(mc, 8, 3.0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(SessionConfig{
		Seed:    seed,
		Cluster: cl,
		Monitor: monitor.Config{
			NodeStatePeriod: 2 * time.Second,
			LatencyPeriod:   10 * time.Second,
			BandwidthPeriod: 20 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.WarmUp(time.Minute)
	return s, clusterOf
}

func TestMultiClusterMonitorSeesWANStructure(t *testing.T) {
	s, _ := multiClusterSession(t, 51)
	snap, err := monitor.ReadSnapshot(s.Store, s.Now())
	if err != nil {
		t.Fatal(err)
	}
	// Intra-cluster pair vs cross-cluster pair: the monitor must see the
	// WAN in both latency and bandwidth.
	intraLat, ok1 := snap.LatencyOf(0, 4)
	crossLat, ok2 := snap.LatencyOf(0, 16)
	if !ok1 || !ok2 {
		t.Fatal("pairs unmeasured")
	}
	if crossLat < 10*intraLat {
		t.Fatalf("WAN latency not visible: intra %v cross %v", intraLat, crossLat)
	}
	intraBW, _, _ := snap.BandwidthOf(0, 4)
	crossBW, _, _ := snap.BandwidthOf(0, 16)
	if crossBW >= intraBW {
		t.Fatalf("WAN bandwidth not visible: intra %g cross %g", intraBW, crossBW)
	}
}

func TestExactNLAAlsoAvoidsWAN(t *testing.T) {
	s, clusterOf := multiClusterSession(t, 53)
	snap, err := monitor.ReadSnapshot(s.Store, s.Now())
	if err != nil {
		t.Fatal(err)
	}
	a, err := alloc.Allocate(alloc.NetLoadAware{}, snap, alloc.Request{Procs: 16, PPN: 4, Alpha: 0.3, Beta: 0.7}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	clusters := map[int]bool{}
	for _, n := range a.Nodes {
		clusters[clusterOf(n)] = true
	}
	if len(clusters) != 1 {
		t.Fatalf("exact NLA crossed the WAN: %v", a.Nodes)
	}
}

func TestCrossClusterJobPaysWANPenalty(t *testing.T) {
	s, _ := multiClusterSession(t, 54)
	shape := func() *apps.MiniMDParams { return &apps.MiniMDParams{S: 8, Steps: 30} }

	run := func(nodes []int) float64 {
		sh, err := apps.MiniMD(*shape(), 8)
		if err != nil {
			t.Fatal(err)
		}
		a := alloc.Allocation{Nodes: nodes, Procs: map[int]int{}}
		for _, n := range nodes {
			a.Procs[n] = 4
		}
		res, err := s.RunJob(sh, a)
		if err != nil {
			t.Fatal(err)
		}
		s.Advance(30 * time.Second)
		return res.Elapsed.Seconds()
	}
	within := run([]int{0, 1})  // same switch, cluster 0
	across := run([]int{0, 16}) // cluster 0 and cluster 2 (two WAN links)
	if across < within*3 {
		t.Fatalf("WAN penalty too small: within %gs across %gs", within, across)
	}
}
