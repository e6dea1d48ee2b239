package cluster

import (
	"strings"
	"testing"

	"nlarm/internal/topology"
)

func TestBuildIITK(t *testing.T) {
	cl, err := BuildIITK()
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 60 {
		t.Fatalf("size = %d, want 60", cl.Size())
	}
	fast, slow := 0, 0
	for _, n := range cl.Nodes {
		switch {
		case n.Cores == 12 && n.FreqGHz == 4.6:
			fast++
		case n.Cores == 8 && n.FreqGHz == 2.8:
			slow++
		default:
			t.Fatalf("unexpected node spec %+v", n)
		}
		if n.TotalMemMB != 16*1024 {
			t.Fatalf("node %s memory %g", n.Hostname, n.TotalMemMB)
		}
	}
	if fast != 40 || slow != 20 {
		t.Fatalf("fast=%d slow=%d, want 40/20 (paper's testbed)", fast, slow)
	}
}

func TestBuildIITKHostnames(t *testing.T) {
	cl, _ := BuildIITK()
	if cl.Nodes[0].Hostname != "csews1" {
		t.Fatalf("first hostname %q", cl.Nodes[0].Hostname)
	}
	if cl.Nodes[59].Hostname != "csews60" {
		t.Fatalf("last hostname %q", cl.Nodes[59].Hostname)
	}
	if spec := cl.Nodes[29]; spec.Hostname != "csews30" || spec.ID != 29 {
		t.Fatalf("node 29 = %+v, want csews30", spec)
	}
}

func TestTotalCoresAndMaxFreq(t *testing.T) {
	cl, _ := BuildIITK()
	cores, maxFreq := 0, 0.0
	for _, n := range cl.Nodes {
		cores += n.Cores
		maxFreq = max(maxFreq, n.FreqGHz)
	}
	if want := 40*12 + 20*8; cores != want {
		t.Fatalf("total cores = %d, want %d", cores, want)
	}
	if maxFreq != 4.6 {
		t.Fatalf("max frequency = %g GHz", maxFreq)
	}
}

func TestBuildUniform(t *testing.T) {
	cl, err := BuildUniform(3, 4, 8, 3.0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 12 {
		t.Fatalf("size = %d", cl.Size())
	}
	if cl.Topo.NumSwitches() != 3 {
		t.Fatalf("switches = %d", cl.Topo.NumSwitches())
	}
	for _, n := range cl.Nodes {
		if n.Cores != 8 || n.FreqGHz != 3.0 || n.TotalMemMB != 8192 {
			t.Fatalf("bad uniform spec %+v", n)
		}
	}
}

func TestBuildUniformSingleSwitch(t *testing.T) {
	cl, err := BuildUniform(1, 6, 4, 2.0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 6 || cl.Topo.NumSwitches() != 1 {
		t.Fatalf("single switch build: %d nodes, %d switches", cl.Size(), cl.Topo.NumSwitches())
	}
}

func TestBuildUniformErrors(t *testing.T) {
	if _, err := BuildUniform(0, 4, 8, 3, 1024); err == nil {
		t.Fatal("zero switches accepted")
	}
	if _, err := BuildUniform(2, 0, 8, 3, 1024); err == nil {
		t.Fatal("zero nodes per switch accepted")
	}
}

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultIITK()
	cfg.NodesPerSwitch = []int{2}
	cfg.SwitchLinks = nil
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNewValidation(t *testing.T) {
	topo := testTopo(t)
	good := []NodeSpec{
		{ID: 0, Hostname: "a", Cores: 4, FreqGHz: 2, TotalMemMB: 1024},
		{ID: 1, Hostname: "b", Cores: 4, FreqGHz: 2, TotalMemMB: 1024},
	}
	if _, err := New(topo, good); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func([]NodeSpec)) []NodeSpec {
		specs := make([]NodeSpec, len(good))
		copy(specs, good)
		f(specs)
		return specs
	}
	cases := map[string][]NodeSpec{
		"wrong count":    good[:1],
		"bad id":         mutate(func(s []NodeSpec) { s[1].ID = 5 }),
		"empty hostname": mutate(func(s []NodeSpec) { s[0].Hostname = "" }),
		"dup hostname":   mutate(func(s []NodeSpec) { s[1].Hostname = "a" }),
		"zero cores":     mutate(func(s []NodeSpec) { s[0].Cores = 0 }),
		"zero freq":      mutate(func(s []NodeSpec) { s[1].FreqGHz = 0 }),
		"zero mem":       mutate(func(s []NodeSpec) { s[0].TotalMemMB = 0 }),
	}
	for name, specs := range cases {
		if _, err := New(topo, specs); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), "cluster:") {
			t.Errorf("%s: error lacks package prefix: %v", name, err)
		}
	}
}

func TestNodeAccessor(t *testing.T) {
	cl, _ := BuildIITK()
	n := cl.Node(29)
	if n.ID != 29 || n.Hostname != "csews30" {
		t.Fatalf("Node(29) = %+v", n)
	}
}

func TestIITKHeterogeneityPerSwitch(t *testing.T) {
	cl, _ := BuildIITK()
	// Each switch: first 10 attached nodes fast, last 5 slow.
	for s := 0; s < cl.Topo.NumSwitches(); s++ {
		nodes := cl.Topo.NodesAt(s)
		for i, id := range nodes {
			want := 12
			if i >= 10 {
				want = 8
			}
			if cl.Node(id).Cores != want {
				t.Fatalf("switch %d position %d: cores %d, want %d", s, i, cl.Node(id).Cores, want)
			}
		}
	}
}

func TestBuildMultiCluster(t *testing.T) {
	mc := topology.MultiClusterConfig{Clusters: 2, SwitchesPerCluster: 2, NodesPerSwitch: 3}
	cl, clusterOf, err := BuildMultiCluster(mc, 8, 3.0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 12 {
		t.Fatalf("size %d", cl.Size())
	}
	if clusterOf(0) != 0 || clusterOf(11) != 1 {
		t.Fatal("cluster mapping wrong")
	}
	// Hostnames encode the cluster.
	if cl.Node(0).Hostname != "c0n1" || cl.Node(6).Hostname != "c1n7" {
		t.Fatalf("hostnames %q %q", cl.Node(0).Hostname, cl.Node(6).Hostname)
	}
	if _, _, err := BuildMultiCluster(topology.MultiClusterConfig{}, 8, 3, 8192); err == nil {
		t.Fatal("empty multi-cluster config accepted")
	}
}
