// Package cluster defines the static description of the compute cluster:
// node hardware attributes (logical core count, CPU clock, total memory)
// and their attachment to the network topology. It reproduces the paper's
// heterogeneous testbed: 40 12-core 4.6 GHz nodes and 20 8-core 2.8 GHz
// nodes, mostly with 16 GB RAM, spread over a 4-switch Gigabit tree.
package cluster

import (
	"fmt"

	"nlarm/internal/topology"
)

// NodeSpec is the immutable hardware description of one compute node —
// the "static attributes" of Table 1 (CPU/core count, CPU frequency,
// total memory).
type NodeSpec struct {
	ID       int
	Hostname string
	// Cores is the logical core count (the paper's nodes are hyperthreaded;
	// the allocator reasons in logical cores throughout).
	Cores int
	// FreqGHz is the CPU clock speed in GHz.
	FreqGHz float64
	// TotalMemMB is physical RAM in MiB.
	TotalMemMB float64
}

// Cluster couples node specs with the network topology. Node IDs index
// both Nodes and the topology.
type Cluster struct {
	Topo  *topology.Topology
	Nodes []NodeSpec
}

// New validates that specs cover exactly the topology's nodes and returns
// the cluster.
func New(topo *topology.Topology, specs []NodeSpec) (*Cluster, error) {
	if len(specs) != topo.NumNodes() {
		return nil, fmt.Errorf("cluster: %d node specs for a %d-node topology", len(specs), topo.NumNodes())
	}
	seen := make(map[string]bool, len(specs))
	for i, s := range specs {
		if s.ID != i {
			return nil, fmt.Errorf("cluster: spec %d has ID %d; IDs must be dense and ordered", i, s.ID)
		}
		if s.Hostname == "" {
			return nil, fmt.Errorf("cluster: node %d has empty hostname", i)
		}
		if seen[s.Hostname] {
			return nil, fmt.Errorf("cluster: duplicate hostname %q", s.Hostname)
		}
		seen[s.Hostname] = true
		if s.Cores <= 0 {
			return nil, fmt.Errorf("cluster: node %q has non-positive core count", s.Hostname)
		}
		if s.FreqGHz <= 0 {
			return nil, fmt.Errorf("cluster: node %q has non-positive CPU frequency", s.Hostname)
		}
		if s.TotalMemMB <= 0 {
			return nil, fmt.Errorf("cluster: node %q has non-positive memory", s.Hostname)
		}
	}
	return &Cluster{Topo: topo, Nodes: specs}, nil
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.Nodes) }

// Node returns the spec of node id.
func (c *Cluster) Node(id int) NodeSpec { return c.Nodes[id] }

// BuildIITK builds the paper's testbed on the default 4-switch chain:
// each 15-node switch hosts ten 12-core 4.6 GHz nodes followed by five
// 8-core 2.8 GHz nodes (40 fast + 20 slow in total), all with 16 GB RAM.
// Hostnames follow the paper's csewsN convention, 1-based.
func BuildIITK() (*Cluster, error) {
	topo, err := topology.New(topology.DefaultIITK())
	if err != nil {
		return nil, err
	}
	specs := make([]NodeSpec, 0, topo.NumNodes())
	for s := 0; s < topo.NumSwitches(); s++ {
		for i, node := range topo.NodesAt(s) {
			spec := NodeSpec{
				ID:         node,
				Hostname:   fmt.Sprintf("csews%d", node+1),
				Cores:      12,
				FreqGHz:    4.6,
				TotalMemMB: 16 * 1024,
			}
			if i >= 10 { // last five nodes per switch are the older machines
				spec.Cores = 8
				spec.FreqGHz = 2.8
			}
			specs = append(specs, spec)
		}
	}
	return New(topo, specs)
}

// BuildMultiCluster builds a homogeneous multi-cluster deployment on the
// given WAN-joined topology (paper §6's "large department/institute that
// may span over multiple clusters"). It returns the cluster plus a
// node→cluster-index mapping.
func BuildMultiCluster(mc topology.MultiClusterConfig, cores int, freqGHz, totalMemMB float64) (*Cluster, func(node int) int, error) {
	cfg, err := topology.MultiCluster(mc)
	if err != nil {
		return nil, nil, err
	}
	topo, err := topology.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	specs := make([]NodeSpec, topo.NumNodes())
	for i := range specs {
		specs[i] = NodeSpec{
			ID:         i,
			Hostname:   fmt.Sprintf("c%dn%d", mc.ClusterOf(topo)(i), i+1),
			Cores:      cores,
			FreqGHz:    freqGHz,
			TotalMemMB: totalMemMB,
		}
	}
	cl, err := New(topo, specs)
	if err != nil {
		return nil, nil, err
	}
	return cl, mc.ClusterOf(topo), nil
}

// BuildUniform builds a homogeneous cluster for tests and micro-benchmarks:
// nodesPerSwitch nodes on each of numSwitches chained switches, every node
// with the given cores/freq/mem.
func BuildUniform(numSwitches, nodesPerSwitch, cores int, freqGHz, totalMemMB float64) (*Cluster, error) {
	if numSwitches <= 0 || nodesPerSwitch <= 0 {
		return nil, fmt.Errorf("cluster: switches and nodes per switch must be positive")
	}
	cfg := topology.DefaultIITK()
	cfg.NodesPerSwitch = make([]int, numSwitches)
	cfg.SwitchLinks = nil
	for i := range cfg.NodesPerSwitch {
		cfg.NodesPerSwitch[i] = nodesPerSwitch
		if i > 0 {
			cfg.SwitchLinks = append(cfg.SwitchLinks, [2]int{i - 1, i})
		}
	}
	topo, err := topology.New(cfg)
	if err != nil {
		return nil, err
	}
	specs := make([]NodeSpec, topo.NumNodes())
	for i := range specs {
		specs[i] = NodeSpec{
			ID:         i,
			Hostname:   fmt.Sprintf("node%d", i+1),
			Cores:      cores,
			FreqGHz:    freqGHz,
			TotalMemMB: totalMemMB,
		}
	}
	return New(topo, specs)
}
