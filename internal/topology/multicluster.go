package topology

import (
	"fmt"
	"time"
)

// TrunkSpec overrides one trunk link's properties — the mechanism behind
// multi-cluster topologies, where inter-cluster (WAN) links are slower
// and higher-latency than intra-cluster switch trunks (§6 of the paper:
// "for a large department/institute that may span over multiple clusters,
// we need to consider the large overheads between nodes from different
// clusters").
type TrunkSpec struct {
	// CapacityBps overrides the trunk capacity (0 = keep the default).
	CapacityBps float64
	// ExtraLatency is added once for traversing this trunk, on top of the
	// per-hop store-and-forward latency.
	ExtraLatency time.Duration
}

// MultiClusterConfig builds several chained-switch clusters joined by WAN
// links.
type MultiClusterConfig struct {
	// Clusters is the number of clusters.
	Clusters int
	// SwitchesPerCluster is the chain length inside each cluster.
	SwitchesPerCluster int
	// NodesPerSwitch attaches this many nodes to every switch.
	NodesPerSwitch int
	// EdgeCapacityBps and TrunkCapacityBps are the intra-cluster link
	// capacities (defaults: Gigabit).
	EdgeCapacityBps  float64
	TrunkCapacityBps float64
	// PerHopLatency is the intra-cluster per-switch latency (default 50µs).
	PerHopLatency time.Duration
	// WANCapacityBps is the capacity of inter-cluster links (default
	// 1/4 Gigabit).
	WANCapacityBps float64
	// WANLatency is the extra one-way latency of each inter-cluster link
	// (default 2ms).
	WANLatency time.Duration
}

// MultiCluster expands the config into a topology Config: each cluster is
// a chain of switches; the last switch of cluster i connects to the first
// switch of cluster i+1 over a WAN trunk.
func MultiCluster(mc MultiClusterConfig) (Config, error) {
	if mc.Clusters <= 0 || mc.SwitchesPerCluster <= 0 || mc.NodesPerSwitch <= 0 {
		return Config{}, fmt.Errorf("topology: multi-cluster needs positive clusters/switches/nodes, got %d/%d/%d",
			mc.Clusters, mc.SwitchesPerCluster, mc.NodesPerSwitch)
	}
	if mc.EdgeCapacityBps == 0 {
		mc.EdgeCapacityBps = GigabitBps
	}
	if mc.TrunkCapacityBps == 0 {
		mc.TrunkCapacityBps = GigabitBps
	}
	if mc.PerHopLatency == 0 {
		mc.PerHopLatency = 50 * time.Microsecond
	}
	if mc.WANCapacityBps == 0 {
		mc.WANCapacityBps = GigabitBps / 4
	}
	if mc.WANLatency == 0 {
		mc.WANLatency = 2 * time.Millisecond
	}
	total := mc.Clusters * mc.SwitchesPerCluster
	cfg := Config{
		NodesPerSwitch:   make([]int, total),
		EdgeCapacityBps:  mc.EdgeCapacityBps,
		TrunkCapacityBps: mc.TrunkCapacityBps,
		PerHopLatency:    mc.PerHopLatency,
		TrunkOverrides:   make(map[[2]int]TrunkSpec),
	}
	for i := range cfg.NodesPerSwitch {
		cfg.NodesPerSwitch[i] = mc.NodesPerSwitch
	}
	for c := 0; c < mc.Clusters; c++ {
		base := c * mc.SwitchesPerCluster
		for s := 0; s+1 < mc.SwitchesPerCluster; s++ {
			cfg.SwitchLinks = append(cfg.SwitchLinks, [2]int{base + s, base + s + 1})
		}
		if c+1 < mc.Clusters {
			wan := [2]int{base + mc.SwitchesPerCluster - 1, base + mc.SwitchesPerCluster}
			cfg.SwitchLinks = append(cfg.SwitchLinks, wan)
			cfg.TrunkOverrides[wan] = TrunkSpec{
				CapacityBps:  mc.WANCapacityBps,
				ExtraLatency: mc.WANLatency,
			}
		}
	}
	return cfg, nil
}

// ClusterOf returns the cluster index of a node under a MultiCluster
// layout (which cluster an allocation landed in).
func (mc MultiClusterConfig) ClusterOf(topo *Topology) func(node int) int {
	switchesPer := mc.SwitchesPerCluster
	return func(node int) int {
		return topo.SwitchOf(node) / switchesPer
	}
}
