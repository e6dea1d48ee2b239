package harness

import (
	"fmt"
	"time"

	"nlarm/internal/apps"
	"nlarm/internal/broker"
	"nlarm/internal/cluster"
	"nlarm/internal/monitor"
	"nlarm/internal/mpisim"
	"nlarm/internal/topology"
)

// MultiClusterConfig drives the multi-cluster extension experiment (§6
// future work): three WAN-joined clusters, the standard baselines and
// the exact heuristic.
type MultiClusterConfig struct {
	Seed uint64
	// Repeats per policy (0 means 3).
	Repeats int
	// Iterations for the miniMD runs (0 = default).
	Iterations int
}

// The deployment: 3 clusters of 2×4 nodes.
const mcClusters, mcSwitchesPerCluster, mcNodesPerSwitch = 3, 2, 4

// The job: 16 processes at 4 per node, so it fits inside one cluster and
// the headline comparison is meaningful.
const mcProcs, mcPPN = 16, 4

// MultiClusterResult summarizes the experiment.
type MultiClusterResult struct {
	Cfg MultiClusterConfig
	// MeanSec is each policy's mean execution time.
	MeanSec map[string]float64
	// CrossCluster counts, per policy, how many trials spanned more than
	// one cluster.
	CrossCluster map[string]int
	// Trials holds the raw runs.
	Trials []Trial
}

// RunMultiCluster executes the experiment.
func RunMultiCluster(cfg MultiClusterConfig) (*MultiClusterResult, error) {
	if cfg.Repeats == 0 {
		cfg.Repeats = 3
	}
	mc := topology.MultiClusterConfig{
		Clusters:           mcClusters,
		SwitchesPerCluster: mcSwitchesPerCluster,
		NodesPerSwitch:     mcNodesPerSwitch,
	}
	cl, clusterOf, err := cluster.BuildMultiCluster(mc, 8, 3.0, 8192)
	if err != nil {
		return nil, err
	}
	s, err := NewSession(SessionConfig{
		Seed:    cfg.Seed,
		Cluster: cl,
		Monitor: monitor.Config{
			NodeStatePeriod: 2 * time.Second,
			LatencyPeriod:   15 * time.Second,
			BandwidthPeriod: 30 * time.Second,
		},
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.WarmUp(2 * time.Minute)

	trials, err := s.Compare(CompareConfig{
		MakeShape: func() (*mpisim.Shape, error) {
			return apps.MiniMD(apps.MiniMDParams{S: 16, Steps: cfg.Iterations}, mcProcs)
		},
		Request: broker.Request{Procs: mcProcs, PPN: mcPPN, Alpha: 0.3, Beta: 0.7},
		Repeats: cfg.Repeats,
		Spacing: time.Minute,
		Seed:    cfg.Seed + 17,
	})
	if err != nil {
		return nil, err
	}
	res := &MultiClusterResult{
		Cfg:          cfg,
		MeanSec:      MeanElapsed(trials),
		CrossCluster: make(map[string]int),
		Trials:       trials,
	}
	for _, t := range trials {
		clusters := map[int]bool{}
		for _, n := range t.Allocation.Nodes {
			clusters[clusterOf(n)] = true
		}
		if len(clusters) > 1 {
			res.CrossCluster[t.Policy]++
		}
	}
	return res, nil
}

// Render renders the experiment table.
func (r *MultiClusterResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Multi-cluster extension — %d WAN-joined clusters, miniMD %d procs (mean of %d runs)",
			mcClusters, mcProcs, r.Cfg.Repeats),
		Header: []string{"policy", "mean time (s)", "cross-cluster allocations"},
	}
	for _, pol := range orderedPolicies(r.MeanSec) {
		t.AddRow(pol, Sec(r.MeanSec[pol]), fmt.Sprintf("%d/%d", r.CrossCluster[pol], r.Cfg.Repeats))
	}
	return t.String()
}
