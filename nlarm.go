// Package nlarm is a reproduction of "Network and Load-Aware Resource
// Manager for MPI Programs" (Kumar, Jain, Malakar — ICPP Workshops 2020):
// a resource broker that allocates nodes to MPI jobs on a shared,
// non-dedicated cluster using both the current compute load of the nodes
// and the measured network state (pairwise bandwidth and latency)
// between them.
//
// The package exposes a simulation-backed deployment of the full system:
// a heterogeneous 60-node cluster with realistic background activity, the
// distributed resource monitor (LivehostsD, NodeStateD, LatencyD,
// BandwidthD, and the fault-tolerant Central Monitor), the four
// allocation policies evaluated in the paper, and simulated miniMD/miniFE
// workloads to execute on allocations. Everything is deterministic under
// a seed and runs on virtual time, so two simulated days finish in
// seconds.
//
// For the lower-level building blocks (direct policy invocation, custom
// topologies, experiment harness), see the internal packages; the
// cmd/nlarm-experiments binary regenerates every table and figure of the
// paper.
package nlarm

import (
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/apps"
	"nlarm/internal/broker"
	"nlarm/internal/harness"
	"nlarm/internal/loadgen"
	"nlarm/internal/mpisim"
)

// Policy names accepted by AllocRequest.Policy.
const (
	// PolicyNetLoadAware is the paper's contribution (Algorithms 1+2).
	PolicyNetLoadAware = "net-load-aware"
	// PolicyLoadAware considers only compute load.
	PolicyLoadAware = "load-aware"
	// PolicySequential picks topologically consecutive nodes.
	PolicySequential = "sequential"
	// PolicyRandom picks uniformly among live nodes.
	PolicyRandom = "random"
)

// AllocRequest is a broker allocation request.
type AllocRequest = broker.Request

// AllocResponse is the broker's answer, including the recommendation
// (allocate vs wait) and an MPI-style hostfile.
type AllocResponse = broker.Response

// Recommendation values returned in AllocResponse.
const (
	RecommendAllocate = broker.RecommendAllocate
	RecommendWait     = broker.RecommendWait
)

// Result describes a finished MPI job run (execution time and the
// compute/communication breakdown).
type Result = mpisim.Result

// SimulationConfig configures a simulated deployment.
type SimulationConfig struct {
	// Seed makes the whole simulation deterministic. Required; 0 is a
	// valid seed.
	Seed uint64
	// Load scales the background activity of the shared cluster: 0 or 1
	// is the calibrated default matching the paper's Figure 1; larger
	// values crowd the cluster (≥25 reliably triggers the broker's wait
	// recommendation).
	Load float64
}

// Simulation is a fully wired simulated deployment of the resource
// manager on the paper's 60-node shared cluster.
type Simulation struct {
	// Harness exposes the underlying experiment session for advanced use
	// (direct policy calls, failure injection, custom experiments).
	Harness *harness.Session
}

// NewSimulation builds and starts a simulation.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	scfg := harness.SessionConfig{Seed: cfg.Seed}
	if cfg.Load > 0 && cfg.Load != 1 {
		bg := loadgen.DefaultConfig()
		bg.BaseCPULoad *= cfg.Load
		bg.BaseUtilPct = bg.BaseUtilPct * (1 + (cfg.Load-1)/4)
		if bg.BaseUtilPct > 95 {
			bg.BaseUtilPct = 95
		}
		scfg.World.Background = bg
	}
	s, err := harness.NewSession(scfg)
	if err != nil {
		return nil, err
	}
	return &Simulation{Harness: s}, nil
}

// Close stops all simulated daemons and the world stepping.
func (s *Simulation) Close() { s.Harness.Close() }

// WarmUp advances virtual time until the monitor has published full
// state (livehosts, node attributes, latency and bandwidth matrices):
// 17 virtual minutes, one bandwidth sweep plus the 15-minute running-mean
// window.
func (s *Simulation) WarmUp() { s.Harness.WarmUp(harness.DefaultWarmUp) }

// Advance moves virtual time forward by d (background activity keeps
// evolving, monitors keep sampling).
func (s *Simulation) Advance(d time.Duration) { s.Harness.Advance(d) }

// Now returns the current virtual time.
func (s *Simulation) Now() time.Time { return s.Harness.Now() }

// Allocate asks the broker for nodes.
func (s *Simulation) Allocate(req AllocRequest) (AllocResponse, error) {
	return s.Harness.Broker.Allocate(req)
}

// MiniMDRun selects a miniMD execution (S³ FCC cells → 4·S³ atoms).
type MiniMDRun struct {
	S     int
	Steps int // 0 = miniMD's default 100
}

// MiniFERun selects a miniFE execution (NX³ hexahedral elements).
type MiniFERun struct {
	NX    int
	Iters int // 0 = miniFE's default 200 CG iterations
}

// RunMiniMD executes miniMD on the nodes of a previous allocation,
// advancing virtual time until the job finishes.
func (s *Simulation) RunMiniMD(run MiniMDRun, resp AllocResponse) (Result, error) {
	shape, err := apps.MiniMD(apps.MiniMDParams{S: run.S, Steps: run.Steps}, resp.Allocation.TotalProcs())
	if err != nil {
		return Result{}, err
	}
	return s.Harness.RunJob(shape, resp.Allocation)
}

// RunMiniFE executes miniFE on the nodes of a previous allocation.
func (s *Simulation) RunMiniFE(run MiniFERun, resp AllocResponse) (Result, error) {
	shape, err := apps.MiniFE(apps.MiniFEParams{NX: run.NX, Iters: run.Iters}, resp.Allocation.TotalProcs())
	if err != nil {
		return Result{}, err
	}
	return s.Harness.RunJob(shape, resp.Allocation)
}

// Stencil2DRun selects a 2-D Jacobi heat-diffusion execution (N×N grid).
type Stencil2DRun struct {
	N     int
	Steps int // 0 = default 500 sweeps
}

// RunStencil2D executes the Jacobi stencil on the nodes of a previous
// allocation.
func (s *Simulation) RunStencil2D(run Stencil2DRun, resp AllocResponse) (Result, error) {
	shape, err := apps.Stencil2D(apps.Stencil2DParams{N: run.N, Steps: run.Steps}, resp.Allocation.TotalProcs())
	if err != nil {
		return Result{}, err
	}
	return s.Harness.RunJob(shape, resp.Allocation)
}

// SuggestAlphaBeta derives Equation 4's α/β weights from a profiled
// communication fraction (see Result.CommFraction).
func SuggestAlphaBeta(commFraction float64) (alpha, beta float64) {
	return apps.SuggestAlphaBeta(commFraction)
}

// PaperWeights returns the attribute weights used throughout the paper's
// evaluation (§5).
func PaperWeights() alloc.Weights { return alloc.PaperWeights() }
