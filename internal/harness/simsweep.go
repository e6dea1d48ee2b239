package harness

import (
	"fmt"
	"strings"

	"nlarm/internal/sim"
)

// SimSweepConfig parameterizes the multi-run scenario sweep artifact:
// the same workload shape replicated across consecutive seeds and
// fanned over sim.RunMany's worker pool, at capacity or policy
// fidelity. Zero fields take defaults sized for a minutes-scale
// artifact run.
type SimSweepConfig struct {
	// Seed is the base seed; run i uses Seed+i.
	Seed uint64
	// Runs is the number of seeds swept (default 8).
	Runs int
	// Nodes is the cluster size per run (default 256).
	Nodes int
	// Jobs is the job count per run (default 10000).
	Jobs int
	// Util is the offered load for the canned workload (default 0.65).
	Util float64
	// Workers bounds the RunMany fan-out (default 0: GOMAXPROCS).
	Workers int
	// Policy runs every config at placement fidelity (Algorithms 1-2
	// over one live cost model per run) instead of the capacity model.
	Policy bool
}

func (c SimSweepConfig) withDefaults() SimSweepConfig {
	if c.Runs <= 0 {
		c.Runs = 8
	}
	if c.Nodes <= 0 {
		c.Nodes = 256
	}
	if c.Jobs <= 0 {
		c.Jobs = 10000
	}
	if c.Util <= 0 || c.Util > 1 {
		c.Util = 0.65
	}
	return c
}

// SimSweepData is RunSimSweep's result: the resolved config plus the
// aggregate sweep outcome, whose Digest is the determinism handle for
// the whole artifact (bit-identical for any worker count).
type SimSweepData struct {
	Config SimSweepConfig   `json:"config"`
	Sweep  *sim.SweepResult `json:"sweep"`
}

// RunSimSweep builds one ScenarioConfig per seed and executes them
// through sim.RunMany. Every run shares the workload shape (jobs,
// nodes, utilization, EASY backfill) and differs only in seed, so the
// sweep measures workload-sampling variance, not config drift.
func RunSimSweep(cfg SimSweepConfig) (*SimSweepData, error) {
	cfg = cfg.withDefaults()
	wl := sim.ScaledWorkload(cfg.Jobs, cfg.Nodes, cfg.Util)
	cfgs := make([]sim.ScenarioConfig, cfg.Runs)
	for i := range cfgs {
		cfgs[i] = sim.ScenarioConfig{
			Seed:       cfg.Seed + uint64(i),
			Nodes:      cfg.Nodes,
			Workload:   wl,
			Discipline: sim.EASY,
		}
		if cfg.Policy {
			cfgs[i].Policy = &sim.PolicyConfig{}
		}
	}
	sw, err := sim.RunMany(cfgs, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return &SimSweepData{Config: cfg, Sweep: sw}, nil
}

// FormatSimSweep renders the sweep as a per-seed table plus the
// aggregate line, mirroring the other artifact formatters.
func FormatSimSweep(d *SimSweepData) string {
	var b strings.Builder
	mode := "capacity"
	if d.Config.Policy {
		mode = "policy"
	}
	fmt.Fprintf(&b, "Sim sweep (%s fidelity): %d runs x %d jobs on %d nodes\n",
		mode, d.Config.Runs, d.Config.Jobs, d.Config.Nodes)
	fmt.Fprintf(&b, "%-6s %9s %9s %10s %9s %8s\n",
		"seed", "completed", "mean_wait", "makespan_h", "util_pct", "maxq")
	for i, res := range d.Sweep.Results {
		fmt.Fprintf(&b, "%-6d %9d %8.0fs %10.2f %9.1f %8d\n",
			d.Config.Seed+uint64(i), res.Completed, res.MeanWaitSec,
			res.MakespanSec/3600, res.UtilizationPct, res.MaxQueueDepth)
	}
	b.WriteString(d.Sweep.Render())
	if d.Config.Policy {
		dec, charged, refreshes := 0, 0, 0
		for _, res := range d.Sweep.Results {
			if res.Policy == nil {
				continue
			}
			dec += res.Policy.Decisions
			charged += res.Policy.ChargedDecisions
			refreshes += res.Policy.ModelRefreshes
		}
		fmt.Fprintf(&b, "  policy: %d decisions (%d charged), %d model refreshes, 1 build/run\n",
			dec, charged, refreshes)
	}
	return b.String()
}
