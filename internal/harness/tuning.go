package harness

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"nlarm/internal/broker"
	"nlarm/internal/mpisim"
	"nlarm/internal/rng"
	"nlarm/internal/tune"
)

// TuningConfig parameterizes the counterfactual-regret trace and the
// α/β/weight tuning study. Zero fields take defaults.
type TuningConfig struct {
	// Seed drives the regret session, the tuner's train/holdout seeds,
	// and its evolutionary search.
	Seed uint64
	// RegretDecisions is how many live broker allocations the regret
	// trace replays (default 24); CounterfactualK how many rejected
	// candidates each decision retains (default 4).
	RegretDecisions int
	CounterfactualK int
	// Nodes/Jobs/TrainSeeds/HoldoutSeeds/Population/Generations/
	// Workers pass through to the tuner (zeros take tune's defaults).
	Nodes        int
	Jobs         int
	TrainSeeds   int
	HoldoutSeeds int
	Population   int
	Generations  int
	Workers      int
}

func (c TuningConfig) withDefaults() TuningConfig {
	if c.RegretDecisions <= 0 {
		c.RegretDecisions = 24
	}
	if c.CounterfactualK <= 0 {
		c.CounterfactualK = 4
	}
	return c
}

// TuningData is RunTuning's result: the regret report over a live broker
// trace plus the tuning study's recommendation.
type TuningData struct {
	Config TuningConfig      `json:"config"`
	Regret tune.RegretReport `json:"regret"`
	Result *tune.Result      `json:"result"`
}

// regretJobShape is one small halo-exchange job in the regret trace.
func regretJobShape(i, ranks int) *mpisim.Shape {
	s := &mpisim.Shape{
		Name:              fmt.Sprintf("regret-job-%d", i),
		Ranks:             ranks,
		Iterations:        30,
		ComputeSecPerIter: 0.01,
		RefFreqGHz:        3.0,
	}
	mpisim.Halo2D(s, 64*1024, 1)
	return s
}

// RunTuning runs the two halves of the study. First a live session on the
// paper testbed with counterfactual retention enabled: every allocation
// keeps its top-k rejected candidates, the granted job actually runs, and
// its realized node-seconds weight the decision's regret. Then the tuner
// searches α/β/attribute-weight space over sim.RunMany sweeps and
// validates its recommendation on held-out seeds.
func RunTuning(cfg TuningConfig) (*TuningData, error) {
	cfg = cfg.withDefaults()
	s, err := NewSession(SessionConfig{
		Seed:   cfg.Seed,
		Broker: broker.Config{CounterfactualK: cfg.CounterfactualK},
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.WarmUp(DefaultWarmUp)

	r := rng.New(cfg.Seed ^ 0x7e62e7)
	weights := make([]float64, 0, cfg.RegretDecisions)
	for i := 0; i < cfg.RegretDecisions; i++ {
		procs := 4 + 2*r.Intn(5) // 4..12 ranks
		resp, err := s.Broker.Allocate(broker.Request{Procs: procs, PPN: 2, Force: true})
		if err != nil {
			// The failed attempt still occupies a slot in the decision ring;
			// keep the weights aligned with it.
			weights = append(weights, 1)
			continue
		}
		res, err := s.RunJob(regretJobShape(i, procs), resp.Allocation)
		w := 1.0
		if err == nil {
			w = res.Elapsed.Seconds() * float64(len(resp.Nodes))
		}
		weights = append(weights, w)
		s.Advance(time.Minute)
	}
	rep := tune.Regret(s.Broker.Decisions(0), weights)

	res, err := tune.Run(tune.TunerConfig{
		Seed: cfg.Seed, Nodes: cfg.Nodes, Jobs: cfg.Jobs,
		TrainSeeds: cfg.TrainSeeds, HoldoutSeeds: cfg.HoldoutSeeds,
		Population: cfg.Population, Generations: cfg.Generations,
		Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &TuningData{Config: cfg, Regret: rep, Result: res}, nil
}

// Render renders the study. The output carries no wall times or
// other nondeterminism and ends with a digest of its own body, so two
// processes running the same seed must print byte-identical reports —
// CI compares them.
func (d *TuningData) Render() string {
	var b strings.Builder
	rep, res := d.Regret, d.Result
	fmt.Fprintf(&b, "Counterfactual regret trace: %d decisions, k=%d\n",
		rep.Decisions, d.Config.CounterfactualK)
	fmt.Fprintf(&b, "  evaluated %d, positive regret on %d (%.1f%%)\n",
		rep.Evaluated, rep.Positive, 100*rep.PositiveShare)
	fmt.Fprintf(&b, "  regret total %.6g  mean %.6g  max %.6g  outcome-weighted %.6g\n",
		rep.TotalRegret, rep.MeanRegret, rep.MaxRegret, rep.WeightedRegret)

	fmt.Fprintf(&b, "\nTuning study: %d sim runs, %d train + %d holdout seeds, objective %+v\n",
		res.Runs, res.Config.TrainSeeds, res.Config.HoldoutSeeds, tune.DefaultObjective())
	fmt.Fprintf(&b, "%-10s %7s %7s %7s %9s\n", "source", "alpha", "w_lt", "tilt", "score")
	row := func(e tune.Evaluation) {
		fmt.Fprintf(&b, "%-10s %7.3f %7.3f %7.3f %9.6f\n",
			e.Source, e.Params.Alpha, e.Params.LatencyShare, e.Params.LoadTilt, e.Score)
	}
	row(res.Baseline)
	for _, e := range res.Grid {
		row(e)
	}
	for _, e := range res.Generations {
		row(e)
	}

	w := res.RecommendedWeights()
	p := res.Best.Params
	fmt.Fprintf(&b, "\nRecommended weights (score %.6f vs baseline %.6f):\n", res.Best.Score, res.Baseline.Score)
	fmt.Fprintf(&b, "  alpha %.3f  beta %.3f\n", p.Alpha, 1-p.Alpha)
	fmt.Fprintf(&b, "  latency %.3f  bandwidth %.3f  cpu_load %.3f  cpu_util %.3f\n",
		w.Latency, w.Bandwidth, w.CPULoad, w.CPUUtil)

	fmt.Fprintf(&b, "\nHoldout (%d/%d seeds improved):\n", res.HoldoutWins, len(res.Holdout))
	for _, h := range res.Holdout {
		verdict := "baseline holds"
		if h.Improved {
			verdict = "improved"
		}
		fmt.Fprintf(&b, "  seed %-6d score %.6f vs %.6f  mean NL %.6g vs %.6g  %s\n",
			h.Seed, h.Score, h.BaselineScore, h.BestNL, h.BaselineNL, verdict)
	}
	sum := sha256.Sum256([]byte(b.String()))
	fmt.Fprintf(&b, "\nreport digest %x\n", sum)
	return b.String()
}
