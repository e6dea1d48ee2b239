package tune

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"nlarm/internal/alloc"
	"nlarm/internal/rng"
	"nlarm/internal/sim"
)

// Params is the tuner's search space, a low-dimensional reparameterization
// of Equation 4's α/β plus the attribute weights that feed Equations 1-2:
// Alpha is the compute-vs-network trade-off (β = 1 − α), LatencyShare
// splits Equation 2 between latency and bandwidth (w_lt = LatencyShare,
// w_bw = 1 − LatencyShare), and LoadTilt splits the Equation 1 load mass
// between CPU load and CPU utilization (0.5·LoadTilt and 0.5·(1−LoadTilt);
// the remaining §5 attribute weights are held at the paper's values).
type Params struct {
	Alpha        float64 `json:"alpha"`
	LatencyShare float64 `json:"latency_share"`
	LoadTilt     float64 `json:"load_tilt"`
}

// BaselineParams is the paper's hand-picked operating point: α = β = 0.5
// with the §5 attribute weights (its Weights() is exactly
// alloc.PaperWeights()).
func BaselineParams() Params {
	return Params{Alpha: 0.5, LatencyShare: 0.25, LoadTilt: 0.6}
}

// Weights expands the parameter vector into concrete attribute weights.
func (p Params) Weights() alloc.Weights {
	w := alloc.PaperWeights()
	w.Latency = p.LatencyShare
	w.Bandwidth = 1 - p.LatencyShare
	w.CPULoad = 0.5 * p.LoadTilt
	w.CPUUtil = 0.5 * (1 - p.LoadTilt)
	return w
}

// clamp keeps every coordinate inside the searchable box.
func (p Params) clamp() Params {
	cl := func(x float64) float64 {
		if x < 0.05 {
			return 0.05
		}
		if x > 0.95 {
			return 0.95
		}
		return x
	}
	return Params{Alpha: cl(p.Alpha), LatencyShare: cl(p.LatencyShare), LoadTilt: cl(p.LoadTilt)}
}

// TunerConfig sizes one tuning study. Zero fields take defaults.
type TunerConfig struct {
	// Seed derives the train seeds (Seed+i), the held-out seeds
	// (Seed+1000+i), and the evolutionary rng.
	Seed uint64 `json:"seed"`
	// Nodes/CoresPerNode/Jobs/Util shape every scenario (defaults 128
	// nodes, 8 cores, 3000 jobs, 0.65 offered load).
	Nodes        int     `json:"nodes"`
	CoresPerNode int     `json:"cores_per_node"`
	Jobs         int     `json:"jobs"`
	Util         float64 `json:"util"`
	// TrainSeeds is how many workload seeds each candidate is scored on
	// (default 3); HoldoutSeeds how many disjoint seeds validate the
	// winner (default 2).
	TrainSeeds   int `json:"train_seeds"`
	HoldoutSeeds int `json:"holdout_seeds"`
	// GridAlphas is the deterministic α grid (default 0.2, 0.35, 0.5,
	// 0.65, 0.8 at the paper's attribute weights).
	GridAlphas []float64 `json:"grid_alphas,omitempty"`
	// Population/Generations size the seeded evolutionary pass over the
	// full parameter vector (defaults 6 and 3; either <= 0 after
	// defaulting skips evolution... set to -1 to disable).
	Population  int `json:"population"`
	Generations int `json:"generations"`
	// Workers bounds sim.RunMany's fan-out (0 = GOMAXPROCS). Results are
	// worker-count-invariant.
	Workers int `json:"workers"`
}

func (c TunerConfig) withDefaults() TunerConfig {
	if c.Nodes <= 0 {
		c.Nodes = 128
	}
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = 8
	}
	if c.Jobs <= 0 {
		c.Jobs = 3000
	}
	if c.Util <= 0 || c.Util > 1 {
		c.Util = 0.65
	}
	if c.TrainSeeds <= 0 {
		c.TrainSeeds = 3
	}
	if c.HoldoutSeeds <= 0 {
		c.HoldoutSeeds = 2
	}
	if len(c.GridAlphas) == 0 {
		c.GridAlphas = []float64{0.2, 0.35, 0.5, 0.65, 0.8}
	}
	if c.Population == 0 {
		c.Population = 6
	}
	if c.Generations == 0 {
		c.Generations = 3
	}
	return c
}

// Evaluation is one parameter vector's measured score: the mean of its
// per-train-seed objective scores against the baseline outcomes.
type Evaluation struct {
	Params   Params    `json:"params"`
	Score    float64   `json:"score"`
	Source   string    `json:"source"` // "baseline", "grid", "gen<N>"
	Outcomes []Outcome `json:"outcomes,omitempty"`
}

// HoldoutResult validates the recommended parameters on one seed the
// search never saw: the winner's outcome scored against a fresh baseline
// run of the same seed.
type HoldoutResult struct {
	Seed          uint64  `json:"seed"`
	Score         float64 `json:"score"`
	BaselineScore float64 `json:"baseline_score"`
	BaselineNL    float64 `json:"baseline_nl"`
	BestNL        float64 `json:"best_nl"`
	Improved      bool    `json:"improved"`
}

// Result is one tuning study: the baseline evaluation, the deterministic
// grid, the per-generation evolutionary winners, the overall
// recommendation, and its held-out validation. Same config, same result
// — bit for bit, for any worker count.
type Result struct {
	Config      TunerConfig     `json:"config"`
	Baseline    Evaluation      `json:"baseline"`
	Grid        []Evaluation    `json:"grid"`
	Generations []Evaluation    `json:"generations,omitempty"`
	Best        Evaluation      `json:"best"`
	Holdout     []HoldoutResult `json:"holdout"`
	HoldoutWins int             `json:"holdout_wins"`
	Runs        int             `json:"runs"` // scenario runs executed
}

// RecommendedWeights expands the winning parameters.
func (r *Result) RecommendedWeights() alloc.Weights { return r.Best.Params.Weights() }

// Run executes the study: score the baseline on the train seeds, sweep
// the deterministic α grid, evolve the full parameter vector from the
// grid winner with a seeded mutation loop, then validate the best
// candidate on the held-out seeds. Every evaluation batch is one
// sim.RunMany call, so the study parallelizes across candidates × seeds
// while staying deterministic.
func Run(cfg TunerConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	objective := DefaultObjective()
	res := &Result{Config: cfg}
	wl := sim.ScaledWorkload(cfg.Jobs, cfg.Nodes, cfg.Util)
	scen := func(seed uint64, p Params) sim.ScenarioConfig {
		w := p.Weights()
		return sim.ScenarioConfig{
			Seed: seed, Nodes: cfg.Nodes, CoresPerNode: cfg.CoresPerNode,
			Workload: wl, Discipline: sim.EASY,
			Policy: &sim.PolicyConfig{Alpha: p.Alpha, Beta: 1 - p.Alpha, Weights: &w},
		}
	}

	// Baseline outcomes per train seed — every candidate scores against
	// these.
	base := BaselineParams()
	baseCfgs := make([]sim.ScenarioConfig, cfg.TrainSeeds)
	for i := range baseCfgs {
		baseCfgs[i] = scen(cfg.Seed+uint64(i), base)
	}
	sw, err := sim.RunMany(baseCfgs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("tune: baseline sweep: %w", err)
	}
	res.Runs += len(baseCfgs)
	baseOut := make([]Outcome, cfg.TrainSeeds)
	for i, r := range sw.Results {
		baseOut[i] = OutcomeOf(r)
	}
	score := func(outs []Outcome) float64 {
		s := 0.0
		for i, o := range outs {
			s += objective.Score(o, baseOut[i])
		}
		return s / float64(len(outs))
	}
	res.Baseline = Evaluation{Params: base, Score: score(baseOut), Source: "baseline", Outcomes: baseOut}

	// evalBatch scores a candidate set with one RunMany over the
	// candidates × train seeds cross product (candidate-major order).
	evalBatch := func(ps []Params, source string) ([]Evaluation, error) {
		cfgs := make([]sim.ScenarioConfig, 0, len(ps)*cfg.TrainSeeds)
		for _, p := range ps {
			for i := 0; i < cfg.TrainSeeds; i++ {
				cfgs = append(cfgs, scen(cfg.Seed+uint64(i), p))
			}
		}
		sw, err := sim.RunMany(cfgs, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("tune: %s sweep: %w", source, err)
		}
		res.Runs += len(cfgs)
		evals := make([]Evaluation, len(ps))
		for k, p := range ps {
			outs := make([]Outcome, cfg.TrainSeeds)
			for i := 0; i < cfg.TrainSeeds; i++ {
				outs[i] = OutcomeOf(sw.Results[k*cfg.TrainSeeds+i])
			}
			evals[k] = Evaluation{Params: p, Score: score(outs), Source: source, Outcomes: outs}
		}
		return evals, nil
	}

	// Deterministic α grid at the paper's attribute weights.
	gridPs := make([]Params, len(cfg.GridAlphas))
	for i, a := range cfg.GridAlphas {
		p := base
		p.Alpha = a
		gridPs[i] = p.clamp()
	}
	grid, err := evalBatch(gridPs, "grid")
	if err != nil {
		return nil, err
	}
	res.Grid = grid
	best := res.Baseline
	for _, e := range grid {
		if e.Score < best.Score {
			best = e
		}
	}

	// Seeded evolutionary search over the full vector, warm-started at
	// the grid winner: evaluate a population, keep the two elites, refill
	// with clamped mutations. The rng stream, the population order, and
	// the stable score sort make the whole pass deterministic.
	if cfg.Population > 1 && cfg.Generations > 0 {
		r := rng.New(cfg.Seed ^ 0xda7a5eed7a11)
		mutate := func(p Params) Params {
			p.Alpha += r.Range(-0.12, 0.12)
			p.LatencyShare += r.Range(-0.15, 0.15)
			p.LoadTilt += r.Range(-0.15, 0.15)
			return p.clamp()
		}
		pop := make([]Params, cfg.Population)
		pop[0] = best.Params
		for i := 1; i < len(pop); i++ {
			pop[i] = mutate(best.Params)
		}
		for g := 1; g <= cfg.Generations; g++ {
			evals, err := evalBatch(pop, fmt.Sprintf("gen%d", g))
			if err != nil {
				return nil, err
			}
			sort.SliceStable(evals, func(i, j int) bool { return evals[i].Score < evals[j].Score })
			res.Generations = append(res.Generations, evals[0])
			if evals[0].Score < best.Score {
				best = evals[0]
			}
			elite := 2
			if elite > len(evals) {
				elite = len(evals)
			}
			for i := 0; i < elite; i++ {
				pop[i] = evals[i].Params
			}
			for i := elite; i < len(pop); i++ {
				pop[i] = mutate(evals[i%elite].Params)
			}
		}
	}
	res.Best = best

	// Held-out validation: seeds the search never touched, winner vs a
	// fresh baseline run, seed by seed.
	hold := make([]sim.ScenarioConfig, 0, 2*cfg.HoldoutSeeds)
	for i := 0; i < cfg.HoldoutSeeds; i++ {
		seed := cfg.Seed + 1000 + uint64(i)
		hold = append(hold, scen(seed, base), scen(seed, best.Params))
	}
	hsw, err := sim.RunMany(hold, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("tune: holdout sweep: %w", err)
	}
	res.Runs += len(hold)
	for i := 0; i < cfg.HoldoutSeeds; i++ {
		bo := OutcomeOf(hsw.Results[2*i])
		wo := OutcomeOf(hsw.Results[2*i+1])
		hr := HoldoutResult{
			Seed:          cfg.Seed + 1000 + uint64(i),
			Score:         objective.Score(wo, bo),
			BaselineScore: objective.Score(bo, bo),
			BaselineNL:    bo.MeanNLCost,
			BestNL:        wo.MeanNLCost,
		}
		hr.Improved = hr.Score < hr.BaselineScore
		if hr.Improved {
			res.HoldoutWins++
		}
		res.Holdout = append(res.Holdout, hr)
	}
	return res, nil
}

// Digest is the study's determinism handle: a SHA-256 over every
// decision-relevant number in the result (params, scores, outcomes,
// holdout verdicts), formatted with full float precision. Two processes
// running the same config must produce identical digests.
func (r *Result) Digest() string {
	var b strings.Builder
	we := func(e Evaluation) {
		fmt.Fprintf(&b, "%s %.9g %.9g %.9g %.9g", e.Source, e.Params.Alpha, e.Params.LatencyShare, e.Params.LoadTilt, e.Score)
		for _, o := range e.Outcomes {
			fmt.Fprintf(&b, " [%.9g %.9g %.9g %.9g]", o.MeanWaitSec, o.MakespanSec, o.Jain, o.MeanNLCost)
		}
		b.WriteByte('\n')
	}
	we(r.Baseline)
	for _, e := range r.Grid {
		we(e)
	}
	for _, e := range r.Generations {
		we(e)
	}
	we(r.Best)
	for _, h := range r.Holdout {
		fmt.Fprintf(&b, "holdout %d %.9g %.9g %.9g %.9g %v\n", h.Seed, h.Score, h.BaselineScore, h.BaselineNL, h.BestNL, h.Improved)
	}
	fmt.Fprintf(&b, "runs %d\n", r.Runs)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
