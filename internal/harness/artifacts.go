package harness

import "time"

// Options are the knobs of one artifact listing: the seed, the -quick
// reduction, and the sim/sweep/tuning knobs (SimSpec, a JSON workload
// file, replaces the canned SimJobs/SimNodes/SimUtil workload for sim;
// SimTrace receives sim's EASY trace; SweepWorkers 0 is GOMAXPROCS).
type Options struct {
	Seed                     uint64
	Quick                    bool
	SimJobs, SimNodes        int
	SimUtil                  float64
	SimSpec, SimTrace        string
	SimPolicy                bool
	SweepSeeds, SweepWorkers int
}

// DefaultOptions returns the full-size options at seed.
func DefaultOptions(seed uint64) Options {
	return Options{Seed: seed, SimJobs: 100000, SimNodes: 1024, SimUtil: 0.65, SweepSeeds: 8}
}

// Result is one artifact's outcome; Render is the text the listing
// prints for it.
type Result interface{ Render() string }

// Artifact is one entry of the Artifacts table: the -run Names selecting
// it, the CSV file its result's Table fills under -csv ("" for none),
// and the Run computing the result.
type Artifact struct {
	Names []string
	CSV   string
	Run   func(*Runs) (Result, error)
}

// Runs is one listing in progress: its options plus the scaling runs
// several artifacts share, each computed once.
type Runs struct {
	Options
	scaling map[AppKind]*ScalingData
}

// NewRuns starts a listing under o.
func NewRuns(o Options) *Runs {
	return &Runs{Options: o, scaling: make(map[AppKind]*ScalingData)}
}

// Scaling returns the app's Figure 4/6 strong-scaling run, reduced by
// QuickScalingConfig under Quick, running it on first use.
func (r *Runs) Scaling(app AppKind) (*ScalingData, error) {
	if d, ok := r.scaling[app]; ok {
		return d, nil
	}
	cfg := PaperMiniMDConfig(r.Seed)
	if app == AppMiniFE {
		cfg = PaperMiniFEConfig(r.Seed)
	}
	if r.Quick {
		cfg = QuickScalingConfig(cfg)
	}
	d, err := RunScaling(cfg)
	if err != nil {
		return nil, err
	}
	r.scaling[app] = d
	return d, nil
}

// pick returns quick under -quick and full otherwise; 0 leaves a config
// field at its default.
func (r *Runs) pick(full, quick int) int {
	if r.Quick {
		return quick
	}
	return full
}

// fromScaling is an artifact run deriving its result from app's shared
// scaling run.
func fromScaling[T Result](app AppKind, derive func(*ScalingData) T) func(*Runs) (Result, error) {
	return func(r *Runs) (Result, error) {
		d, err := r.Scaling(app)
		if err != nil {
			return nil, err
		}
		return derive(d), nil
	}
}

// Artifacts lists every table and figure of the paper's evaluation
// section, then the extension experiments, in listing order.
var Artifacts = []Artifact{
	{Names: []string{"fig1"}, CSV: "figure1_traces.csv", Run: func(r *Runs) (Result, error) {
		return Figure1(r.Seed, r.pick(48, 6), 20, 5*time.Minute)
	}},
	{Names: []string{"fig2"}, CSV: "figure2_pairs.csv", Run: func(r *Runs) (Result, error) {
		return Figure2(r.Seed, r.pick(30, 16), r.pick(10, 3), r.pick(48, 4))
	}},
	{Names: []string{"fig4"}, CSV: "figure4_minimd.csv", Run: func(r *Runs) (Result, error) { return r.Scaling(AppMiniMD) }},
	{Names: []string{"table2"}, Run: fromScaling(AppMiniMD, (*ScalingData).Gains)},
	{Names: []string{"fig5"}, Run: fromScaling(AppMiniMD, (*ScalingData).LoadPerCore)},
	{Names: []string{"cov"}, Run: fromScaling(AppMiniMD, (*ScalingData).OverallCoV)},
	{Names: []string{"fig6"}, CSV: "figure6_minife.csv", Run: func(r *Runs) (Result, error) { return r.Scaling(AppMiniFE) }},
	{Names: []string{"table3"}, Run: fromScaling(AppMiniFE, (*ScalingData).Gains)},
	{Names: []string{"table4", "fig7"}, Run: func(r *Runs) (Result, error) {
		return AllocationAnalysis(r.Seed, r.pick(100, 30))
	}},
	{Names: []string{"backfill"}, Run: func(r *Runs) (Result, error) {
		return RunBackfill(BackfillConfig{Seed: r.Seed, Shorts: r.pick(0, 4)})
	}},
	{Names: []string{"cosched"}, Run: func(r *Runs) (Result, error) {
		return RunCoSchedule(CoScheduleConfig{Seed: r.Seed, Repeats: r.pick(0, 1), Iterations: r.pick(0, 30)})
	}},
	{Names: []string{"predict"}, Run: func(r *Runs) (Result, error) {
		return RunPredictionStudy(PredictionConfig{Seed: r.Seed, Runs: r.pick(0, 8), Iterations: r.pick(0, 30)})
	}},
	{Names: []string{"multicluster"}, Run: func(r *Runs) (Result, error) {
		return RunMultiCluster(MultiClusterConfig{Seed: r.Seed, Repeats: r.pick(0, 2), Iterations: r.pick(0, 30)})
	}},
	{Names: []string{"ablation"}, Run: func(r *Runs) (Result, error) {
		return RunAblation(AblationConfig{Seed: r.Seed, Repeats: r.pick(0, 2), Iterations: r.pick(0, 30)})
	}},
	{Names: []string{"sim"}, Run: func(r *Runs) (Result, error) { return runSimScenarios(r.Options) }},
	{Names: []string{"sweep"}, Run: func(r *Runs) (Result, error) {
		cfg := SimSweepConfig{Seed: r.Seed, Runs: r.SweepSeeds, Nodes: r.SimNodes, Jobs: r.SimJobs,
			Util: r.SimUtil, Workers: r.SweepWorkers, Policy: r.SimPolicy}
		if r.Quick {
			cfg.Runs, cfg.Nodes, cfg.Jobs = 4, 128, 5000
		}
		return RunSimSweep(cfg)
	}},
	{Names: []string{"tuning"}, Run: func(r *Runs) (Result, error) {
		cfg := TuningConfig{Seed: r.Seed, Workers: r.SweepWorkers}
		if r.Quick {
			cfg.RegretDecisions, cfg.Nodes, cfg.Jobs = 10, 64, 1200
			cfg.TrainSeeds, cfg.HoldoutSeeds = 2, 2
			cfg.Population, cfg.Generations = 4, 2
		}
		return RunTuning(cfg)
	}},
}
