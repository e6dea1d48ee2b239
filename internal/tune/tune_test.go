package tune

import (
	"math"
	"reflect"
	"testing"

	"nlarm/internal/alloc"
	"nlarm/internal/broker"
)

func TestJainIndex(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 1},
		{[]float64{0, 0, 0}, 1},
		{[]float64{5, 5, 5, 5}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
		{[]float64{4, 2}, (6.0 * 6.0) / (2 * (16.0 + 4.0))},
	}
	for _, c := range cases {
		if got := JainIndex(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("JainIndex(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestScoreBaselineIsWeightSum(t *testing.T) {
	base := Outcome{MeanWaitSec: 12, MakespanSec: 900, Jain: 0.8, MeanNLCost: 3.5}
	w := DefaultObjective() // weights sum to 1
	if got := w.Score(base, base); math.Abs(got-1) > 1e-12 {
		t.Fatalf("baseline self-score = %g, want 1", got)
	}
	// Halving every cost halves every ratio term.
	better := Outcome{MeanWaitSec: 6, MakespanSec: 450, Jain: 0.9, MeanNLCost: 1.75}
	if got := w.Score(better, base); got >= 1 {
		t.Fatalf("strictly better outcome scored %g, want < 1", got)
	}
	// A zero baseline denominator is capped, not infinite.
	zb := Outcome{Jain: 1}
	if got := w.Score(base, zb); math.IsInf(got, 0) || got > ratioCap {
		t.Fatalf("degenerate baseline score = %g, want finite <= cap", got)
	}
}

func TestRegretArithmetic(t *testing.T) {
	recs := []broker.DecisionRecord{
		{ // regret 0.5*(10-6) + 0.5*(4-2) = 3 with the cheaper alt
			Recommendation: broker.RecommendAllocate,
			Alpha:          0.5, Beta: 0.5,
			ComputeCost: 10, NetworkCost: 4,
			Counterfactuals: []broker.CounterfactualCandidate{
				{ComputeCost: 20, NetworkCost: 20},
				{ComputeCost: 6, NetworkCost: 2},
			},
		},
		{ // chosen already raw-minimal: clamped to zero, still evaluated
			Recommendation: broker.RecommendAllocate,
			Alpha:          0.5, Beta: 0.5,
			ComputeCost: 1, NetworkCost: 1,
			Counterfactuals: []broker.CounterfactualCandidate{
				{ComputeCost: 5, NetworkCost: 5},
			},
		},
		{ // no counterfactuals retained: skipped
			Recommendation: broker.RecommendAllocate,
			ComputeCost:    9, NetworkCost: 9,
		},
		{ // failed decision: skipped
			Recommendation: broker.RecommendAllocate,
			Error:          "boom",
			Counterfactuals: []broker.CounterfactualCandidate{
				{ComputeCost: 0, NetworkCost: 0},
			},
		},
	}
	rep := Regret(recs, []float64{2}) // first decision weighted 2x, rest default 1
	if rep.Decisions != 4 || rep.Evaluated != 2 || rep.Positive != 1 {
		t.Fatalf("counts: %+v", rep)
	}
	if math.Abs(rep.TotalRegret-3) > 1e-12 || math.Abs(rep.MaxRegret-3) > 1e-12 {
		t.Fatalf("regret totals: %+v", rep)
	}
	if math.Abs(rep.MeanRegret-1.5) > 1e-12 {
		t.Fatalf("mean regret = %g, want 1.5 (zeros included)", rep.MeanRegret)
	}
	if math.Abs(rep.WeightedRegret-6) > 1e-12 {
		t.Fatalf("weighted regret = %g, want 6", rep.WeightedRegret)
	}
	if math.Abs(rep.PositiveShare-0.5) > 1e-12 {
		t.Fatalf("positive share = %g, want 0.5", rep.PositiveShare)
	}
}

func TestBaselineParamsMatchPaperWeights(t *testing.T) {
	if got, want := BaselineParams().Weights(), alloc.PaperWeights(); got != want {
		t.Fatalf("baseline weights %+v != paper weights %+v", got, want)
	}
	w := Params{Alpha: 0.3, LatencyShare: 0.4, LoadTilt: 0.2}.Weights()
	if math.Abs(w.Latency+w.Bandwidth-1) > 1e-12 {
		t.Fatalf("latency+bandwidth = %g, want 1", w.Latency+w.Bandwidth)
	}
	if math.Abs(w.CPULoad+w.CPUUtil-0.5) > 1e-12 {
		t.Fatalf("cpuload+cpuutil = %g, want 0.5", w.CPULoad+w.CPUUtil)
	}
	c := Params{Alpha: -3, LatencyShare: 2, LoadTilt: 0.5}.clamp()
	if c.Alpha != 0.05 || c.LatencyShare != 0.95 || c.LoadTilt != 0.5 {
		t.Fatalf("clamp: %+v", c)
	}
}

func tinyTunerConfig(seed uint64) TunerConfig {
	return TunerConfig{
		Seed: seed, Nodes: 32, CoresPerNode: 4, Jobs: 250, Util: 0.6,
		TrainSeeds: 2, HoldoutSeeds: 1,
		GridAlphas:  []float64{0.3, 0.5, 0.7},
		Population:  3,
		Generations: 2,
	}
}

// TestRunDeterministic pins the tuner's determinism contract: two Run
// calls with the same config agree bit for bit (digest and structure),
// for any worker count.
func TestRunDeterministic(t *testing.T) {
	cfg := tinyTunerConfig(42)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digest diverged across worker counts:\n%s\n%s", a.Digest(), b.Digest())
	}
	a.Config.Workers = b.Config.Workers
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("results diverged:\n%+v\n%+v", a, b)
	}
}

// TestRunShape checks the study's structure: baseline self-scores its
// weight sum, the grid covers every requested α, the recommendation is
// never worse than the baseline on the train seeds, and holdout entries
// compare winner vs baseline per seed.
func TestRunShape(t *testing.T) {
	cfg := tinyTunerConfig(7)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Baseline.Score-1) > 1e-9 {
		t.Fatalf("baseline score = %g, want 1", res.Baseline.Score)
	}
	if len(res.Grid) != len(cfg.GridAlphas) {
		t.Fatalf("grid size %d, want %d", len(res.Grid), len(cfg.GridAlphas))
	}
	for i, e := range res.Grid {
		if e.Params.Alpha != cfg.GridAlphas[i] {
			t.Fatalf("grid[%d] alpha %g, want %g", i, e.Params.Alpha, cfg.GridAlphas[i])
		}
		if len(e.Outcomes) != cfg.TrainSeeds {
			t.Fatalf("grid[%d] has %d outcomes, want %d", i, len(e.Outcomes), cfg.TrainSeeds)
		}
	}
	if len(res.Generations) != cfg.Generations {
		t.Fatalf("generations %d, want %d", len(res.Generations), cfg.Generations)
	}
	if res.Best.Score > res.Baseline.Score {
		t.Fatalf("best score %g worse than baseline %g", res.Best.Score, res.Baseline.Score)
	}
	if len(res.Holdout) != cfg.HoldoutSeeds {
		t.Fatalf("holdout size %d, want %d", len(res.Holdout), cfg.HoldoutSeeds)
	}
	for _, h := range res.Holdout {
		if h.Improved != (h.Score < h.BaselineScore) {
			t.Fatalf("holdout %d Improved flag inconsistent: %+v", h.Seed, h)
		}
	}
	wantRuns := cfg.TrainSeeds*(1+len(cfg.GridAlphas)+cfg.Generations*cfg.Population) + 2*cfg.HoldoutSeeds
	if res.Runs != wantRuns {
		t.Fatalf("runs %d, want %d", res.Runs, wantRuns)
	}
}
