package harness

import (
	"fmt"
	"math"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/apps"
	"nlarm/internal/rng"
	"nlarm/internal/stats"

	"nlarm/internal/predict"
)

// PredictionConfig drives the prediction-accuracy study: a sequence of
// jobs is allocated round-robin across all four policies, each run's
// execution time is predicted from the monitoring snapshot at launch, and
// predictions are compared with the simulated reality.
type PredictionConfig struct {
	Seed uint64
	// Runs is the number of jobs (default 24; spread across policies).
	Runs int
	// Iterations overrides miniMD's step count.
	Iterations int
}

// The miniMD configuration every run of the study uses.
const predictionProcs, predictionPPN, predictionSize = 32, 4, 16

// PredictionPoint is one job's predicted-vs-actual pair.
type PredictionPoint struct {
	Policy       string
	PredictedSec float64
	ActualSec    float64
}

// PredictionResult aggregates the study.
type PredictionResult struct {
	Cfg    PredictionConfig
	Points []PredictionPoint
	// Pearson is the correlation between predicted and actual times.
	Pearson float64
	// MedianRatio is the median actual/predicted ratio (calibration).
	MedianRatio float64
	// RankAgreement is the fraction of point pairs whose predicted
	// ordering matches the actual ordering (Kendall-style concordance).
	RankAgreement float64
}

// RunPredictionStudy executes the study on a fresh session.
func RunPredictionStudy(cfg PredictionConfig) (*PredictionResult, error) {
	if cfg.Runs == 0 {
		cfg.Runs = 24
	}
	s, err := NewSession(SessionConfig{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.WarmUp(DefaultWarmUp)

	policies := alloc.PaperPolicies()
	r := rng.New(cfg.Seed + 71)
	res := &PredictionResult{Cfg: cfg}
	for i := 0; i < cfg.Runs; i++ {
		pol := policies[i%len(policies)]
		snap, a, err := s.allocate(pol, alloc.Request{
			Procs: predictionProcs, PPN: predictionPPN, Alpha: 0.3, Beta: 0.7,
		}, r.Split())
		if err != nil {
			return nil, fmt.Errorf("harness: prediction study run %d: %w", i, err)
		}
		shape, err := apps.MiniMD(apps.MiniMDParams{S: predictionSize, Steps: cfg.Iterations}, predictionProcs)
		if err != nil {
			return nil, err
		}
		pred, err := predict.EstimateAllocation(snap, shape, a.RankNodes())
		if err != nil {
			return nil, err
		}
		actual, err := s.RunJob(shape, a)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, PredictionPoint{
			Policy:       pol.Name(),
			PredictedSec: pred.Elapsed.Seconds(),
			ActualSec:    actual.Elapsed.Seconds(),
		})
		s.Advance(time.Minute)
	}

	var xs, ys, ratios []float64
	for _, p := range res.Points {
		xs = append(xs, p.PredictedSec)
		ys = append(ys, p.ActualSec)
		if p.PredictedSec > 0 {
			ratios = append(ratios, p.ActualSec/p.PredictedSec)
		}
	}
	res.Pearson = stats.Pearson(xs, ys)
	res.MedianRatio = stats.Summarize(ratios).Median
	concordant, total := 0, 0
	for i := 0; i < len(res.Points); i++ {
		for j := i + 1; j < len(res.Points); j++ {
			dp := res.Points[i].PredictedSec - res.Points[j].PredictedSec
			da := res.Points[i].ActualSec - res.Points[j].ActualSec
			if dp == 0 || da == 0 {
				continue
			}
			total++
			if math.Signbit(dp) == math.Signbit(da) {
				concordant++
			}
		}
	}
	if total > 0 {
		res.RankAgreement = float64(concordant) / float64(total)
	}
	return res, nil
}

// Render renders the study.
func (r *PredictionResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Prediction study — miniMD s=%d on %d procs, %d runs across all policies",
			predictionSize, predictionProcs, len(r.Points)),
		Header: []string{"policy", "predicted (s)", "actual (s)", "ratio"},
	}
	for _, p := range r.Points {
		ratio := 0.0
		if p.PredictedSec > 0 {
			ratio = p.ActualSec / p.PredictedSec
		}
		t.AddRow(p.Policy, Sec(p.PredictedSec), Sec(p.ActualSec), F3(ratio))
	}
	return t.String() + fmt.Sprintf(
		"\nPearson r = %.3f, median actual/predicted = %.2f, pairwise rank agreement = %.0f%%\n",
		r.Pearson, r.MedianRatio, r.RankAgreement*100)
}
