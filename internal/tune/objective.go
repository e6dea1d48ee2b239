// Package tune closes the loop the source paper leaves open: it
// hand-picks the Equation 4 trade-off weights (α = β = 0.5) and the §5
// attribute weights, and never asks what the allocator gave up by
// rejecting the runner-up placements. tune re-scores the rejected
// candidates the broker retained per decision (counterfactual regret),
// defines a fitness-weighted multi-objective score over scenario
// outcomes, and searches α/β plus attribute-weight space with a
// deterministic grid and a seeded evolutionary pass over sim.RunMany
// sweeps, turning the hand-picked operating point into a measured
// choice.
package tune

import (
	"math"

	"nlarm/internal/sim"
)

// ObjectiveWeights is the fitness weighting of the tuner's
// multi-objective score: mean job wait, makespan, Jain fairness across
// workload cohorts, and the mean Equation 2 network cost of the chosen
// placements. Every study scores with DefaultObjective.
type ObjectiveWeights struct {
	Wait     float64 `json:"wait"`
	Makespan float64 `json:"makespan"`
	Fairness float64 `json:"fairness"`
	Network  float64 `json:"network"`
}

// DefaultObjective weights waiting time highest, with makespan,
// cross-cohort fairness, and placement network cost sharing the rest.
func DefaultObjective() ObjectiveWeights {
	return ObjectiveWeights{Wait: 0.4, Makespan: 0.2, Fairness: 0.2, Network: 0.2}
}

// Outcome is the objective-relevant extract of one scenario run.
type Outcome struct {
	// MeanWaitSec and MakespanSec come from the capacity model's timing.
	MeanWaitSec float64 `json:"mean_wait_sec"`
	MakespanSec float64 `json:"makespan_sec"`
	// Jain is Jain's fairness index over the per-cohort mean waits
	// (1 = perfectly even across cohorts).
	Jain float64 `json:"jain"`
	// MeanNLCost is the mean Equation 2 network-cost sum of the winning
	// placements (policy-fidelity runs; 0 on capacity runs).
	MeanNLCost float64 `json:"mean_nl_cost"`
}

// OutcomeOf extracts the objective inputs from a scenario result.
func OutcomeOf(res *sim.ScenarioResult) Outcome {
	o := Outcome{MeanWaitSec: res.MeanWaitSec, MakespanSec: res.MakespanSec, Jain: 1}
	if len(res.Cohorts) > 0 {
		waits := make([]float64, len(res.Cohorts))
		for i, c := range res.Cohorts {
			waits[i] = c.MeanWaitSec
		}
		o.Jain = JainIndex(waits)
	}
	if res.Policy != nil {
		o.MeanNLCost = res.Policy.MeanNLCost
	}
	return o
}

// JainIndex is Jain's fairness index (Σx)²/(n·Σx²) over xs, in (0, 1]
// with 1 meaning perfectly even. An empty or all-zero input reads as
// perfectly fair (no one waited).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sum, sumSq := 0.0, 0.0
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// ratioCap bounds a single objective term so one degenerate run (e.g. a
// near-zero baseline denominator) cannot dominate the whole score.
const ratioCap = 10

// ratio is a/b clamped to [0, ratioCap], with the convention that a
// non-positive baseline scores 1 when the candidate is no worse and the
// cap when it is.
func ratio(a, b float64) float64 {
	if b <= 0 {
		if a <= b {
			return 1
		}
		return ratioCap
	}
	r := a / b
	if r > ratioCap {
		return ratioCap
	}
	return r
}

// Score evaluates outcome o against the baseline outcome of the same
// workload seed: each term is the candidate-to-baseline ratio of one
// objective (unfairness 1−Jain for the fairness term), weighted and
// summed. Lower is better; the baseline scores its own weight sum
// (1.0 with the default weights), so score < Score(base, base) means
// the candidate beats the hand-picked operating point.
func (w ObjectiveWeights) Score(o, base Outcome) float64 {
	s := w.Wait * ratio(o.MeanWaitSec, base.MeanWaitSec)
	s += w.Makespan * ratio(o.MakespanSec, base.MakespanSec)
	s += w.Network * ratio(o.MeanNLCost, base.MeanNLCost)
	s += w.Fairness * ratio(1-o.Jain, math.Max(1-base.Jain, 1e-3))
	return s
}
