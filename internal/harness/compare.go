package harness

import (
	"fmt"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/mpisim"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
)

// NLAName is the heuristic's policy name, used when computing gains.
var NLAName = alloc.NetLoadAware{}.Name()

// Trial is one job execution under one policy.
type Trial struct {
	Round      int
	Policy     string
	Allocation alloc.Allocation
	// Group is the allocated group's state at allocation time (Table 4).
	Group GroupState
	// Run holds ground-truth measurements taken during execution (Fig 5).
	Run    RunStats
	Result mpisim.Result
}

// ElapsedSec is the trial's execution time in seconds.
func (t Trial) ElapsedSec() float64 { return t.Result.Elapsed.Seconds() }

// CompareConfig drives the paper's protocol: "We ran all four approaches
// in sequence for fair evaluation, and repeated this for 5 times to
// account for network variability."
type CompareConfig struct {
	// MakeShape builds a fresh shape per run.
	MakeShape func() (*mpisim.Shape, error)
	// Request is the allocation request used by all policies.
	Request alloc.Request
	// Repeats is the number of rounds; 0 means 5.
	Repeats int
	// Spacing is virtual idle time between consecutive runs; 0 means 30s.
	Spacing time.Duration
	// Seed drives policy randomness; derived from the session seed when 0.
	Seed uint64
}

// Compare executes the protocol on the session and returns all trials.
func (s *Session) Compare(cfg CompareConfig) ([]Trial, error) {
	if cfg.MakeShape == nil {
		return nil, fmt.Errorf("harness: Compare needs MakeShape")
	}
	repeats := cfg.Repeats
	if repeats == 0 {
		repeats = 5
	}
	spacing := cfg.Spacing
	if spacing == 0 {
		spacing = 30 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0xC0FFEE
	}
	r := rng.New(seed)

	var trials []Trial
	for round := 0; round < repeats; round++ {
		for _, pol := range alloc.PaperPolicies() {
			snap, a, err := s.allocate(pol, cfg.Request, r.Split())
			if err != nil {
				return nil, fmt.Errorf("harness: round %d policy %s: %w", round, pol.Name(), err)
			}
			group := GroupStateOf(snap, a.Nodes)
			shape, err := cfg.MakeShape()
			if err != nil {
				return nil, err
			}
			res, runStats, err := s.RunJobSampled(shape, a)
			if err != nil {
				return nil, fmt.Errorf("harness: round %d policy %s: %w", round, pol.Name(), err)
			}
			trials = append(trials, Trial{
				Round:      round,
				Policy:     pol.Name(),
				Allocation: a,
				Group:      group,
				Run:        runStats,
				Result:     res,
			})
			s.Advance(spacing)
		}
	}
	return trials, nil
}

// ByPolicy groups trial execution times (seconds) by policy name.
func ByPolicy(trials []Trial) map[string][]float64 {
	out := make(map[string][]float64)
	for _, t := range trials {
		out[t.Policy] = append(out[t.Policy], t.ElapsedSec())
	}
	return out
}

// MeanElapsed returns each policy's mean execution time in seconds.
func MeanElapsed(trials []Trial) map[string]float64 {
	out := make(map[string]float64)
	for pol, times := range ByPolicy(trials) {
		out[pol] = stats.Mean(times)
	}
	return out
}

// CoVByPolicy returns each policy's coefficient of variation of execution
// time (the paper's run-stability metric, §5.1/§5.2).
func CoVByPolicy(trials []Trial) map[string]float64 {
	out := make(map[string]float64)
	for pol, times := range ByPolicy(trials) {
		out[pol] = stats.Summarize(times).CoV
	}
	return out
}

// MeanGroupLoadPerCore returns each policy's mean allocated-group CPU
// load per logical core measured *during* the runs (Figure 5's quantity;
// it includes the job's own busy-waiting ranks, which is why the paper's
// values are far above the allocation-time loads of Table 4).
func MeanGroupLoadPerCore(trials []Trial) map[string]float64 {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, t := range trials {
		sums[t.Policy] += t.Run.MeanLoadPerCore
		counts[t.Policy]++
	}
	out := make(map[string]float64, len(sums))
	for pol, sum := range sums {
		out[pol] = sum / float64(counts[pol])
	}
	return out
}

// GainsVsBaselines computes, per configuration, the relative improvement
// of the net-load-aware policy over each baseline, from per-configuration
// mean execution times. configMeans maps an arbitrary configuration key
// to MeanElapsed output. The returned map gives, per baseline policy, the
// gain distribution across configurations (percent).
func GainsVsBaselines(configMeans []map[string]float64) map[string][]float64 {
	out := make(map[string][]float64)
	for _, means := range configMeans {
		nla, ok := means[NLAName]
		if !ok {
			continue
		}
		for pol, t := range means {
			if pol == NLAName {
				continue
			}
			out[pol] = append(out[pol], stats.GainPercent(t, nla))
		}
	}
	return out
}
