package harness

import (
	"fmt"
	"time"

	"nlarm/internal/apps"
	"nlarm/internal/broker"
	"nlarm/internal/monitor"
	"nlarm/internal/stats"
)

// AblationConfig drives the design-choice ablations DESIGN.md calls out:
// the α/β balance of Equation 4 (β=0 degenerates to load-aware
// allocation, β=1 ignores compute load entirely) and the monitoring
// staleness (how much a slower BandwidthD hurts allocation quality).
type AblationConfig struct {
	Seed uint64
	// Iterations overrides miniMD's step count (0 = default 100).
	Iterations int
	// Repeats is the number of runs averaged per point (default 3).
	Repeats int
	// Betas are the β values swept, α = 1-β (default 0, 0.25, 0.5,
	// 0.75, 1).
	Betas []float64
	// BandwidthPeriods are the BandwidthD sweep intervals tested
	// (default 1, 5 and 15 minutes).
	BandwidthPeriods []time.Duration
}

// The miniMD configuration under ablation: the paper's §5.3 case study.
const ablationProcs, ablationSize, ablationPPN = 32, 16, 4

// BetaPoint is one β value's outcome.
type BetaPoint struct {
	Beta    float64
	MeanSec float64
	CoV     float64
}

// StalenessPoint is one monitoring-cadence outcome.
type StalenessPoint struct {
	BandwidthPeriod time.Duration
	MeanSec         float64
}

// AblationData is the full ablation result.
type AblationData struct {
	Cfg       AblationConfig
	BetaSweep []BetaPoint
	Staleness []StalenessPoint
}

// runNLA allocates with the heuristic under the given α/β through the
// session's broker and executes one miniMD run, cfg.Repeats times over;
// it returns the run times in seconds.
func runNLA(s *Session, cfg AblationConfig, alpha, beta float64) ([]float64, error) {
	req := broker.Request{Procs: ablationProcs, PPN: ablationPPN, Alpha: alpha, Beta: beta, Policy: NLAName, Force: true}
	var times []float64
	for rep := 0; rep < cfg.Repeats; rep++ {
		resp, err := s.Broker.Allocate(req)
		if err != nil {
			return nil, err
		}
		shape, err := apps.MiniMD(apps.MiniMDParams{S: ablationSize, Steps: cfg.Iterations}, ablationProcs)
		if err != nil {
			return nil, err
		}
		res, err := s.RunJob(shape, resp.Allocation)
		if err != nil {
			return nil, err
		}
		s.Advance(time.Minute)
		times = append(times, res.Elapsed.Seconds())
	}
	return times, nil
}

// RunAblation executes both ablations and returns the data.
func RunAblation(cfg AblationConfig) (*AblationData, error) {
	if cfg.Repeats == 0 {
		cfg.Repeats = 3
	}
	if cfg.Betas == nil {
		cfg.Betas = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	if cfg.BandwidthPeriods == nil {
		cfg.BandwidthPeriods = []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute}
	}
	data := &AblationData{Cfg: cfg}

	// β sweep on one long-lived session.
	s, err := NewSession(SessionConfig{Seed: cfg.Seed, Broker: broker.Config{Seed: cfg.Seed + 31}})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.WarmUp(DefaultWarmUp)
	for _, beta := range cfg.Betas {
		times, err := runNLA(s, cfg, 1-beta, beta)
		if err != nil {
			return nil, fmt.Errorf("harness: ablation β=%g: %w", beta, err)
		}
		sum := stats.Summarize(times)
		data.BetaSweep = append(data.BetaSweep, BetaPoint{Beta: beta, MeanSec: sum.Mean, CoV: sum.CoV})
	}

	// Staleness sweep: a fresh session per monitoring cadence so the
	// environment is identical except for BandwidthD's period.
	alpha, beta := apps.PaperAlphaBetaMiniMD()
	for _, period := range cfg.BandwidthPeriods {
		ss, err := NewSession(SessionConfig{
			Seed:    cfg.Seed,
			Monitor: monitor.Config{BandwidthPeriod: period},
			Broker:  broker.Config{Seed: cfg.Seed + 67},
		})
		if err != nil {
			return nil, err
		}
		warm := DefaultWarmUp
		if period*2 > warm {
			warm = period*2 + 2*time.Minute
		}
		ss.WarmUp(warm)
		times, err := runNLA(ss, cfg, alpha, beta)
		ss.Close()
		if err != nil {
			return nil, fmt.Errorf("harness: ablation period=%v: %w", period, err)
		}
		data.Staleness = append(data.Staleness, StalenessPoint{
			BandwidthPeriod: period,
			MeanSec:         stats.Mean(times),
		})
	}
	return data, nil
}

// Render renders the ablation tables.
func (d *AblationData) Render() string {
	t1 := Table{
		Title:  fmt.Sprintf("Ablation — β sweep (miniMD, %d procs, s=%d; β=0 is the pure load-aware limit)", ablationProcs, ablationSize),
		Header: []string{"beta", "mean time (s)", "CoV"},
	}
	for _, p := range d.BetaSweep {
		t1.AddRow(fmt.Sprintf("%.2f", p.Beta), Sec(p.MeanSec), F3(p.CoV))
	}
	t2 := Table{
		Title:  "Ablation — monitoring staleness (BandwidthD sweep period)",
		Header: []string{"period", "mean time (s)"},
	}
	for _, p := range d.Staleness {
		t2.AddRow(p.BandwidthPeriod.String(), Sec(p.MeanSec))
	}
	return t1.String() + "\n" + t2.String()
}
