package harness

import (
	"fmt"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/apps"
	"nlarm/internal/mpisim"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
)

// CoScheduleConfig drives the co-scheduling experiment — a scenario
// beyond the paper's one-job-at-a-time protocol: K jobs are submitted
// back-to-back and run *concurrently*, so each allocation decision shapes
// the interference the next jobs see. Good allocators spread jobs across
// disjoint, well-connected regions; bad ones pile jobs onto the same
// nodes and trunks.
type CoScheduleConfig struct {
	Seed uint64
	// Jobs is the number of concurrently-submitted jobs (default 4).
	Jobs int
	// Iterations overrides miniMD's step count.
	Iterations int
	// Repeats averages the whole batch this many times (default 3).
	Repeats int
}

// Each job's miniMD configuration: four 4-node jobs fit the 60-node
// cluster comfortably.
const coschedProcs, coschedPPN, coschedSize = 16, 4, 16

// coschedSubmitGap is the virtual time between submissions — enough for
// NodeStateD to see the previous job's ranks.
const coschedSubmitGap = 5 * time.Second

// CoScheduleResult summarizes the experiment.
type CoScheduleResult struct {
	Cfg CoScheduleConfig
	// MeanJobSec is the mean per-job execution time per policy.
	MeanJobSec map[string]float64
	// MakespanSec is the mean batch makespan (first submit to last
	// completion) per policy.
	MakespanSec map[string]float64
	// Overlaps counts, per policy, the total node-sharing collisions
	// (pairs of concurrent jobs that shared at least one node).
	Overlaps map[string]int
}

// RunCoSchedule executes the experiment.
func RunCoSchedule(cfg CoScheduleConfig) (*CoScheduleResult, error) {
	if cfg.Jobs == 0 {
		cfg.Jobs = 4
	}
	if cfg.Repeats == 0 {
		cfg.Repeats = 3
	}
	s, err := NewSession(SessionConfig{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.WarmUp(DefaultWarmUp)

	res := &CoScheduleResult{
		Cfg:         cfg,
		MeanJobSec:  make(map[string]float64),
		MakespanSec: make(map[string]float64),
		Overlaps:    make(map[string]int),
	}
	r := rng.New(cfg.Seed + 41)
	// The four paper policies plus the reservation-aware variant of the
	// heuristic (the anti-herding extension motivated by this experiment).
	policies := append(alloc.PaperPolicies(),
		alloc.NewReservingPolicy(alloc.NetLoadAware{}, 90*time.Second))
	for _, pol := range policies {
		var jobTimes []float64
		var makespans []float64
		for rep := 0; rep < cfg.Repeats; rep++ {
			batchStart := s.Now()
			type launched struct {
				nodes []int
				done  bool
				res   mpisim.Result
			}
			batch := make([]*launched, cfg.Jobs)
			// Submit all jobs back-to-back; each allocation sees the
			// monitor's view including the previously launched jobs.
			for j := 0; j < cfg.Jobs; j++ {
				_, a, err := s.allocate(pol, alloc.Request{
					Procs: coschedProcs, PPN: coschedPPN, Alpha: 0.3, Beta: 0.7,
				}, r.Split())
				if err != nil {
					return nil, fmt.Errorf("harness: cosched %s job %d: %w", pol.Name(), j, err)
				}
				shape, err := apps.MiniMD(apps.MiniMDParams{S: coschedSize, Steps: cfg.Iterations}, coschedProcs)
				if err != nil {
					return nil, err
				}
				entry := &launched{nodes: a.Nodes}
				batch[j] = entry
				if _, err := s.World.LaunchJob(shape, mpisim.Placement{NodeOf: a.RankNodes()}, func(r mpisim.Result) {
					entry.res = r
					entry.done = true
				}); err != nil {
					return nil, err
				}
				s.Advance(coschedSubmitGap)
			}
			// Count node-sharing collisions among the concurrent batch.
			for a := 0; a < cfg.Jobs; a++ {
				for b := a + 1; b < cfg.Jobs; b++ {
					if shareNode(batch[a].nodes, batch[b].nodes) {
						res.Overlaps[pol.Name()]++
					}
				}
			}
			// Run until every job in the batch completes.
			err := awaitEvents(s.Sched, s.Now().Add(maxJobVirtualTime), func() bool {
				for _, e := range batch {
					if !e.done {
						return false
					}
				}
				return true
			})
			if err != nil {
				return nil, fmt.Errorf("harness: cosched %s batch stalled: %w", pol.Name(), err)
			}
			var lastEnd time.Time
			for _, e := range batch {
				jobTimes = append(jobTimes, e.res.Elapsed.Seconds())
				if e.res.End.After(lastEnd) {
					lastEnd = e.res.End
				}
			}
			makespans = append(makespans, lastEnd.Sub(batchStart).Seconds())
			s.Advance(2 * time.Minute)
		}
		res.MeanJobSec[pol.Name()] = stats.Mean(jobTimes)
		res.MakespanSec[pol.Name()] = stats.Mean(makespans)
	}
	return res, nil
}

func shareNode(a, b []int) bool {
	set := make(map[int]bool, len(a))
	for _, n := range a {
		set[n] = true
	}
	for _, n := range b {
		if set[n] {
			return true
		}
	}
	return false
}

// FormatCoSchedule renders the experiment table.
func FormatCoSchedule(r *CoScheduleResult) string {
	t := Table{
		Title: fmt.Sprintf("Co-scheduling — %d concurrent miniMD jobs (%d procs each, mean of %d batches)",
			r.Cfg.Jobs, coschedProcs, r.Cfg.Repeats),
		Header: []string{"policy", "mean job time (s)", "batch makespan (s)", "node-sharing collisions"},
	}
	for _, pol := range orderedPolicies(r.MeanJobSec) {
		t.AddRow(pol, Sec(r.MeanJobSec[pol]), Sec(r.MakespanSec[pol]),
			fmt.Sprintf("%d", r.Overlaps[pol]))
	}
	return t.String()
}
