package harness

import (
	"fmt"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/broker"
	"nlarm/internal/cluster"
	"nlarm/internal/jobqueue"
	"nlarm/internal/mpisim"
	"nlarm/internal/stats"
)

// BackfillConfig drives the FIFO-vs-backfill queue experiment: a long
// hog fills half the cluster, a wide head job must wait for nearly all
// of it, and a burst of short walltimed jobs queues up behind the head.
// Under strict FIFO the shorts inherit the head's entire wait even
// though half the cluster idles; with EASY backfill they slip into the
// idle half without delaying the head.
type BackfillConfig struct {
	Seed uint64
	// Shorts is the number of short jobs queued behind the head
	// (default 8).
	Shorts int
}

// BackfillModeResult summarizes one queue discipline.
type BackfillModeResult struct {
	Mode string `json:"mode"`
	// MeanWaitSec / MaxWaitSec aggregate submit-to-launch waits over all
	// jobs (hog, head, shorts).
	MeanWaitSec float64 `json:"mean_wait_sec"`
	MaxWaitSec  float64 `json:"max_wait_sec"`
	// MakespanSec is first-submit to last-completion.
	MakespanSec float64 `json:"makespan_sec"`
	// Backfilled counts jobs started out of queue order.
	Backfilled int `json:"backfilled"`
	// Failed counts jobs that never ran (starvation or errors) — must be
	// zero in both modes.
	Failed int `json:"failed"`
	// StartsSec holds each job's start offset from first submit in
	// submission order (-1 for failed jobs) — the per-decision handle
	// tests compare; omitted from reports.
	StartsSec []float64 `json:"-"`
}

// BackfillResult holds both modes, FIFO first.
type BackfillResult struct {
	Cfg   BackfillConfig
	Modes []BackfillModeResult
}

// backfillJob is one scripted submission of the experiment workload.
type backfillJob struct {
	name       string
	procs, ppn int
	computeSec float64
	walltime   time.Duration
}

// backfillWorkload is the scripted queue content: a 600s hog on half the
// 32-node testbed, a head needing 200 of 256 slots, and short 60s jobs
// that fit the idle half. Walltime estimates are deliberately loose
// (every user overestimates) — the scheduler only needs them ordered
// correctly.
func backfillWorkload(shorts int) []backfillJob {
	jobs := []backfillJob{
		{name: "hog", procs: 128, ppn: 8, computeSec: 600, walltime: 700 * time.Second},
		{name: "head", procs: 200, ppn: 8, computeSec: 120, walltime: 300 * time.Second},
	}
	for i := 0; i < shorts; i++ {
		jobs = append(jobs, backfillJob{
			name: fmt.Sprintf("short-%d", i), procs: 16, ppn: 8,
			computeSec: 90, walltime: 120 * time.Second,
		})
	}
	return jobs
}

// RunBackfill executes the scripted workload under both queue
// disciplines on identically seeded sessions.
func RunBackfill(cfg BackfillConfig) (*BackfillResult, error) {
	if cfg.Shorts == 0 {
		cfg.Shorts = 8
	}
	res := &BackfillResult{Cfg: cfg}
	for _, backfill := range []bool{false, true} {
		mode, err := runBackfillMode(cfg, backfill)
		if err != nil {
			return nil, err
		}
		res.Modes = append(res.Modes, *mode)
	}
	return res, nil
}

func runBackfillMode(cfg BackfillConfig, backfill bool) (*BackfillModeResult, error) {
	cl, err := cluster.BuildUniform(4, 8, 8, 3.0, 8192)
	if err != nil {
		return nil, err
	}
	s, err := NewSession(SessionConfig{
		Seed:    cfg.Seed,
		Cluster: cl,
		Broker:  broker.Config{Seed: cfg.Seed + 7, WaitLoadPerCore: 0.4},
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.WarmUp(DefaultWarmUp)

	rp := alloc.NewReservingPolicy(alloc.LoadAware{}, 90*time.Second)
	s.Broker.RegisterPolicy(rp)
	q := jobqueue.New(s.Broker, s.Sched, jobqueue.Config{
		RetryPeriod: 10 * time.Second,
		Backfill:    backfill,
		Reserve:     rp,
	})
	if err := q.Start(); err != nil {
		return nil, err
	}
	defer q.Stop()

	jobs := backfillWorkload(cfg.Shorts)
	ids := make([]int, 0, len(jobs))
	firstSubmit := s.Now()
	for _, job := range jobs {
		job := job
		id, err := q.Submit(jobqueue.Spec{
			Name:     job.name,
			Request:  broker.Request{Procs: job.procs, PPN: job.ppn, Alpha: 0.5, Beta: 0.5},
			Walltime: job.walltime,
			Priority: 0,
			Start: func(qid int, resp broker.Response, done func(error)) error {
				shape := &mpisim.Shape{
					Name: job.name, Ranks: job.procs, Iterations: 1,
					ComputeSecPerIter: job.computeSec, RefFreqGHz: 3.0,
				}
				_, err := s.World.LaunchJob(shape, mpisim.Placement{NodeOf: resp.Allocation.RankNodes()},
					func(r mpisim.Result) {
						if r.Failed {
							done(fmt.Errorf("harness: %s aborted: %s", job.name, r.FailureReason))
							return
						}
						done(nil)
					})
				return err
			},
		})
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
		if job.name == "hog" {
			// The head must see the hog's load: give NodeStateD time to
			// observe it and the 1-minute mean time to ramp, or the head
			// (and the shorts behind it) launch onto a cluster the monitor
			// still reports idle.
			s.Advance(90 * time.Second)
		} else {
			s.Advance(5 * time.Second)
		}
	}

	deadline := s.Now().Add(2 * time.Hour)
	if err := awaitEvents(s.Sched, deadline, func() bool {
		return q.Stats().Done+q.Stats().Failed >= len(jobs)
	}); err != nil {
		return nil, fmt.Errorf("harness: backfill experiment (backfill=%v) stalled: %w (%+v)", backfill, err, q.Stats())
	}

	mode := &BackfillModeResult{Mode: "fifo"}
	if backfill {
		mode.Mode = "backfill"
	}
	var waits []float64
	var lastEnd time.Time
	for _, id := range ids {
		j, ok := q.Job(id)
		if !ok {
			return nil, fmt.Errorf("harness: job %d vanished", id)
		}
		if j.State != jobqueue.StateDone {
			mode.Failed++
			mode.StartsSec = append(mode.StartsSec, -1)
			continue
		}
		mode.StartsSec = append(mode.StartsSec, j.Started.Sub(firstSubmit).Seconds())
		w := j.Started.Sub(j.Submitted).Seconds()
		waits = append(waits, w)
		if w > mode.MaxWaitSec {
			mode.MaxWaitSec = w
		}
		if j.Finished.After(lastEnd) {
			lastEnd = j.Finished
		}
		if j.Backfilled {
			mode.Backfilled++
		}
	}
	mode.MeanWaitSec = stats.Mean(waits)
	mode.MakespanSec = lastEnd.Sub(firstSubmit).Seconds()
	return mode, nil
}

// Render renders the experiment table.
func (r *BackfillResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Queue discipline — 600s hog on half the cluster, wide head, %d short jobs behind it",
			r.Cfg.Shorts),
		Header: []string{"mode", "mean wait (s)", "max wait (s)", "makespan (s)", "backfilled", "failed"},
	}
	for _, m := range r.Modes {
		t.AddRow(m.Mode, Sec(m.MeanWaitSec), Sec(m.MaxWaitSec), Sec(m.MakespanSec),
			fmt.Sprintf("%d", m.Backfilled), fmt.Sprintf("%d", m.Failed))
	}
	return t.String()
}
