package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// runScratch carries one worker's reusable buffers across scenario
// runs: the capacity model's pooled per-event state and the policy
// layer's scratch. Runs that share a scratch must be sequential; the
// sweep gives each worker its own.
type runScratch struct {
	// runs is the run heap, a heapq min-heap under runLess holding
	// exactly the running jobs: a completed run leaves it empty.
	runs    []runEntry
	popped  []runEntry
	jobFree []*simJob
	pol     policyScratch
}

// SweepResult aggregates a RunMany sweep.
type SweepResult struct {
	// Results holds one entry per config, in config order — independent
	// of worker count or completion order.
	Results []*ScenarioResult `json:"results"`
	// Workers is the worker count actually used.
	Workers int `json:"workers"`
	// Digest chains the per-run trace digests in config order: the
	// whole sweep's determinism handle.
	Digest string `json:"digest"`
	// WallTime is the sweep's total wall-clock time.
	WallTime time.Duration `json:"wall_time"`
}

// RunMany executes every config, fanning them across up to `workers`
// goroutines (0 or less means GOMAXPROCS, clamped to the config
// count). Each worker owns one runScratch, so per-run state is pooled
// without cross-run sharing; results land in pre-assigned slots, making
// output — including the aggregate digest — bit-identical for any
// worker count. The first failing config (by index, not completion
// order) aborts the sweep's result.
func RunMany(cfgs []ScenarioConfig, workers int) (*SweepResult, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: sweep needs at least one config")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	wallStart := time.Now()
	results := make([]*ScenarioResult, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := &runScratch{}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				results[i], errs[i] = runScenario(cfgs[i], io.Discard, rs)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: sweep run %d: %w", i, err)
		}
	}
	h := sha256.New()
	for i, res := range results {
		fmt.Fprintf(h, "%d %s\n", i, res.Digest)
	}
	return &SweepResult{
		Results:  results,
		Workers:  workers,
		Digest:   hex.EncodeToString(h.Sum(nil)),
		WallTime: time.Since(wallStart),
	}, nil
}

// Render formats the sweep as a small report.
func (r *SweepResult) Render() string {
	out := fmt.Sprintf("sim sweep: %d runs on %d workers in %v | digest %s\n",
		len(r.Results), r.Workers, r.WallTime.Round(time.Millisecond), r.Digest[:16])
	totalJobs, totalCompleted := 0, 0
	for _, res := range r.Results {
		totalJobs += res.Jobs
		totalCompleted += res.Completed
	}
	out += fmt.Sprintf("  %d jobs total, %d completed (%.0f jobs/s of wall time)\n",
		totalJobs, totalCompleted, float64(totalCompleted)/r.WallTime.Seconds())
	return out
}
