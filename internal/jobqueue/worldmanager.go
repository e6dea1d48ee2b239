package jobqueue

import (
	"cmp"
	"fmt"
	"strings"
	"sync"
	"time"

	"nlarm/internal/apps"
	"nlarm/internal/broker"
	"nlarm/internal/metrics"
	"nlarm/internal/mpisim"
	"nlarm/internal/predict"
	"nlarm/internal/world"
)

// WorldManager implements broker.Manager on top of a Queue and the
// simulated world: submitted jobs are queued until the broker grants an
// allocation, then executed as simulated MPI jobs on the granted nodes.
// This is what turns cmd/nlarm-broker into a complete (miniature)
// resource manager.
type WorldManager struct {
	q *Queue
	w *world.World
	// snapFn, when set, supplies a monitoring snapshot at launch time so
	// each job's execution time is predicted before it runs.
	snapFn func() (*metrics.Snapshot, error)

	mu   sync.Mutex
	runs map[int]*managedRun
}

type managedRun struct {
	nodes     []int
	hostfile  []string
	predicted time.Duration
	result    *mpisim.Result
}

// NewWorldManager wires a queue to the world.
func NewWorldManager(q *Queue, w *world.World) *WorldManager {
	return &WorldManager{q: q, w: w, runs: make(map[int]*managedRun)}
}

// WithPredictions enables launch-time execution-time predictions from
// monitoring snapshots (internal/predict). Returns the manager for
// chaining.
func (m *WorldManager) WithPredictions(snapFn func() (*metrics.Snapshot, error)) *WorldManager {
	m.snapFn = snapFn
	return m
}

// buildShape constructs the workload model for a submission. A shape loops over
// every rank, so it first refuses more processes than the world hosts (Σ cores, or nodes × PPN).
func (m *WorldManager) buildShape(req broker.SubmitRequest) (*mpisim.Shape, error) {
	unhosted := req.Request.Procs
	for _, n := range m.w.Cluster().Nodes {
		unhosted -= cmp.Or(max(req.Request.PPN, 0), n.Cores)
	}
	if req.Request.Procs <= 0 || unhosted > 0 {
		return nil, fmt.Errorf("jobqueue: submission %q requests %d processes, the cluster hosts %d", req.Name, req.Request.Procs, req.Request.Procs-unhosted)
	}
	switch strings.ToLower(req.App) {
	case "minimd":
		return apps.MiniMD(apps.MiniMDParams{S: req.Size, Steps: req.Iterations}, req.Request.Procs)
	case "minife":
		return apps.MiniFE(apps.MiniFEParams{NX: req.Size, Iters: req.Iterations}, req.Request.Procs)
	case "stencil2d":
		return apps.Stencil2D(apps.Stencil2DParams{N: req.Size, Steps: req.Iterations}, req.Request.Procs)
	default:
		return nil, fmt.Errorf("jobqueue: unknown app %q (want minimd, minife or stencil2d)", req.App)
	}
}

// Submit implements broker.Manager.
func (m *WorldManager) Submit(req broker.SubmitRequest) (int, error) {
	shape, err := m.buildShape(req) // up front, so bad submissions fail fast
	if err != nil {
		return 0, err
	}
	name := cmp.Or(req.Name, fmt.Sprintf("%s-%d", strings.ToLower(req.App), req.Size))
	spec := Spec{
		Name:     name,
		Request:  req.Request,
		Walltime: req.Walltime,
		Priority: req.Priority,
		Start: func(queueID int, resp broker.Response, done func(error)) error {
			rankNodes := resp.Allocation.RankNodes()
			if len(rankNodes) != shape.Ranks {
				return fmt.Errorf("jobqueue: allocation has %d rank slots, shape needs %d", len(rankNodes), shape.Ranks)
			}
			run := &managedRun{nodes: resp.Nodes, hostfile: resp.Hostfile}
			if m.snapFn != nil {
				if snap, err := m.snapFn(); err == nil {
					if est, err := predict.EstimateAllocation(snap, shape, rankNodes); err == nil {
						run.predicted = est.Elapsed
					}
				}
			}
			m.mu.Lock()
			m.runs[queueID] = run
			m.mu.Unlock()
			_, err := m.w.LaunchJob(shape, mpisim.Placement{NodeOf: rankNodes}, func(res mpisim.Result) {
				m.mu.Lock()
				run.result = &res
				m.mu.Unlock()
				if res.Failed {
					done(fmt.Errorf("jobqueue: job aborted: %s", res.FailureReason))
					return
				}
				done(nil)
			})
			return err
		},
	}
	return m.q.Submit(spec)
}

// Status implements broker.Manager.
func (m *WorldManager) Status(id int) (broker.JobInfo, bool) {
	j, ok := m.q.Job(id)
	if !ok {
		return broker.JobInfo{}, false
	}
	info := broker.JobInfo{
		ID:          j.ID,
		Name:        j.Name,
		State:       string(j.State),
		Attempts:    j.Attempts,
		WaitAnswers: j.WaitAnswers,
		Walltime:    j.Walltime,
		Priority:    j.Priority,
		Backfilled:  j.Backfilled,
	}
	if j.Err != nil {
		info.Error = j.Err.Error()
	}
	m.mu.Lock()
	if run, ok := m.runs[id]; ok {
		info.Nodes = run.nodes
		info.Hostfile = run.hostfile
		info.PredictedElapsed = run.predicted
		if run.result != nil {
			info.Elapsed = run.result.Elapsed
		}
	}
	m.mu.Unlock()
	return info, true
}

// QueueStats implements broker.Manager.
func (m *WorldManager) QueueStats() broker.QueueStats {
	s := m.q.Stats()
	return broker.QueueStats{Pending: s.Pending, Running: s.Running, Done: s.Done, Failed: s.Failed}
}
