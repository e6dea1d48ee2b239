package broker

import "time"

// SubmitRequest asks the resource manager to queue and run a job (rather
// than only returning a hostfile). App selects the built-in workload
// model; real deployments would carry an mpiexec command line instead.
type SubmitRequest struct {
	// Name labels the job.
	Name string `json:"name"`
	// App is "minimd", "minife" or "stencil2d".
	App string `json:"app"`
	// Size is miniMD's s, miniFE's nx or stencil2d's N.
	Size int `json:"size"`
	// Iterations overrides the app's default iteration count.
	Iterations int `json:"iterations,omitempty"`
	// Request is the allocation request made when the job is launched.
	Request Request `json:"request"`
	// Walltime is the user's estimated run time. Zero means unknown; the
	// backfill scheduler only considers jobs with an estimate, exactly
	// like EASY backfill in batch schedulers.
	Walltime time.Duration `json:"walltime,omitempty"`
	// Priority orders the queue: higher runs earlier, ties keep
	// submission order. Zero is the default priority.
	Priority int `json:"priority,omitempty"`
}

// JobInfo is the externally visible state of a submitted job.
type JobInfo struct {
	ID          int           `json:"id"`
	Name        string        `json:"name"`
	State       string        `json:"state"`
	Attempts    int           `json:"attempts"`
	WaitAnswers int           `json:"wait_answers"`
	Nodes       []int         `json:"nodes,omitempty"`
	Hostfile    []string      `json:"hostfile,omitempty"`
	Elapsed     time.Duration `json:"elapsed,omitempty"`
	// PredictedElapsed is the launch-time execution-time prediction from
	// monitoring data (0 when predictions are disabled).
	PredictedElapsed time.Duration `json:"predicted_elapsed,omitempty"`
	// Walltime and Priority echo the submitted estimate and queue
	// priority; Backfilled reports that the job was started out of FIFO
	// order by the backfill scheduler.
	Walltime   time.Duration `json:"walltime,omitempty"`
	Priority   int           `json:"priority,omitempty"`
	Backfilled bool          `json:"backfilled,omitempty"`
	Error      string        `json:"error,omitempty"`
}

// QueueStats summarizes the manager's queue.
type QueueStats struct {
	Pending int `json:"pending"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
}

// Manager extends a broker Server with job submission: jobs are queued,
// launched when the broker stops recommending to wait, and tracked to
// completion. cmd/nlarm-broker wires this to internal/jobqueue plus the
// simulated world.
type Manager interface {
	// Submit queues a job and returns its ID.
	Submit(req SubmitRequest) (int, error)
	// Status returns a job's state.
	Status(id int) (JobInfo, bool)
	// QueueStats returns queue counters.
	QueueStats() QueueStats
}
