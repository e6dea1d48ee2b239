// Package jobqueue turns the broker into a small resource manager: jobs
// are submitted to a queue, and each is launched as soon as the broker
// stops recommending to wait (§6 of the paper: "If the overall load on
// the cluster is extremely high ... our tool should recommend waiting
// rather than allocating it right away").
//
// By default the queue is strict FIFO with head-of-line blocking, like
// the paper's single-cluster assumption. With Config.Backfill it becomes
// a walltime-aware EASY-backfill scheduler: the head job keeps its place
// and receives a capacity reservation (an earliest-start estimate backed
// by a shadow reservation charged through the allocator's
// ReservingPolicy), and jobs behind it may start out of order only when
// their walltime estimate fits entirely before that reserved start, with
// an aging bound so no job starves behind a stream of backfills. Jobs
// without a walltime estimate never backfill.
package jobqueue

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/broker"
	"nlarm/internal/metrics"
	"nlarm/internal/obs"
	"nlarm/internal/simtime"
)

// State is a queued job's lifecycle state.
type State string

const (
	// StatePending means the job is waiting for an allocation.
	StatePending State = "pending"
	// StateRunning means the job was launched and has not completed.
	StateRunning State = "running"
	// StateDone means the job's Run callback reported completion.
	StateDone State = "done"
	// StateFailed means allocation or launch failed permanently.
	StateFailed State = "failed"
)

// Spec describes a job submission.
type Spec struct {
	// Name labels the job in status output.
	Name string
	// Request is the broker request made on the job's behalf. Force is
	// ignored — the queue exists to honor wait recommendations.
	Request broker.Request
	// Walltime is the user's estimated run time. Zero means unknown;
	// only jobs with an estimate are considered for backfill, and an
	// estimate is a scheduling input, not a kill deadline.
	Walltime time.Duration
	// Priority orders the queue: higher-priority jobs are inserted ahead
	// of lower-priority ones, ties preserve submission order. Zero is
	// the default.
	Priority int
	// Start launches job `id` on the granted allocation. It must not
	// block; it reports completion by calling done (exactly once).
	Start func(id int, resp broker.Response, done func(error)) error
}

// Job is the queue's view of one submission.
type Job struct {
	ID        int
	Name      string
	State     State
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// Walltime and Priority echo the spec.
	Walltime time.Duration
	Priority int
	// Attempts counts allocation attempts (including wait answers).
	Attempts int
	// WaitAnswers counts attempts answered with a wait recommendation.
	WaitAnswers int
	// Backfilled reports the job was started out of queue order by the
	// backfill scheduler.
	Backfilled bool
	// ReservedStart is the head job's reserved-start estimate at the
	// moment this job backfilled: the backfill invariant is
	// Started + Walltime <= ReservedStart.
	ReservedStart time.Time
	// OvertookMaxWait is the longest wait among the jobs this backfill
	// overtook, at decision time — always below the aging bound.
	OvertookMaxWait time.Duration
	// Err holds the failure cause for StateFailed.
	Err error
	// Response is the allocation the job ran on (valid from StateRunning).
	Response broker.Response
}

// Config tunes the queue.
type Config struct {
	// RetryPeriod is how often the queue re-attempts the head job.
	// Default 30s.
	RetryPeriod time.Duration
	// Backfill enables EASY backfill: when the head job must wait, jobs
	// behind it with a walltime estimate that fits before the head's
	// reserved start may launch out of order. Disabled, the queue is
	// bit-for-bit the legacy FIFO.
	Backfill bool
	// AgingBound stops backfill past long-waiting jobs: once any queued
	// job has waited this long, nothing may overtake it. Default 30m.
	AgingBound time.Duration
	// Reserve, when set, ties the queue to the broker's reserving
	// allocation policy: submissions without an explicit policy are
	// routed to it, backfill capacity is priced on its charged snapshot,
	// and the waiting head's claim is shadow-reserved through it so
	// backfill placements steer around the capacity the head will take.
	Reserve *alloc.ReservingPolicy
	// Obs is the instrumentation registry for queue counters and the
	// queue-wait / run-time histograms. Nil disables recording.
	Obs *obs.Registry
}

// Queue is a job queue over a broker. Safe for concurrent use.
type Queue struct {
	b   *broker.Broker
	rt  simtime.Runtime
	cfg Config

	mu          sync.Mutex
	nextID      int
	pending     []*Job
	jobs        map[int]*Job
	specs       map[int]Spec
	cancel      simtime.CancelFunc
	running     int
	backfilling bool
	// headShadow cancels the waiting head's shadow reservation. It is
	// installed at the end of a backfill pass and released at the start
	// of the next scheduling tick, so the claim is visible to broker
	// clients outside the queue between ticks but never prices into the
	// queue's own allocations.
	headShadow func()
}

// New builds a queue over broker b on runtime rt.
func New(b *broker.Broker, rt simtime.Runtime, cfg Config) *Queue {
	if cfg.RetryPeriod <= 0 {
		cfg.RetryPeriod = 30 * time.Second
	}
	if cfg.AgingBound <= 0 {
		cfg.AgingBound = 30 * time.Minute
	}
	return &Queue{
		b: b, rt: rt, cfg: cfg,
		nextID: 1,
		jobs:   make(map[int]*Job),
		specs:  make(map[int]Spec),
	}
}

// Start begins the retry loop. Starting twice is an error.
func (q *Queue) Start() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.cancel != nil {
		return fmt.Errorf("jobqueue: already started")
	}
	q.cancel = q.rt.Every(q.cfg.RetryPeriod, "jobqueue.retry", func(now time.Time) {
		q.tryLaunch(now)
	})
	return nil
}

// Stop halts the retry loop; queued jobs stay pending. Any live head
// shadow reservation is released — a stopped queue no longer promises
// its head anything.
func (q *Queue) Stop() {
	q.mu.Lock()
	cancel := q.cancel
	q.cancel = nil
	shadow := q.headShadow
	q.headShadow = nil
	q.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if shadow != nil {
		shadow()
	}
}

// Submit enqueues a job and immediately attempts to launch the queue
// head. It returns the job ID.
func (q *Queue) Submit(spec Spec) (int, error) {
	if spec.Start == nil {
		return 0, fmt.Errorf("jobqueue: spec %q has no Start", spec.Name)
	}
	if spec.Request.Force {
		return 0, fmt.Errorf("jobqueue: spec %q sets Force; submit directly to the broker instead", spec.Name)
	}
	if q.cfg.Reserve != nil && spec.Request.Policy == "" {
		spec.Request.Policy = q.cfg.Reserve.Name()
	}
	q.mu.Lock()
	id := q.nextID
	q.nextID++
	j := &Job{
		ID: id, Name: spec.Name, State: StatePending,
		Submitted: q.rt.Now(),
		Walltime:  spec.Walltime, Priority: spec.Priority,
	}
	q.jobs[id] = j
	q.specs[id] = spec
	// Stable priority insertion: ahead of the first strictly-lower
	// priority, behind every equal-or-higher one. All-zero priorities
	// reduce to an append — the legacy FIFO order.
	at := len(q.pending)
	for i, p := range q.pending {
		if p.Priority < spec.Priority {
			at = i
			break
		}
	}
	q.pending = append(q.pending, nil)
	copy(q.pending[at+1:], q.pending[at:])
	q.pending[at] = j
	q.mu.Unlock()
	q.cfg.Obs.Counter("jobqueue.submitted.total").Inc()
	q.tryLaunch(q.rt.Now())
	return id, nil
}

// tryLaunch runs one scheduling pass: launch queue heads in order until
// one must keep waiting, then (when enabled) try to backfill around it.
func (q *Queue) tryLaunch(now time.Time) {
	// Release the previous tick's head shadow first: this pass recomputes
	// the head's claim from fresh state, and the head's own allocation
	// attempt must not be priced against its own reservation.
	q.mu.Lock()
	if q.headShadow != nil {
		q.headShadow()
		q.headShadow = nil
	}
	q.mu.Unlock()
	headResp, waiting := q.launchHeads(now)
	if waiting && q.cfg.Backfill {
		q.backfillPass(now, headResp)
	}
}

// launchHeads attempts to start queued jobs in order, stopping at the
// first that must keep waiting (head-of-line ordering, like the paper's
// single-cluster FIFO assumption). It reports the head's wait answer
// when it stopped on one, so a backfill pass can reuse its estimates.
func (q *Queue) launchHeads(now time.Time) (broker.Response, bool) {
	for {
		q.mu.Lock()
		if len(q.pending) == 0 {
			q.mu.Unlock()
			return broker.Response{}, false
		}
		j := q.pending[0]
		spec := q.specs[j.ID]
		q.mu.Unlock()

		resp, err := q.b.Allocate(spec.Request)

		q.mu.Lock()
		// The head may have changed while we were allocating.
		if len(q.pending) == 0 || q.pending[0] != j {
			q.mu.Unlock()
			continue
		}
		j.Attempts++
		if err != nil {
			q.mu.Unlock()
			return broker.Response{}, false // transient (e.g. monitor warming up): retry later
		}
		if resp.Recommendation == broker.RecommendWait {
			j.WaitAnswers++
			q.cfg.Obs.Counter("jobqueue.waits.total").Inc()
			q.mu.Unlock()
			return resp, true // cluster busy: the head keeps its place
		}
		// Launch.
		j.State = StateRunning
		j.Started = now
		j.Response = resp
		waited := now.Sub(j.Submitted)
		q.pending = q.pending[1:]
		delete(q.specs, j.ID)
		q.running++
		q.mu.Unlock()
		q.cfg.Obs.Counter("jobqueue.launched.total").Inc()
		q.cfg.Obs.Histogram("jobqueue.wait.seconds").Observe(waited.Seconds())

		id := j.ID
		done := func(runErr error) { q.finish(id, runErr) }
		if err := spec.Start(id, resp, done); err != nil {
			q.finish(id, err)
		}
	}
}

// backfillPass tries to start jobs behind a waiting head without
// delaying it: EASY backfill over the broker's monitoring snapshot.
//
// The head's reserved start is estimated as the later of the broker's
// load-decay ETA (Response.EarliestStart) and the time enough running
// walltimed jobs will have released the head's process count. A
// candidate launches only if it has a walltime estimate, fits in the
// currently idle slots, and finishes before the reserved start. Once any
// queued job has waited past AgingBound, backfill stops entirely until
// the queue drains past it — the no-starvation guarantee.
//
// At the end of the pass (when the head is still waiting) its claim is
// shadow-reserved through the ReservingPolicy until the next scheduling
// tick, so broker clients outside the queue price the pending head into
// their own allocations. The claim is deliberately NOT live while the
// pass prices its own candidates: a backfill admission is a reservation
// in time — the candidate ends before the head starts — so charging the
// head's claim into candidate placement would only flatten Equation 1
// (every node inflated, utilization saturated) and scatter candidates
// onto the nodes of running jobs, delaying the very releases the head
// is waiting for.
//
// Candidates launch with Force set: the queue has already done capacity
// admission against idle slots, which is exactly the information the
// broker's whole-cluster wait heuristic cannot see (a cluster half-busy
// running the long job reads as loaded even though the other half is
// idle).
func (q *Queue) backfillPass(now time.Time, headResp broker.Response) {
	q.mu.Lock()
	if q.backfilling || len(q.pending) < 2 {
		q.mu.Unlock()
		return
	}
	head := q.pending[0]
	headWait := now.Sub(head.Submitted)
	headProcs := q.specs[head.ID].Request.Procs
	aging := q.cfg.AgingBound
	if headWait >= aging {
		// The head itself has aged out: nothing may overtake it.
		q.mu.Unlock()
		q.cfg.Obs.Counter("jobqueue.backfill.aging_barrier.total").Inc()
		return
	}
	q.backfilling = true
	q.mu.Unlock()
	defer func() {
		q.mu.Lock()
		q.backfilling = false
		q.mu.Unlock()
	}()

	snap, err := q.b.Snapshot()
	if err != nil {
		return // no monitoring view: nothing safe to admit
	}
	// Price capacity the way the allocator will see it: with every live
	// reservation (just-granted allocations the load means have not
	// caught up with) already charged.
	if q.cfg.Reserve != nil {
		snap = q.cfg.Reserve.Charged(snap)
	}
	free := alloc.FreeSlots(snap)
	headStart := q.headStartEstimate(now, headResp, headProcs, free)

	// Re-arm the head's shadow reservation once the pass is over, if the
	// head is still waiting then. The claim is not subtracted from the
	// admission budget either — the head cannot start now (that is why it
	// is waiting), so until its reserved start the idle slots are exactly
	// what backfill may use.
	if q.cfg.Reserve != nil && headProcs > 0 {
		claim := shadowClaim(snap, headProcs)
		defer func() {
			q.mu.Lock()
			if len(q.pending) > 0 && q.pending[0] == head && q.headShadow == nil {
				q.headShadow = q.cfg.Reserve.Reserve(claim, q.rt.Now())
			}
			q.mu.Unlock()
		}()
	}

	attempted := make(map[int]bool)
	for {
		q.mu.Lock()
		if len(q.pending) == 0 || q.pending[0] != head {
			// The head launched (or failed) mid-pass: every estimate this
			// pass is built on is stale. The next scheduling tick re-plans.
			q.mu.Unlock()
			return
		}
		var cand *Job
		var spec Spec
		var overtook time.Duration
		maxWaitAhead := headWait
		barrier := false
		for _, j := range q.pending[1:] {
			if w := now.Sub(j.Submitted); w > maxWaitAhead {
				maxWaitAhead = w
			}
			if maxWaitAhead >= aging {
				barrier = true
				break
			}
			if attempted[j.ID] || j.Walltime <= 0 {
				continue
			}
			s := q.specs[j.ID]
			if s.Request.Procs > free || now.Add(j.Walltime).After(headStart) {
				continue
			}
			cand, spec, overtook = j, s, maxWaitAhead
			break
		}
		q.mu.Unlock()
		if barrier {
			q.cfg.Obs.Counter("jobqueue.backfill.aging_barrier.total").Inc()
		}
		if cand == nil {
			return
		}
		attempted[cand.ID] = true
		q.cfg.Obs.Counter("jobqueue.backfill.candidates.total").Inc()

		// The queue has done the capacity admission; Force bypasses only
		// the broker's whole-cluster wait heuristic.
		req := spec.Request
		req.Force = true
		resp, err := q.b.Allocate(req)

		q.mu.Lock()
		if len(q.pending) == 0 || q.pending[0] != head {
			q.mu.Unlock()
			return
		}
		cand.Attempts++
		if err != nil || resp.Recommendation != broker.RecommendAllocate {
			q.mu.Unlock()
			continue // this candidate failed; others may still fit
		}
		idx := -1
		for i, j := range q.pending {
			if j == cand {
				idx = i
				break
			}
		}
		if idx <= 0 || cand.State != StatePending {
			q.mu.Unlock()
			continue // launched or failed concurrently; drop the grant
		}
		cand.State = StateRunning
		cand.Started = now
		cand.Response = resp
		cand.Backfilled = true
		cand.ReservedStart = headStart
		cand.OvertookMaxWait = overtook
		waited := now.Sub(cand.Submitted)
		q.pending = append(q.pending[:idx], q.pending[idx+1:]...)
		delete(q.specs, cand.ID)
		q.running++
		free -= req.Procs
		q.mu.Unlock()

		q.cfg.Obs.Counter("jobqueue.launched.total").Inc()
		q.cfg.Obs.Counter("jobqueue.backfill.launched.total").Inc()
		q.cfg.Obs.Histogram("jobqueue.wait.seconds").Observe(waited.Seconds())
		q.cfg.Obs.Histogram("jobqueue.backfill.wait.seconds").Observe(waited.Seconds())
		q.cfg.Obs.Emit(now, "jobqueue.backfill",
			fmt.Sprintf("job %d %q (%d procs, walltime %v) backfilled ahead of job %d (reserved start %v)",
				cand.ID, cand.Name, req.Procs, cand.Walltime, head.ID, headStart.Sub(now)))

		id := cand.ID
		done := func(runErr error) { q.finish(id, runErr) }
		if err := spec.Start(id, resp, done); err != nil {
			q.finish(id, err)
		}
	}
}

// headStartEstimate is the head job's reserved start: the later of the
// broker's load-decay ETA and the capacity-release time — when enough
// running walltimed jobs will have ended to free the head's process
// count. Running jobs without a walltime release at an unknown time, so
// when the declared releases cannot cover the head the estimate falls
// back to the aging bound (the latest moment backfill may plan against:
// past it the barrier stops backfill anyway).
func (q *Queue) headStartEstimate(now time.Time, headResp broker.Response, headProcs, free int) time.Time {
	est := headResp.EarliestStart
	if est.IsZero() {
		est = now.Add(time.Second)
	}
	if free >= headProcs {
		// Capacity is already there; the wait is load-driven only.
		return est
	}
	type release struct {
		at    time.Time
		procs int
		id    int
	}
	var rels []release
	q.mu.Lock()
	for _, j := range q.jobs {
		if j.State == StateRunning && j.Walltime > 0 {
			rels = append(rels, release{j.Started.Add(j.Walltime), totalProcs(j.Response), j.ID})
		}
	}
	q.mu.Unlock()
	sort.Slice(rels, func(i, k int) bool {
		if !rels[i].at.Equal(rels[k].at) {
			return rels[i].at.Before(rels[k].at)
		}
		return rels[i].id < rels[k].id
	})
	capETA := time.Time{}
	acc := free
	for _, r := range rels {
		acc += r.procs
		if acc >= headProcs {
			capETA = r.at
			break
		}
	}
	if capETA.IsZero() {
		capETA = now.Add(q.cfg.AgingBound)
	}
	if capETA.After(est) {
		est = capETA
	}
	return est
}

// shadowClaim spreads the head's process count evenly over the live
// nodes (remainder on the lowest IDs). The head's reservation is a claim
// in TIME — every backfill admission finishes before its reserved start
// by construction — so the claim must not distort *where* backfills
// land: an uneven claim (say, on the emptiest nodes) would push backfill
// allocations onto the nodes running jobs and slow the very releases the
// head is waiting for. The even spread keeps relative node ordering
// intact while making the pending head's capacity visible, through the
// reserving policy, to broker clients outside the queue.
func shadowClaim(snap *metrics.Snapshot, procs int) map[int]int {
	ids := alloc.MonitoredLivehosts(snap)
	claim := make(map[int]int, len(ids))
	if len(ids) == 0 || procs <= 0 {
		return claim
	}
	sort.Ints(ids)
	base := procs / len(ids)
	rem := procs % len(ids)
	for i, id := range ids {
		n := base
		if i < rem {
			n++
		}
		if n > 0 {
			claim[id] = n
		}
	}
	return claim
}

// totalProcs sums an allocation's ranks across nodes.
func totalProcs(resp broker.Response) int {
	total := 0
	for _, n := range resp.Procs {
		total += n
	}
	return total
}

// finish records a job's completion.
func (q *Queue) finish(id int, err error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.State != StateRunning {
		q.mu.Unlock()
		return
	}
	if err != nil {
		j.State = StateFailed
		j.Err = err
	} else {
		j.State = StateDone
	}
	j.Finished = q.rt.Now()
	ran := j.Finished.Sub(j.Started)
	failed := j.State == StateFailed
	q.running--
	q.mu.Unlock()
	if failed {
		q.cfg.Obs.Counter("jobqueue.failed.total").Inc()
	} else {
		q.cfg.Obs.Counter("jobqueue.done.total").Inc()
	}
	q.cfg.Obs.Histogram("jobqueue.run.seconds").Observe(ran.Seconds())
	// A finished job may have freed the nodes the head is waiting for.
	q.tryLaunch(q.rt.Now())
}

// Job returns a snapshot of job id.
func (q *Queue) Job(id int) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Stats summarizes the queue.
type Stats struct {
	Pending    int
	Running    int
	Done       int
	Failed     int
	Backfilled int
}

// Stats returns current queue counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	var s Stats
	for _, j := range q.jobs {
		switch j.State {
		case StatePending:
			s.Pending++
		case StateRunning:
			s.Running++
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		}
		if j.Backfilled {
			s.Backfilled++
		}
	}
	return s
}
