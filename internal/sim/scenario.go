// Package sim is the discrete-event simulation core: a
// capacity-fidelity scenario runner that plays a workload spec
// (internal/loadgen) through job arrival, start and finish events on a
// virtual clock of integer nanoseconds — months of submitted traffic
// replayed in seconds of wall time, bit-for-bit reproducible from a
// seed. A scenario has only two kinds of pending event, so it merges
// them itself; the harness's full-stack experiments run on
// internal/simtime's general-purpose scheduler instead.
package sim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"nlarm/internal/heapq"
	"nlarm/internal/loadgen"
	"nlarm/internal/trace"
)

// Discipline selects the scenario's queue discipline.
type Discipline string

const (
	// FIFO is strict head-of-line ordering (priority-aware, like the
	// jobqueue without backfill).
	FIFO Discipline = "fifo"
	// EASY is EASY backfill: jobs behind a blocked head may start out of
	// order when their walltime estimate fits before the head's node
	// reservation, with an aging bound so nothing starves.
	EASY Discipline = "backfill"
)

// ErrPastEvent is returned when the scenario would queue an arrival or
// a finish before the current virtual time. Clamping it to "now" would
// silently reorder it relative to the caller's intent, so the scenario
// refuses instead.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// scenarioEpoch is the default virtual start (the session epoch, so
// capacity scenarios and full-stack sessions share a time origin).
var scenarioEpoch = time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)

// ScenarioConfig describes one capacity-fidelity scheduling scenario:
// a homogeneous cluster modeled at node granularity (jobs take
// ceil(procs/ppn) whole nodes — exclusive allocation, the common batch
// setting) with a seeded workload played through the event loop. Node
// *identity* (placement, network cost) is deliberately out of scope
// here: that is the broker's job, exercised by the harness experiments;
// the capacity model answers queueing questions (wait, makespan,
// utilization, discipline comparisons) at million-job scale.
type ScenarioConfig struct {
	// Seed drives the workload generator.
	Seed uint64 `json:"seed"`
	// Nodes is the cluster size; CoresPerNode caps a cohort's PPN.
	Nodes        int `json:"nodes"`
	CoresPerNode int `json:"cores_per_node"`
	// Workload is the job traffic spec.
	Workload loadgen.Workload `json:"workload"`
	// Discipline is FIFO or EASY (default FIFO).
	Discipline Discipline `json:"discipline,omitempty"`
	// BackfillDepth bounds how many queued jobs one backfill pass
	// examines (default 32, like real schedulers' bf_max_job_test).
	BackfillDepth int `json:"backfill_depth,omitempty"`
	// AgingBound stops backfill past long-waiting jobs (default 30m).
	AgingBound time.Duration `json:"aging_bound,omitempty"`
	// Start is the virtual start time (default the session epoch).
	Start time.Time `json:"start,omitempty"`
	// MaxEvents guards runaway event chains (default 4*jobs+1024).
	MaxEvents uint64 `json:"max_events,omitempty"`
	// Policy, when set, runs the scenario at policy fidelity: every job
	// start is placed on concrete nodes by Algorithms 1-2 over one live
	// cost model (see PolicyConfig). Nil keeps the pure capacity model —
	// and its byte-stable version-1 traces.
	Policy *PolicyConfig `json:"policy,omitempty"`
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = 8
	}
	if c.Discipline == "" {
		c.Discipline = FIFO
	}
	if c.BackfillDepth <= 0 {
		c.BackfillDepth = 32
	}
	if c.AgingBound <= 0 {
		c.AgingBound = 30 * time.Minute
	}
	if c.Start.IsZero() {
		c.Start = scenarioEpoch
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 4*uint64(c.Workload.TotalJobs()) + 1024
	}
	if c.Policy != nil {
		pc := c.Policy.withDefaults(c.Nodes)
		c.Policy = &pc
	}
	return c
}

// ScenarioResult summarizes one scenario run.
type ScenarioResult struct {
	Jobs       int `json:"jobs"`
	Completed  int `json:"completed"`
	Rejected   int `json:"rejected"`
	Backfilled int `json:"backfilled"`
	// MeanWaitSec/MaxWaitSec aggregate submit-to-start waits over
	// completed jobs.
	MeanWaitSec float64 `json:"mean_wait_sec"`
	MaxWaitSec  float64 `json:"max_wait_sec"`
	// MakespanSec is first-submit to last-completion in virtual time.
	MakespanSec float64 `json:"makespan_sec"`
	// UtilizationPct is busy node-seconds over Nodes*makespan.
	UtilizationPct float64 `json:"utilization_pct"`
	// MaxQueueDepth is the deepest the pending queue got.
	MaxQueueDepth int `json:"max_queue_depth"`
	// EventsFired counts loop events (arrivals + completions).
	EventsFired uint64 `json:"events_fired"`
	// Digest is the SHA-256 of the job trace — the determinism handle.
	Digest string `json:"digest"`
	// Cohorts breaks completed-job wait statistics down per workload
	// cohort, sorted by cohort name — the inputs to Jain-fairness scoring
	// across user classes (internal/tune).
	Cohorts []CohortStat `json:"cohorts,omitempty"`
	// Policy summarizes the placement layer on policy-fidelity runs.
	Policy *PolicyStats `json:"policy,omitempty"`
	// WallTime is how long the run took in real time.
	WallTime time.Duration `json:"wall_time"`
}

// CohortStat is one cohort's completed-job wait summary.
type CohortStat struct {
	Name        string  `json:"name"`
	Completed   int     `json:"completed"`
	MeanWaitSec float64 `json:"mean_wait_sec"`
	MaxWaitSec  float64 `json:"max_wait_sec"`
}

// cohortAcc accumulates one cohort's completed-job waits.
type cohortAcc struct {
	n       int
	waitSum float64
	waitMax float64
}

func (a *cohortAcc) add(waitSec float64) {
	a.n++
	a.waitSum += waitSec
	if waitSec > a.waitMax {
		a.waitMax = waitSec
	}
}

// cohortStats flattens the accumulators into name-sorted CohortStats so
// results are deterministic regardless of map order.
func cohortStats(m map[string]*cohortAcc) []CohortStat {
	if len(m) == 0 {
		return nil
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]CohortStat, 0, len(names))
	for _, name := range names {
		acc := m[name]
		cs := CohortStat{Name: name, Completed: acc.n, MaxWaitSec: acc.waitMax}
		if acc.n > 0 {
			cs.MeanWaitSec = acc.waitSum / float64(acc.n)
		}
		out = append(out, cs)
	}
	return out
}

// simJob is one job's state inside the capacity model, its instants in
// nanoseconds since cfg.Start. Jobs are recycled through a freelist.
type simJob struct {
	id       int
	cohort   string
	client   int
	procs    int
	ppn      int
	priority int
	nodes    int
	walltime time.Duration
	service  time.Duration
	submit   int64
	start    int64
	end      int64
	backfill bool
	rejected bool
	// place and the costs are the policy-fidelity overlay (nil / zero on
	// capacity runs).
	place  *placement
	clCost float64
	nlCost float64
}

// runEntry is a running job's finish event, keyed by (end, schedule
// sequence) for the run heap; the pending arrival's key has the same
// shape and a nil job.
type runEntry struct {
	end int64
	seq int
	job *simJob
}

// scenario is the live state of a run.
type scenario struct {
	cfg  ScenarioConfig
	rs   *runScratch
	pol  *policyState
	free int
	// now is the current instant and seq the next schedule sequence,
	// which arrivals and finishes draw from alike.
	now int64
	seq int
	// pending is the submit queue from pendHead on: head pops advance
	// the index instead of reslicing, which would shed front capacity
	// and force a reallocation on nearly every push.
	pending  []*simJob
	pendHead int
	res      ScenarioResult
	cohorts  map[string]*cohortAcc
	firstSub int64
	lastEnd  int64
	waitSum  float64
	busySec  float64
	err      error
	// nextArr is the pending arrival while armed, queued at arrKey.
	nextArr loadgen.Arrival
	arrKey  runEntry
	armed   bool
	// The pipeline (pipeline.go): the loop reads arrivals from arrBatch
	// at arrNext and fills recBatch; stages counts the producer and the
	// consumer, and writeErr is the consumer's, read after the join.
	arrivals ring[loadgen.Arrival]
	records  ring[simJob]
	arrBatch []loadgen.Arrival
	arrNext  int
	recBatch []simJob
	stages   sync.WaitGroup
	writeErr error
}

// RunScenario executes cfg, streaming the job trace to traceOut (nil
// discards the bytes but still computes the digest). Same config, same
// result — bit for bit.
func RunScenario(cfg ScenarioConfig, traceOut io.Writer) (*ScenarioResult, error) {
	return runScenario(cfg, traceOut, &runScratch{})
}

// runScenario is RunScenario against caller-owned scratch: the sweep
// engine threads one runScratch per worker through here so back-to-back
// runs reuse each other's buffers.
func runScenario(cfg ScenarioConfig, traceOut io.Writer, rs *runScratch) (*ScenarioResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("sim: scenario needs a positive node count")
	}
	if err := cfg.Workload.Validate(); err != nil {
		return nil, err
	}
	wallStart := time.Now()
	gen, err := loadgen.NewWorkloadGen(cfg.Workload, cfg.Start, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if traceOut == nil {
		traceOut = io.Discard
	}
	scenJSON, err := scenarioJSON(&cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: marshal scenario config: %w", err)
	}
	hdr := trace.JobTraceHeader{Seed: cfg.Seed, Scenario: scenJSON}
	if cfg.Policy == nil {
		// Capacity runs carry no cost columns: pin the byte-stable
		// version-1 format so golden traces and cross-version replays
		// keep verifying.
		hdr.Version = 1
	}
	tw, err := trace.NewJobTraceWriter(traceOut, hdr)
	if err != nil {
		return nil, err
	}
	rs.runs = rs.runs[:0] // a run that failed may have left jobs in it
	s := &scenario{
		cfg:     cfg,
		rs:      rs,
		free:    cfg.Nodes,
		cohorts: make(map[string]*cohortAcc),
	}
	if cfg.Policy != nil {
		pol, err := newPolicyState(cfg, &rs.pol)
		if err != nil {
			return nil, err
		}
		s.pol = pol
	}
	s.res.Jobs = cfg.Workload.TotalJobs()
	s.start(gen, tw)
	err = s.run()
	if werr := s.join(); err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}
	if n := s.res.Completed; n > 0 {
		s.res.MeanWaitSec = s.waitSum / float64(n)
	}
	if s.res.Completed > 0 && s.lastEnd > s.firstSub {
		s.res.MakespanSec = time.Duration(s.lastEnd - s.firstSub).Seconds()
		s.res.UtilizationPct = 100 * s.busySec / (float64(cfg.Nodes) * s.res.MakespanSec)
	}
	s.res.Digest = tw.Digest()
	s.res.Cohorts = cohortStats(s.cohorts)
	if s.pol != nil {
		s.res.Policy = s.pol.finalize()
	}
	s.res.WallTime = time.Since(wallStart)
	res := s.res // a copy, so the caller does not keep s and its scratch alive
	return &res, nil
}

// run plays the event loop out and returns the loop's own first error;
// the writer's comes from join.
func (s *scenario) run() error {
	if a, ok := s.nextArrival(); ok {
		s.nextArr, s.firstSub = a, int64(a.At.Sub(s.cfg.Start))
		if err := s.queue(s.firstSub, nil); err != nil {
			return err
		}
	}
	for s.step() {
		if s.res.EventsFired++; s.res.EventsFired > s.cfg.MaxEvents {
			return fmt.Errorf("sim: scenario exceeded %d events at %v", s.cfg.MaxEvents, s.instant(s.now))
		}
		if s.err != nil {
			return s.err
		}
	}
	if pend := len(s.pending) - s.pendHead; pend != 0 {
		return fmt.Errorf("sim: %d jobs still pending after the event queue drained", pend)
	}
	return nil
}

// step fires the earlier of the pending arrival and the run heap's
// root by (instant, schedule sequence) and reports whether either was
// pending. Finishes are queued in start order, so this is the order a
// general event queue would keep.
func (s *scenario) step() bool {
	if len(s.rs.runs) > 0 && (!s.armed || runLess(s.rs.runs[0], s.arrKey)) {
		var e runEntry
		e, s.rs.runs = heapq.Pop(s.rs.runs, runLess)
		s.now = e.end
		s.finishJob(e.job)
		return true
	}
	if !s.armed {
		return false
	}
	s.armed, s.now = false, s.arrKey.end
	s.arrival()
	return true
}

// queue puts j's finish on the run heap at instant at, or with j nil
// arms nextArr's arrival there, under the next schedule sequence. An
// instant before now is ErrPastEvent and queues nothing.
func (s *scenario) queue(at int64, j *simJob) error {
	if at < s.now {
		return fmt.Errorf("%w: at %v, now %v", ErrPastEvent, s.instant(at), s.instant(s.now))
	}
	e := runEntry{at, s.seq, j}
	if s.seq++; j != nil {
		s.rs.runs = heapq.Push(s.rs.runs, e, runLess)
	} else {
		s.arrKey, s.armed = e, true
	}
	return nil
}

// instant is ns, nanoseconds since cfg.Start, as a time.
func (s *scenario) instant(ns int64) time.Time {
	return s.cfg.Start.Add(time.Duration(ns))
}

// arrival fires the pending arrival: submit it, queue the next one, and
// run a scheduling pass.
func (s *scenario) arrival() {
	s.submit(s.nextArr)
	if next, ok := s.nextArrival(); ok {
		s.nextArr = next
		if err := s.queue(int64(next.At.Sub(s.cfg.Start)), nil); err != nil && s.err == nil {
			s.err = err
		}
	}
	s.schedulePass()
}

// getJob takes a job object off the freelist or allocates one.
func (s *scenario) getJob() *simJob {
	if k := len(s.rs.jobFree); k > 0 {
		j := s.rs.jobFree[k-1]
		s.rs.jobFree = s.rs.jobFree[:k-1]
		*j = simJob{}
		return j
	}
	return &simJob{}
}

// releaseJob recycles j once it can never be touched again (recorded,
// any placement returned, and its run-heap entry popped).
func (s *scenario) releaseJob(j *simJob) {
	s.rs.jobFree = append(s.rs.jobFree, j)
}

// submit enqueues arrival a (or rejects it if it can never fit).
func (s *scenario) submit(a loadgen.Arrival) {
	effPPN := a.PPN
	if effPPN <= 0 || effPPN > s.cfg.CoresPerNode {
		effPPN = s.cfg.CoresPerNode
	}
	j := s.getJob()
	j.id = a.Seq
	j.cohort = a.Cohort
	j.client = a.Client
	j.procs = a.Procs
	j.ppn = effPPN
	j.priority = a.Priority
	j.nodes = (a.Procs + effPPN - 1) / effPPN
	j.walltime = a.Walltime
	j.service = a.Service
	j.submit = s.now
	if j.nodes > s.cfg.Nodes {
		s.res.Rejected++
		j.rejected = true
		s.emit(j)
		s.releaseJob(j)
		return
	}
	// Stable priority insertion, scanning from the back: after the last
	// equal-or-higher priority (all-zero priorities append — plain FIFO).
	at := len(s.pending)
	for at > s.pendHead && s.pending[at-1].priority < j.priority {
		at--
	}
	s.pending = append(s.pending, nil)
	copy(s.pending[at+1:], s.pending[at:])
	s.pending[at] = j
	if d := len(s.pending) - s.pendHead; d > s.res.MaxQueueDepth {
		s.res.MaxQueueDepth = d
	}
}

// schedulePass launches queue heads in order until one does not fit,
// then (under EASY) backfills around the blocked head.
func (s *scenario) schedulePass() {
	now := s.now
	for s.pendHead < len(s.pending) && s.pending[s.pendHead].nodes <= s.free {
		j := s.pending[s.pendHead]
		s.pending[s.pendHead] = nil
		s.pendHead++
		s.startJob(j, false)
	}
	if s.pendHead == len(s.pending) {
		s.pending = s.pending[:0]
		s.pendHead = 0
	} else if s.pendHead > 1024 && s.pendHead*2 >= len(s.pending) {
		// Compact the drained prefix so the queue's footprint tracks its
		// depth, not its history.
		n := copy(s.pending, s.pending[s.pendHead:])
		for k := n; k < len(s.pending); k++ {
			s.pending[k] = nil
		}
		s.pending = s.pending[:n]
		s.pendHead = 0
	}
	if s.cfg.Discipline != EASY || len(s.pending)-s.pendHead < 2 {
		return
	}
	head := s.pending[s.pendHead]
	maxWait := time.Duration(now - head.submit)
	if maxWait >= s.cfg.AgingBound {
		return // the head has aged out: nothing may overtake it
	}
	reserve, ok := s.earliestStart(head.nodes)
	if !ok {
		return
	}
	scanned := 0
	for i := s.pendHead + 1; i < len(s.pending) && scanned < s.cfg.BackfillDepth; {
		j := s.pending[i]
		if w := time.Duration(now - j.submit); w > maxWait {
			maxWait = w
		}
		if maxWait >= s.cfg.AgingBound {
			return // aging barrier: a scanned job has waited too long
		}
		scanned++
		if j.walltime > 0 && j.nodes <= s.free && j.walltime <= time.Duration(reserve-now) {
			copy(s.pending[i:], s.pending[i+1:])
			s.pending[len(s.pending)-1] = nil
			s.pending = s.pending[:len(s.pending)-1]
			s.startJob(j, true)
			continue // the slice shifted; re-examine index i
		}
		i++
	}
}

// earliestStart is the head's node reservation: the earliest instant at
// which enough running jobs will have completed to free `needed` nodes.
// False means never (cannot happen for admitted jobs).
func (s *scenario) earliestStart(needed int) (at int64, ok bool) {
	if s.free >= needed {
		return s.now, true
	}
	acc := s.free
	popped := s.rs.popped[:0]
	for len(s.rs.runs) > 0 && !ok {
		var e runEntry
		e, s.rs.runs = heapq.Pop(s.rs.runs, runLess)
		popped = append(popped, e)
		acc += e.job.nodes
		at, ok = e.end, acc >= needed
	}
	for _, e := range popped {
		s.rs.runs = heapq.Push(s.rs.runs, e, runLess)
	}
	s.rs.popped = popped[:0]
	return at, ok
}

// startJob commits j to n nodes now and queues its finish. On policy
// runs the placement decision happens here — a failure aborts the run
// (capacity admission guarantees placement feasibility, so a refusal is
// a bug, not a full cluster).
func (s *scenario) startJob(j *simJob, backfilled bool) {
	if s.pol != nil {
		if err := s.pol.place(j, s.instant(s.now)); err != nil {
			if s.err == nil {
				s.err = err
			}
			return
		}
	}
	s.free -= j.nodes
	j.start = s.now
	if j.end = s.now + int64(j.service); j.end < s.now {
		j.end = math.MaxInt64 // past time.Duration's range, where Sub saturates too
	}
	j.backfill = backfilled
	if backfilled {
		s.res.Backfilled++
	}
	w := time.Duration(s.now - j.submit).Seconds()
	s.waitSum += w
	if w > s.res.MaxWaitSec {
		s.res.MaxWaitSec = w
	}
	if err := s.queue(j.end, j); err != nil && s.err == nil {
		s.err = err
	}
}

// finishJob releases the nodes of j, whose finish step has just popped
// off the run heap, records it, and reschedules.
func (s *scenario) finishJob(j *simJob) {
	s.free += j.nodes
	if s.pol != nil {
		s.pol.release(j)
	}
	s.busySec += float64(j.nodes) * j.service.Seconds()
	s.res.Completed++
	wait := time.Duration(j.start - j.submit).Seconds()
	if acc, ok := s.cohorts[j.cohort]; ok {
		acc.add(wait)
	} else {
		acc = &cohortAcc{}
		acc.add(wait)
		s.cohorts[j.cohort] = acc
	}
	s.lastEnd = s.now
	s.emit(j)
	s.schedulePass()
	s.releaseJob(j)
}

// record fills rec, the consumer's one record, with j's: times in
// seconds since cfg.Start (start and end -1 for a rejection), as
// Duration(ns).Seconds() is the double t.Sub(cfg.Start).Seconds() gives.
func (j *simJob) record(rec *trace.JobRecord) {
	rec.ID, rec.Cohort, rec.Client = j.id, j.cohort, j.client
	rec.Procs, rec.PPN, rec.Priority = j.procs, j.ppn, j.priority
	rec.SubmitSec, rec.StartSec, rec.EndSec = time.Duration(j.submit).Seconds(), -1, -1
	if !j.rejected {
		rec.StartSec, rec.EndSec = time.Duration(j.start).Seconds(), time.Duration(j.end).Seconds()
	}
	rec.WalltimeSec = 0
	if j.walltime > 0 {
		rec.WalltimeSec = j.walltime.Seconds()
	}
	rec.Nodes, rec.Backfilled = j.nodes, j.backfill
	rec.CLCost, rec.NLCost = j.clCost, j.nlCost
}

// runLess orders events by (instant, schedule sequence).
func runLess(a, b runEntry) bool {
	if a.end != b.end {
		return a.end < b.end
	}
	return a.seq < b.seq
}

// ScaledWorkload builds the canned three-cohort traffic mix for a
// cluster of `nodes` nodes, sized to `jobs` total jobs at roughly the
// target utilization: a Poisson "batch" cohort of mid-size jobs, a
// bursty Gamma "interactive" cohort with a diurnal afternoon peak, and a
// regular Weibull "array" cohort of small high-priority jobs.
func ScaledWorkload(jobs, nodes int, utilization float64) loadgen.Workload {
	if utilization <= 0 || utilization > 1 {
		utilization = 0.65
	}
	shares := []float64{0.5, 0.3, 0.2}
	// Mean node-seconds per job of each cohort (procs/ppn * service).
	nodeSec := []float64{32.0 / 8 * 600, 8.0 / 4 * 300, 4.0 / 4 * 120}
	perJob := 0.0
	for i, sh := range shares {
		perJob += sh * nodeSec[i]
	}
	// Aggregate rate so offered load = utilization * nodes node-sec/sec.
	totalDaily := utilization * float64(nodes) / perJob * 86400
	cohort := func(i int) float64 { return math.Max(1, math.Round(totalDaily*shares[i])) }
	jobsOf := func(i int) int {
		n := int(math.Round(float64(jobs) * shares[i]))
		if n < 1 {
			n = 1
		}
		return n
	}
	// Make the shares sum exactly to jobs (remainder onto the batch cohort).
	jb, ji, ja := jobsOf(0), jobsOf(1), jobsOf(2)
	jb += jobs - jb - ji - ja
	return loadgen.Workload{
		Version: loadgen.WorkloadVersion,
		Name:    fmt.Sprintf("scaled-%dj-%dn", jobs, nodes),
		Cohorts: []loadgen.Cohort{
			{
				Name: "batch", Clients: 16, Jobs: jb, DailyJobs: cohort(0),
				Interarrival: loadgen.Dist{Kind: "exponential"},
				Procs:        loadgen.Dist{Kind: "lognormal", Mean: 32, CV: 1, Min: 1, Max: 512},
				PPN:          8,
				Walltime:     loadgen.Dist{Kind: "lognormal", Mean: 900, CV: 1, Min: 60, Max: 14400},
				Service:      loadgen.Dist{Kind: "gamma", Mean: 600, CV: 1, Min: 10, Max: 14400},
			},
			{
				Name: "interactive", Clients: 64, Jobs: ji, DailyJobs: cohort(1),
				Interarrival: loadgen.Dist{Kind: "gamma", CV: 2},
				Hourly:       loadgen.SinusoidHourly(0.5, 15),
				Procs:        loadgen.Dist{Kind: "uniform", Min: 1, Max: 16},
				PPN:          4,
				Walltime:     loadgen.Dist{Kind: "lognormal", Mean: 450, CV: 0.8, Min: 30, Max: 7200},
				Service:      loadgen.Dist{Kind: "gamma", Mean: 300, CV: 1.2, Min: 5, Max: 7200},
			},
			{
				Name: "array", Clients: 8, Jobs: ja, DailyJobs: cohort(2),
				Interarrival: loadgen.Dist{Kind: "weibull", CV: 0.7},
				Procs:        loadgen.Dist{Kind: "constant", Mean: 4},
				PPN:          4,
				Walltime:     loadgen.Dist{Kind: "constant", Mean: 180},
				Service:      loadgen.Dist{Kind: "gamma", Mean: 120, CV: 0.5, Min: 5, Max: 600},
				Priority:     loadgen.Dist{Kind: "constant", Mean: 1},
			},
		},
	}
}

// Render formats the result as a small report table.
func (r *ScenarioResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim scenario: %d jobs, %d completed, %d rejected, %d backfilled\n",
		r.Jobs, r.Completed, r.Rejected, r.Backfilled)
	fmt.Fprintf(&b, "  wait mean %.1fs max %.1fs | makespan %.0fs (%.1f days) | utilization %.1f%%\n",
		r.MeanWaitSec, r.MaxWaitSec, r.MakespanSec, r.MakespanSec/86400, r.UtilizationPct)
	fmt.Fprintf(&b, "  max queue depth %d | %d events | digest %s\n",
		r.MaxQueueDepth, r.EventsFired, r.Digest[:16])
	fmt.Fprintf(&b, "  wall time %v (%.0f jobs/s of wall time)\n",
		r.WallTime.Round(time.Millisecond), float64(r.Completed)/r.WallTime.Seconds())
	return b.String()
}
