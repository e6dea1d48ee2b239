package harness

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"nlarm/internal/broker"
	"nlarm/internal/chaos"
	"nlarm/internal/cluster"
	"nlarm/internal/jobqueue"
	"nlarm/internal/monitor"
	"nlarm/internal/mpisim"
	"nlarm/internal/obs"
	"nlarm/internal/rng"
	"nlarm/internal/simtime"
	"nlarm/internal/store"
)

// ChaosConfig parameterizes a chaos scenario. Zero fields take defaults
// tuned so every fault is detected, recovered from, and accounted for
// within its window.
type ChaosConfig struct {
	// Seed drives the world, the fault schedule, and the store's
	// probabilistic faults. Same seed, same run — bit for bit.
	Seed uint64
	// Windows is the number of one-fault windows (default 10).
	Windows int
}

// chaosWindow is the length of one fault window; RunChaos's per-window
// check offsets (+25s, +35s, +59s) are laid out inside it. It must
// comfortably exceed the slowest daemon's staleness threshold plus a
// supervision period, or relaunch accounting checks will flag false
// violations.
const chaosWindow = time.Minute

// ChaosCheck is one invariant evaluation during the run.
type ChaosCheck struct {
	At   time.Duration // offset from the start of the fault phase
	Name string
	Ok   bool
	Note string
}

// checkedReport is the half of a report RunChaos and RunOverload share:
// the invariant checks and the frozen instrumentation registry, with
// their rendering.
type checkedReport struct {
	Checks []ChaosCheck

	// Metrics is the shared instrumentation registry's final snapshot;
	// MetricsText is its deterministic rendering, embedded in Render so
	// the report carries the full observability picture of the run.
	Metrics     *obs.Snapshot
	MetricsText string
}

// Violations returns the names and notes of every failed check.
func (r *checkedReport) Violations() []string {
	var v []string
	for _, c := range r.Checks {
		if !c.Ok {
			v = append(v, fmt.Sprintf("%v %s: %s", c.At, c.Name, c.Note))
		}
	}
	return v
}

// Ok reports whether every invariant held.
func (r *checkedReport) Ok() bool { return len(r.Violations()) == 0 }

// freeze syncs the fault store's counts into reg and captures the
// registry: from here on the report's Metrics are what the run's own
// components (supervisors, broker, queue, injector) counted.
func (r *checkedReport) freeze(fs *store.FaultStore, reg *obs.Registry) {
	store.SyncFaults(fs, reg)
	r.Metrics = reg.Snapshot()
	r.MetricsText = r.Metrics.Render()
}

func (r *checkedReport) renderChecks(b *strings.Builder) {
	for _, c := range r.Checks {
		status := "ok"
		if !c.Ok {
			status = "VIOLATION"
		}
		fmt.Fprintf(b, "check %v %s %s %s\n", c.At, c.Name, status, c.Note)
	}
}

func (r *checkedReport) renderMetrics(b *strings.Builder) {
	if r.MetricsText == "" {
		return
	}
	b.WriteString("metrics:\n")
	for _, line := range strings.Split(strings.TrimRight(r.MetricsText, "\n"), "\n") {
		fmt.Fprintf(b, "  %s\n", line)
	}
}

// renderDigest hashes a rendered report with FNV-1a, giving tests a
// one-number reproducibility witness.
func renderDigest(rendered string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(rendered))
	return h.Sum64()
}

// ChaosReport is the outcome of RunChaos: the applied fault log, every
// invariant check, and the final recovery accounting.
type ChaosReport struct {
	Seed     uint64
	Events   []chaos.Event
	EventLog []string
	checkedReport

	WorkerCrashes int
	MasterKills   int
	SlaveKills    int
	Relaunches    int
	Promotions    int

	StoreFaults    uint64
	DegradedServes uint64
	JobsSubmitted  int
	JobsDone       int
	JobsFailed     int
}

// InjectedFaults counts every fault the scenario put into the system:
// applied schedule events (recoveries excluded) plus store-level faults.
func (r *ChaosReport) InjectedFaults() int {
	n := r.WorkerCrashes + r.MasterKills + r.SlaveKills
	for _, e := range r.Events {
		if e.Kind == chaos.KindPartition || e.Kind == chaos.KindNodeDown {
			n++
		}
	}
	return n + int(r.StoreFaults)
}

// Render formats the full report deterministically; two same-seed runs
// must produce identical bytes.
func (r *ChaosReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d checks=%d events=%d\n", r.Seed, len(r.Checks), len(r.Events))
	for _, line := range r.EventLog {
		fmt.Fprintf(&b, "event %s\n", line)
	}
	r.renderChecks(&b)
	fmt.Fprintf(&b, "counts crashes=%d masterKills=%d slaveKills=%d relaunches=%d promotions=%d\n",
		r.WorkerCrashes, r.MasterKills, r.SlaveKills, r.Relaunches, r.Promotions)
	fmt.Fprintf(&b, "store faults=%d degradedServes=%d jobs=%d/%d done, %d failed\n",
		r.StoreFaults, r.DegradedServes, r.JobsDone, r.JobsSubmitted, r.JobsFailed)
	r.renderMetrics(&b)
	return b.String()
}

// Digest hashes Render; see renderDigest.
func (r *ChaosReport) Digest() uint64 { return renderDigest(r.Render()) }

// chaosMonitorConfig is the accelerated cadence chaos runs use: fast
// enough that the slowest staleness threshold (bandwidthd: 2.5x10s) plus
// a supervision tick fits well inside half a window.
func chaosMonitorConfig() monitor.Config {
	return monitor.Config{
		NodeStatePeriod:   2 * time.Second,
		LivehostsPeriod:   2 * time.Second,
		LatencyPeriod:     5 * time.Second,
		BandwidthPeriod:   10 * time.Second,
		SupervisePeriod:   4 * time.Second,
		HeartbeatTimeout:  10 * time.Second,
		LivehostsReplicas: 2,
	}
}

// newFaultSession builds the stack both fault scenarios run on: the
// 2-switch, 8-node uniform cluster at the accelerated cadence, a
// fault-injecting store (seeded with faultSeed, starting at rates) under
// instrumentation, and one registry shared by every layer — at the end
// its counters must reconcile exactly with the scenario's own counts.
// Probabilistic corruption stays on monitoring data; control-plane keys
// (heartbeats, lease) stay honest so recovery accounting is exact.
func newFaultSession(seed, faultSeed uint64, rates store.Rates, bcfg broker.Config) (*Session, *store.FaultStore, *obs.Registry, error) {
	cl, err := cluster.BuildUniform(2, 4, 8, 3.0, 8192)
	if err != nil {
		return nil, nil, nil, err
	}
	reg := obs.NewRegistry()
	mcfg := chaosMonitorConfig()
	mcfg.Obs = reg
	bcfg.WaitLoadPerCore = 100
	bcfg.Obs = reg
	var fs *store.FaultStore
	s, err := newSession(SessionConfig{Seed: seed, Cluster: cl, Monitor: mcfg, Broker: bcfg},
		func(sched *simtime.Scheduler, st store.Store) store.Store {
			fs = store.NewFault(st, faultSeed)
			fs.SetScope(monitor.KeyLivehostsPrefix, monitor.KeyNodeStatePrefix, "latency/", "bandwidth/")
			fs.SetRates(rates)
			return store.Instrument(fs, reg, sched.Now)
		})
	return s, fs, reg, err
}

// chaosJobShape is the small MPI job submitted once per window.
func chaosJobShape(w int) *mpisim.Shape {
	s := &mpisim.Shape{
		Name:              fmt.Sprintf("chaos-job-%d", w),
		Ranks:             4,
		Iterations:        40,
		ComputeSecPerIter: 0.01,
		RefFreqGHz:        3.0,
	}
	mpisim.Halo2D(s, 64*1024, 1)
	return s
}

// RunChaos drives a full monitor+broker+jobqueue stack over a fault-
// injecting store through a seeded fault schedule, checking invariants
// mid-window (faults active) and at window end (recovered), and verifying
// at the end that the system's recovery bookkeeping exactly matches what
// was injected:
//
//   - exactly one running master at every check point
//   - allocations never land on nodes that are down
//   - the published livehosts list reconverges to the truth after recovery
//   - sum(relaunches) == injected worker crashes
//   - sum(promotions) == injected master kills
//   - every job submitted during the chaos completes
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Windows <= 0 {
		cfg.Windows = 10
	}
	report := &ChaosReport{Seed: cfg.Seed}

	// Partitions are scheduled explicitly below; the store's own faults
	// are probabilistic from the first write.
	s, fs, reg, err := newFaultSession(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15,
		store.Rates{TornWrite: 0.02, StaleRead: 0.05}, broker.Config{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	sched, w, mgr, b := s.Sched, s.World, s.Mgr, s.Broker
	numNodes := w.Cluster().Size()

	q := jobqueue.New(b, sched, jobqueue.Config{RetryPeriod: 3 * time.Second, Obs: reg})
	if err := q.Start(); err != nil {
		return nil, err
	}
	defer q.Stop()

	// Warm up until every matrix is published, then prime the broker's
	// last-good snapshot with one healthy allocation.
	sched.RunFor(30 * time.Second)
	if _, err := b.Allocate(broker.Request{Procs: 4, Force: true}); err != nil {
		return nil, fmt.Errorf("harness: chaos warm-up allocation failed: %w", err)
	}

	start := sched.Now()
	offset := func() time.Duration { return sched.Now().Sub(start) }

	allNodes := make([]int, numNodes)
	var workers []string
	for _, d := range mgr.Workers() {
		workers = append(workers, d.Name())
	}
	for i := range allNodes {
		allNodes[i] = i
	}
	rnd := rng.New(cfg.Seed)
	events := chaos.Schedule(rnd, chaos.ScheduleConfig{
		Windows: cfg.Windows,
		Window:  chaosWindow,
		Workers: workers,
		// Only snapshot-feeding prefixes: partitioning either one forces
		// the broker onto its degraded path. Heartbeats are never
		// partitioned (see ScheduleConfig docs).
		Prefixes: []string{monitor.KeyLivehostsPrefix, monitor.KeyNodeStatePrefix},
		Nodes:    allNodes,
	})
	report.Events = events
	inj := &chaos.Injector{Mgr: mgr, World: w, FStore: fs, Obs: reg}
	inj.Arm(sched, events)
	defer inj.Disarm()

	check := func(name string, ok bool, note string) {
		report.Checks = append(report.Checks, ChaosCheck{At: offset(), Name: name, Ok: ok, Note: note})
	}
	checkMasters := func() {
		running := 0
		for _, c := range mgr.Centrals() {
			if c.Running() && c.Role() == monitor.RoleMaster {
				running++
			}
		}
		check("one-master", running == 1, fmt.Sprintf("running masters=%d", running))
	}
	checkAllocAvoidsDead := func() {
		resp, err := b.Allocate(broker.Request{Procs: 4, Force: true})
		if err != nil {
			check("alloc-succeeds", false, err.Error())
			return
		}
		mode := "fresh"
		if resp.Degraded {
			mode = "degraded: " + resp.DegradedReason
		}
		check("alloc-succeeds", true, mode)
		down := map[int]bool{}
		for _, id := range inj.DownNodes() {
			down[id] = true
		}
		for _, n := range resp.Nodes {
			if down[n] {
				check("alloc-avoids-dead", false, fmt.Sprintf("node %d allocated while down", n))
				return
			}
		}
		check("alloc-avoids-dead", true, fmt.Sprintf("nodes=%v", resp.Nodes))
	}
	checkLivehosts := func() {
		hosts, _, err := monitor.ReadLivehosts(fs)
		if err != nil {
			check("livehosts-converged", false, err.Error())
			return
		}
		down := map[int]bool{}
		for _, id := range inj.DownNodes() {
			down[id] = true
		}
		var want []int
		for id := 0; id < numNodes; id++ {
			if !down[id] {
				want = append(want, id)
			}
		}
		got := append([]int(nil), hosts...)
		sort.Ints(got)
		ok := len(got) == len(want)
		for i := 0; ok && i < len(got); i++ {
			ok = got[i] == want[i]
		}
		check("livehosts-converged", ok, fmt.Sprintf("got=%v want=%v", got, want))
	}

	jobIDs := make([]int, 0, cfg.Windows)
	submitJob := func(wnd int) {
		shape := chaosJobShape(wnd)
		id, err := q.Submit(jobqueue.Spec{
			Name:    shape.Name,
			Request: broker.Request{Procs: shape.Ranks},
			Start: func(id int, resp broker.Response, done func(error)) error {
				place := mpisim.Placement{NodeOf: resp.Allocation.RankNodes()}
				_, err := w.LaunchJob(shape, place, func(res mpisim.Result) { done(nil) })
				return err
			},
		})
		if err != nil {
			check("job-submitted", false, err.Error())
			return
		}
		report.JobsSubmitted++
		jobIDs = append(jobIDs, id)
	}

	for wnd := 0; wnd < cfg.Windows; wnd++ {
		// +25s: primary and secondary faults are live (recovery is at
		// half-window), failover has settled.
		sched.RunFor(25 * time.Second)
		checkMasters()
		checkAllocAvoidsDead()
		// +35s: recovery events fired; submit this window's job.
		sched.RunFor(10 * time.Second)
		submitJob(wnd)
		// +59s: the window's faults must be fully absorbed.
		sched.RunFor(24 * time.Second)
		checkMasters()
		checkLivehosts()
		sched.RunFor(time.Second)
	}

	// Settle: let the last window's relaunches and jobs finish.
	sched.RunFor(time.Minute)

	report.EventLog = inj.Log()
	report.WorkerCrashes = inj.WorkerCrashes()
	report.MasterKills = inj.MasterKills()
	report.SlaveKills = inj.SlaveKills()
	for _, c := range mgr.Centrals() {
		report.Relaunches += c.Relaunches()
		report.Promotions += c.Promotions()
	}
	report.StoreFaults = fs.TotalFaults()
	report.DegradedServes = b.DegradedServed()

	// Freeze the observability picture and reconcile it against the
	// independently-kept counts: the registry is fed by the components
	// themselves (supervisors, broker, queue, injector), so any drift
	// between the two paths is a bookkeeping bug.
	report.freeze(fs, reg)
	ctr := report.Metrics.Counters
	checkCounter := func(name string, want uint64) {
		got := ctr[name]
		check("obs-"+name, got == want, fmt.Sprintf("counter=%d want=%d", got, want))
	}
	checkCounter("monitor.relaunches.total", uint64(report.Relaunches))
	checkCounter("monitor.promotions.total", uint64(report.Promotions))
	checkCounter("chaos.crash-worker.total", uint64(report.WorkerCrashes))
	checkCounter("chaos.kill-master.total", uint64(report.MasterKills))
	checkCounter("chaos.kill-slave.total", uint64(report.SlaveKills))
	checkCounter("broker.allocate.degraded", report.DegradedServes)
	faultsGauge := report.Metrics.Gauges["store.faults.total"]
	check("obs-store.faults.total", faultsGauge == float64(report.StoreFaults),
		fmt.Sprintf("gauge=%v want=%d", faultsGauge, report.StoreFaults))

	for _, d := range mgr.Workers() {
		if !d.Running() {
			check("workers-recovered", false, d.Name()+" not running")
		}
	}
	check("relaunches-match-crashes", report.Relaunches == report.WorkerCrashes,
		fmt.Sprintf("relaunches=%d crashes=%d", report.Relaunches, report.WorkerCrashes))
	check("promotions-match-master-kills", report.Promotions == report.MasterKills,
		fmt.Sprintf("promotions=%d masterKills=%d", report.Promotions, report.MasterKills))
	check("central-pair-replenished", len(mgr.Centrals()) == 2+report.MasterKills+report.SlaveKills,
		fmt.Sprintf("centrals=%d masterKills=%d slaveKills=%d", len(mgr.Centrals()), report.MasterKills, report.SlaveKills))
	checkMasters()
	checkLivehosts()

	for _, id := range jobIDs {
		j, ok := q.Job(id)
		if !ok {
			report.JobsFailed++
			check("jobs-complete", false, fmt.Sprintf("job %d vanished", id))
			continue
		}
		switch j.State {
		case jobqueue.StateDone:
			report.JobsDone++
		default:
			report.JobsFailed++
			check("jobs-complete", false, fmt.Sprintf("job %d (%s) state=%s err=%v", id, j.Name, j.State, j.Err))
		}
	}
	check("all-jobs-done", report.JobsDone == report.JobsSubmitted,
		fmt.Sprintf("done=%d submitted=%d", report.JobsDone, report.JobsSubmitted))
	checkCounter("jobqueue.submitted.total", uint64(report.JobsSubmitted))
	checkCounter("jobqueue.done.total", uint64(report.JobsDone))

	return report, nil
}
