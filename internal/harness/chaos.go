package harness

import (
	"fmt"
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
	"nlarm/internal/world"
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
	// Window is the window length (default 1 minute). Must comfortably
	// exceed the slowest daemon's staleness threshold plus a supervision
	// period, or relaunch accounting checks will flag false violations.
	Window time.Duration
}

// ChaosCheck is one invariant evaluation during the run.
type ChaosCheck struct {
	At   time.Duration // offset from the start of the fault phase
	Name string
	Ok   bool
	Note string
}

// ChaosReport is the outcome of RunChaos: the applied fault log, every
// invariant check, and the final recovery accounting.
type ChaosReport struct {
	Seed     uint64
	Events   []chaos.Event
	EventLog []string
	Checks   []ChaosCheck

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

	// Metrics is the shared instrumentation registry's final snapshot;
	// MetricsText is its deterministic rendering, embedded in Render so
	// the report carries the full observability picture of the run.
	Metrics     *obs.Snapshot
	MetricsText string
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

// Violations returns the names and notes of every failed check.
func (r *ChaosReport) Violations() []string {
	var v []string
	for _, c := range r.Checks {
		if !c.Ok {
			v = append(v, fmt.Sprintf("%v %s: %s", c.At, c.Name, c.Note))
		}
	}
	return v
}

// Ok reports whether every invariant held.
func (r *ChaosReport) Ok() bool { return len(r.Violations()) == 0 }

// Render formats the full report deterministically; two same-seed runs
// must produce identical bytes.
func (r *ChaosReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d checks=%d events=%d\n", r.Seed, len(r.Checks), len(r.Events))
	for _, line := range r.EventLog {
		fmt.Fprintf(&b, "event %s\n", line)
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.Ok {
			status = "VIOLATION"
		}
		fmt.Fprintf(&b, "check %v %s %s %s\n", c.At, c.Name, status, c.Note)
	}
	fmt.Fprintf(&b, "counts crashes=%d masterKills=%d slaveKills=%d relaunches=%d promotions=%d\n",
		r.WorkerCrashes, r.MasterKills, r.SlaveKills, r.Relaunches, r.Promotions)
	fmt.Fprintf(&b, "store faults=%d degradedServes=%d jobs=%d/%d done, %d failed\n",
		r.StoreFaults, r.DegradedServes, r.JobsDone, r.JobsSubmitted, r.JobsFailed)
	if r.MetricsText != "" {
		b.WriteString("metrics:\n")
		for _, line := range strings.Split(strings.TrimRight(r.MetricsText, "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}

// Digest hashes Render with FNV-1a, giving tests a one-number
// reproducibility witness.
func (r *ChaosReport) Digest() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range []byte(r.Render()) {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

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
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	report := &ChaosReport{Seed: cfg.Seed}

	cl, err := cluster.BuildUniform(2, 4, 8, 3.0, 8192)
	if err != nil {
		return nil, err
	}
	numNodes := cl.Size()
	sched := simtime.NewScheduler(defaultEpoch)
	w := world.New(cl, world.Config{Seed: cfg.Seed}, defaultEpoch)
	stopWorld := w.Attach(sched)
	defer stopWorld()

	// One registry is shared by every layer; at the end its counters must
	// reconcile exactly with the injector's and the report's own counts.
	reg := obs.NewRegistry()

	fs := store.NewFault(store.NewMem(), cfg.Seed^0x9e3779b97f4a7c15)
	// Probabilistic corruption stays on monitoring data; control-plane
	// keys (heartbeats, lease) stay honest so recovery accounting is
	// exact. Partitions are scheduled explicitly below.
	fs.SetScope(monitor.KeyLivehostsPrefix, monitor.KeyNodeStatePrefix,
		"latency/", "bandwidth/")
	fs.SetRates(store.Rates{TornWrite: 0.02, StaleRead: 0.05})
	ist := store.Instrument(fs, reg, sched.Now)
	// Generation tracking sits outermost so even failed (torn) writes
	// bump generations and the broker's delta snapshot cache re-reads
	// exactly the keys the chaos schedule perturbed.
	vst := store.Version(ist)

	pr := &monitor.WorldProber{W: w}
	mcfg := chaosMonitorConfig()
	mcfg.Obs = reg
	mgr := monitor.NewManager(pr, vst, mcfg)
	if err := mgr.Start(sched); err != nil {
		return nil, err
	}
	defer mgr.Stop()

	b := broker.New(vst, sched, broker.Config{Seed: cfg.Seed + 7, WaitLoadPerCore: 100, Obs: reg})
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
		Window:  cfg.Window,
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
	store.SyncFaults(fs, reg)
	report.Metrics = reg.Snapshot()
	report.MetricsText = report.Metrics.Render()
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
