// Package harness drives end-to-end experiments on the simulated cluster:
// it assembles the full stack (world, resource monitor, broker), applies
// the paper's measurement protocol (all policies in sequence, repeated,
// averaged), and renders the tables and figures of the evaluation
// section.
package harness

import (
	"fmt"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/broker"
	"nlarm/internal/cluster"
	"nlarm/internal/metrics"
	"nlarm/internal/monitor"
	"nlarm/internal/mpisim"
	"nlarm/internal/simtime"
	"nlarm/internal/store"
	"nlarm/internal/world"
)

// SessionConfig assembles a simulation session. Zero fields take
// defaults.
type SessionConfig struct {
	// Seed drives every stochastic component.
	Seed uint64
	// Cluster overrides the default paper testbed (60 heterogeneous
	// nodes on a 4-switch chain).
	Cluster *cluster.Cluster
	// World overrides parts of the world configuration (Seed is always
	// taken from SessionConfig.Seed).
	World world.Config
	// Monitor overrides the monitoring cadence.
	Monitor monitor.Config
	// Broker overrides the broker configuration (a zero Seed defaults to
	// SessionConfig.Seed+7, preserving historical traces).
	Broker broker.Config
}

// Session is a fully wired simulated deployment: the world advances on a
// deterministic scheduler, monitor daemons sample it into a shared store,
// and a broker allocates from that store.
type Session struct {
	Sched *simtime.Scheduler
	World *world.World
	// Store is the raw backing store (values readable directly); VStore
	// is what the daemons publish through and every broker's snapshot
	// cache reads from: a monitor.DecodeAhead, which decodes new matrices
	// off the loop, over the generation-tracking wrapper.
	Store  *store.MemStore
	VStore *monitor.DecodeAhead
	Mgr    *monitor.Manager
	Broker *broker.Broker

	stopWorld simtime.CancelFunc
}

// defaultEpoch is the virtual start time of every session: an arbitrary
// fixed instant, so runs are reproducible.
var defaultEpoch = time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)

// NewSession builds and starts the full stack (world stepping + monitor
// daemons). Call WarmUp before allocating so the monitor has a full
// bandwidth matrix.
func NewSession(cfg SessionConfig) (*Session, error) {
	return newSession(cfg, nil)
}

// newSession is NewSession with a hook between the raw store and the
// generation-tracking wrapper: a non-nil wrap receives the session's
// scheduler and MemStore and returns the store the wrapper sits on (the
// fault scenarios interpose a fault injector and instrumentation
// there). Generation tracking stays outermost so even writes the
// interposed layers fail still bump generations and the broker's delta
// snapshot cache re-reads exactly the keys that were perturbed.
func newSession(cfg SessionConfig, wrap func(*simtime.Scheduler, store.Store) store.Store) (*Session, error) {
	cl := cfg.Cluster
	if cl == nil {
		var err error
		cl, err = cluster.BuildIITK()
		if err != nil {
			return nil, err
		}
	}
	wcfg := cfg.World
	wcfg.Seed = cfg.Seed
	sched := simtime.NewScheduler(defaultEpoch)
	w := world.New(cl, wcfg, defaultEpoch)
	stop := w.Attach(sched)

	st := store.NewMem()
	var under store.Store = st
	if wrap != nil {
		under = wrap(sched, st)
	}
	vst := monitor.NewDecodeAhead(store.Version(under))
	pr := &monitor.WorldProber{W: w}
	mgr := monitor.NewManager(pr, vst, cfg.Monitor)
	if err := mgr.Start(sched); err != nil {
		return nil, err
	}
	bcfg := cfg.Broker
	if bcfg.Seed == 0 {
		bcfg.Seed = cfg.Seed + 7
	}
	b := broker.New(vst, sched, bcfg)
	return &Session{
		Sched:     sched,
		World:     w,
		Store:     st,
		VStore:    vst,
		Mgr:       mgr,
		Broker:    b,
		stopWorld: stop,
	}, nil
}

// Close halts the session's periodic activities (world stepping and all
// monitor daemons).
func (s *Session) Close() {
	if s.stopWorld != nil {
		s.stopWorld()
	}
	s.Mgr.Stop()
}

// WarmUp advances virtual time by d so the background load develops
// history and every monitoring matrix is published at least once. Use at
// least one bandwidth period (5 min) plus the 15-minute averaging window
// when running means matter; DefaultWarmUp covers both.
func (s *Session) WarmUp(d time.Duration) {
	s.Sched.RunFor(d)
}

// DefaultWarmUp is a warm-up long enough for full monitoring state
// (bandwidth matrix published, 15-minute running means populated).
const DefaultWarmUp = 17 * time.Minute

// Advance moves virtual time forward (between trials).
func (s *Session) Advance(d time.Duration) {
	s.Sched.RunFor(d)
}

// awaitEvents advances virtual time one event at a time until done()
// reports true. Every state change in the stack is a scheduler event, so
// checking after each one sees completion at its exact instant; a clock
// past deadline or a drained event queue is an error rather than a spin.
func awaitEvents(sched *simtime.Scheduler, deadline time.Time, done func() bool) error {
	for !done() {
		if sched.Now().After(deadline) {
			return fmt.Errorf("harness: virtual clock passed deadline %v while waiting", deadline)
		}
		if !sched.Step() {
			return fmt.Errorf("harness: event queue drained before completion")
		}
	}
	return nil
}

// Now returns the current virtual time.
func (s *Session) Now() time.Time { return s.Sched.Now() }

// maxJobVirtualTime caps a single simulated job run; a run exceeding it
// indicates a modeling bug rather than a slow allocation.
const maxJobVirtualTime = 6 * time.Hour

// RunStats are ground-truth measurements taken while a job ran — the
// quantities the paper reads off `uptime` during its runs (Figure 5).
type RunStats struct {
	// MeanLoadPerCore is the mean CPU load per logical core of the
	// allocated nodes, averaged over samples taken every few virtual
	// seconds during the run (includes the job's own ranks, which
	// busy-wait in MPI).
	MeanLoadPerCore float64
	// Samples is the number of load samples taken.
	Samples int
}

// RunJob launches shape on the nodes chosen by allocation and advances
// virtual time until the job completes, returning its result.
func (s *Session) RunJob(shape *mpisim.Shape, a alloc.Allocation) (mpisim.Result, error) {
	res, _, err := s.RunJobSampled(shape, a)
	return res, err
}

// runSamplePeriod is how often RunJobSampled reads the allocated nodes'
// load during execution. It must undercut the shortest job runs (small
// problem sizes finish in well under a second of virtual time).
const runSamplePeriod = 200 * time.Millisecond

// RunJobSampled is RunJob plus during-run load sampling of the allocated
// nodes.
func (s *Session) RunJobSampled(shape *mpisim.Shape, a alloc.Allocation) (mpisim.Result, RunStats, error) {
	var stats RunStats
	rankNodes := a.RankNodes()
	if len(rankNodes) != shape.Ranks {
		return mpisim.Result{}, stats, fmt.Errorf("harness: allocation provides %d rank slots, shape %q needs %d",
			len(rankNodes), shape.Name, shape.Ranks)
	}
	place := mpisim.Placement{NodeOf: rankNodes}
	var result mpisim.Result
	done := false
	_, err := s.World.LaunchJob(shape, place, func(r mpisim.Result) {
		result = r
		done = true
	})
	if err != nil {
		return mpisim.Result{}, stats, err
	}
	coreSum := 0.0
	for _, n := range a.Nodes {
		coreSum += float64(s.World.Cluster().Node(n).Cores)
	}
	loadPerCoreSum := 0.0
	sample := func() {
		if coreSum <= 0 {
			return
		}
		loadSum := 0.0
		for _, n := range a.Nodes {
			if sm, err := s.World.SampleNode(n); err == nil {
				loadSum += sm.CPULoad
			}
		}
		loadPerCoreSum += loadSum / coreSum
		stats.Samples++
	}
	// Take an initial sample right after launch so even the shortest runs
	// are measured.
	sample()
	nextSample := s.Sched.Now().Add(runSamplePeriod)
	err = awaitEvents(s.Sched, s.Sched.Now().Add(maxJobVirtualTime), func() bool {
		if done {
			return true
		}
		if now := s.Sched.Now(); !now.Before(nextSample) {
			nextSample = now.Add(runSamplePeriod)
			sample()
		}
		return false
	})
	if err != nil {
		return mpisim.Result{}, stats, fmt.Errorf("harness: job %q: %w", shape.Name, err)
	}
	if stats.Samples > 0 {
		stats.MeanLoadPerCore = loadPerCoreSum / float64(stats.Samples)
	}
	return result, stats, nil
}

// GroupState captures the state of an allocated node group at allocation
// time, from the same snapshot the allocator used — the quantities of
// Table 4 and Figure 5.
type GroupState struct {
	// AvgCPULoad is the group's mean 1-minute CPU load (Table 4 col 2).
	AvgCPULoad float64
	// AvgCPULoadPerCore is load normalized by logical cores (Figure 5).
	AvgCPULoadPerCore float64
	// AvgComplBWMBps is the mean complement of available bandwidth over
	// all group pairs, in MB/s (Table 4 col 3).
	AvgComplBWMBps float64
	// AvgLatencyUS is the mean pairwise latency in microseconds (Table 4
	// col 4).
	AvgLatencyUS float64
}

// GroupStateOf evaluates the allocated group against a snapshot.
func GroupStateOf(snap *metrics.Snapshot, nodes []int) GroupState {
	var gs GroupState
	if len(nodes) == 0 {
		return gs
	}
	loadSum, coreSum := 0.0, 0.0
	for _, n := range nodes {
		na := snap.Nodes[n]
		loadSum += na.CPULoad.M1
		coreSum += float64(na.Cores)
	}
	gs.AvgCPULoad = loadSum / float64(len(nodes))
	if coreSum > 0 {
		gs.AvgCPULoadPerCore = loadSum / coreSum
	}
	pairCount := 0
	cbwSum, latSum := 0.0, 0.0
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			avail, peak, okB := snap.BandwidthOf(nodes[i], nodes[j])
			lat, okL := snap.LatencyOf(nodes[i], nodes[j])
			if !okB || !okL {
				continue
			}
			cbw := (peak - avail) / 1e6
			if cbw < 0 {
				cbw = 0 // jitter can push a measured value above nominal peak
			}
			cbwSum += cbw
			latSum += float64(lat.Microseconds())
			pairCount++
		}
	}
	if pairCount > 0 {
		gs.AvgComplBWMBps = cbwSum / float64(pairCount)
		gs.AvgLatencyUS = latSum / float64(pairCount)
	}
	return gs
}
