// Package world composes the cluster substrates — static hardware,
// background load generation, the dynamic network model, and running MPI
// jobs — into a single stepped simulation. The world is the "ground
// truth" that monitoring daemons sample and on which jobs execute; the
// allocator never reads it directly.
//
// The world advances in fixed steps driven by a simtime.Runtime. In each
// step the background generator evolves, every running job progresses at
// rates dictated by current CPU contention and network state, and the
// network's link traffic is rebuilt from all active flows (background +
// jobs + probes), closing the feedback loop: a job slows down the links
// and nodes it uses, which other jobs and the monitor then observe.
package world

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"nlarm/internal/cluster"
	"nlarm/internal/loadgen"
	"nlarm/internal/mpisim"
	"nlarm/internal/netmodel"
	"nlarm/internal/simtime"
)

// Config tunes the simulation world.
type Config struct {
	// Seed drives all stochastic components.
	Seed uint64
	// StepSize is the simulation step; it bounds the reaction time of the
	// feedback loop. Trace generation can use seconds; job experiments
	// should use <= 250ms. Default 250ms.
	StepSize time.Duration
	// Background configures the shared-cluster activity generator.
	Background loadgen.Config
	// Net configures the network model.
	Net netmodel.Config
}

// jobMemPerRankMB is the memory a running MPI rank consumes (charged to
// its node's used memory).
const jobMemPerRankMB = 120

// NodeSample is an instantaneous ground-truth reading of a node, the raw
// material NodeStateD turns into published attributes.
type NodeSample struct {
	CPULoad     float64
	CPUUtilPct  float64
	UsedMemMB   float64
	Users       int
	FlowRateBps float64
}

type probe struct {
	flow  netmodel.Flow
	until time.Time
}

// World is the stepped cluster simulation. All exported methods are safe
// for concurrent use.
type World struct {
	mu  sync.Mutex
	cfg Config
	cl  *cluster.Cluster
	bg  *loadgen.Generator
	net *netmodel.Network
	now time.Time

	// jobs holds the running jobs in ascending ID (IDs are handed out
	// increasing, so appending keeps it sorted). Every pass over the jobs
	// walks this order: rates, flow order and float sums must not depend
	// on Go's map iteration order, or same-seed runs diverge.
	jobs    []*mpisim.Job
	nextJob int
	onDone  map[int]func(mpisim.Result)
	results []mpisim.Result
	down    map[int]bool
	probes  []probe

	pendingDone []func() // callbacks to fire outside the lock
}

// New creates a world over cl starting at the given virtual time.
func New(cl *cluster.Cluster, cfg Config, start time.Time) *World {
	if cfg.StepSize <= 0 {
		cfg.StepSize = 250 * time.Millisecond
	}
	w := &World{
		cfg:     cfg,
		cl:      cl,
		bg:      loadgen.New(cl, cfg.Background, cfg.Seed),
		net:     netmodel.New(cl.Topo, cfg.Net, cfg.Seed+0x9e37),
		now:     start,
		nextJob: 1, // 0 is netmodel.BackgroundOwner
		onDone:  make(map[int]func(mpisim.Result)),
		down:    make(map[int]bool),
	}
	w.bg.Start(start)
	// Prime the network with the initial background flows.
	w.net.Update(0, w.collectFlowsLocked())
	return w
}

// Cluster returns the static cluster description.
func (w *World) Cluster() *cluster.Cluster { return w.cl }

// Attach registers the world's step on rt so it advances automatically.
func (w *World) Attach(rt simtime.Runtime) simtime.CancelFunc {
	return rt.Every(w.cfg.StepSize, "world.step", w.StepTo)
}

// StepTo advances the world to the given time (no-op if not after the
// current time). Completion callbacks of jobs that finish during the step
// run after internal state is consistent.
func (w *World) StepTo(now time.Time) {
	w.mu.Lock()
	dt := now.Sub(w.now)
	if dt <= 0 {
		w.mu.Unlock()
		return
	}
	w.bg.Step(now, dt)

	env := envView{w: w}
	for i, j := range w.jobs {
		if _, done := j.Advance(env, dt); done {
			// Cleared at once, compacted after the loop: jobs later in this
			// step no longer see the finished job's ranks as load.
			w.jobs[i] = nil
			w.finishLocked(j)
		}
	}
	w.compactJobsLocked()

	// Expire probes and rebuild network traffic.
	live := w.probes[:0]
	for _, p := range w.probes {
		if p.until.After(now) {
			live = append(live, p)
		}
	}
	w.probes = live
	w.net.Update(dt, w.collectFlowsLocked())
	w.now = now

	callbacks := w.pendingDone
	w.pendingDone = nil
	w.mu.Unlock()
	for _, cb := range callbacks {
		cb()
	}
}

// finishLocked records a finished job's result and queues its completion
// callback to fire once the lock is released.
func (w *World) finishLocked(j *mpisim.Job) {
	res := j.Result()
	w.results = append(w.results, res)
	if cb := w.onDone[j.ID]; cb != nil {
		delete(w.onDone, j.ID)
		w.pendingDone = append(w.pendingDone, func() { cb(res) })
	}
}

// compactJobsLocked drops the entries a pass over w.jobs cleared.
func (w *World) compactJobsLocked() {
	w.jobs = slices.DeleteFunc(w.jobs, func(j *mpisim.Job) bool { return j == nil })
}

// collectFlowsLocked gathers background, job, and probe flows.
func (w *World) collectFlowsLocked() []netmodel.Flow {
	var flows []netmodel.Flow
	for _, f := range w.bg.Flows() {
		flows = append(flows, netmodel.Flow{Src: f.Src, Dst: f.Dst, RateBps: f.RateBps, Owner: netmodel.BackgroundOwner})
	}
	for _, j := range w.jobs {
		for _, f := range j.Flows() {
			flows = append(flows, netmodel.Flow{Src: f.Src, Dst: f.Dst, RateBps: f.RateBps, Owner: j.ID})
		}
	}
	for _, p := range w.probes {
		flows = append(flows, p.flow)
	}
	return flows
}

// envView adapts the world to mpisim.Env. Methods are called while the
// world lock is held (from StepTo).
type envView struct {
	w *World
}

func (e envView) NodeCores(id int) int       { return e.w.cl.Node(id).Cores }
func (e envView) NodeFreqGHz(id int) float64 { return e.w.cl.Node(id).FreqGHz }

func (e envView) NodeBackgroundLoad(id int, exceptJob int) float64 {
	load := e.w.bg.NodeLoad(id).CPULoad
	for _, j := range e.w.jobs {
		if j == nil || j.ID == exceptJob { // nil: finished earlier in this step
			continue
		}
		load += float64(j.RanksOnNode(id))
	}
	return load
}

func (e envView) AvailBandwidthBps(u, v int, exceptJob int) float64 {
	return e.w.net.AvailBandwidthBpsExcl(u, v, exceptJob)
}

func (e envView) Latency(u, v int) time.Duration {
	return e.w.net.Latency(u, v)
}

// --- Sampling interface used by the monitoring daemons -------------------

// Ping reports whether node id is reachable.
func (w *World) Ping(id int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return id >= 0 && id < w.cl.Size() && !w.down[id]
}

// SetNodeDown injects or clears a node failure. Taking a node down aborts
// every job with ranks on it (MPI loses the communicator when a member
// dies); completion callbacks fire with a failed Result.
func (w *World) SetNodeDown(id int, isDown bool) {
	w.mu.Lock()
	w.down[id] = isDown
	if isDown {
		for i, j := range w.jobs {
			if j.RanksOnNode(id) == 0 {
				continue
			}
			j.Abort(fmt.Sprintf("node %d went down", id))
			w.jobs[i] = nil
			w.finishLocked(j)
		}
		w.compactJobsLocked()
	}
	callbacks := w.pendingDone
	w.pendingDone = nil
	w.mu.Unlock()
	for _, cb := range callbacks {
		cb()
	}
}

// SampleNode returns the instantaneous ground-truth state of node id,
// including contributions of running jobs. It fails for down nodes, like
// a probe against an unreachable host.
func (w *World) SampleNode(id int) (NodeSample, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if id < 0 || id >= w.cl.Size() {
		return NodeSample{}, fmt.Errorf("world: node %d out of range", id)
	}
	if w.down[id] {
		return NodeSample{}, fmt.Errorf("world: node %d is down", id)
	}
	return w.sampleNodeLocked(id), nil
}

func (w *World) sampleNodeLocked(id int) NodeSample {
	nl := w.bg.NodeLoad(id)
	spec := w.cl.Node(id)
	s := NodeSample{
		CPULoad:     nl.CPULoad,
		CPUUtilPct:  nl.CPUUtilPct,
		UsedMemMB:   nl.UsedMemMB,
		Users:       nl.Users,
		FlowRateBps: w.net.NodeFlowRateBps(id),
	}
	for _, j := range w.jobs {
		ranks := j.RanksOnNode(id)
		if ranks == 0 {
			continue
		}
		// MPI ranks busy-wait, so each rank is a runnable process.
		s.CPULoad += float64(ranks)
		occ := float64(ranks)
		if occ > float64(spec.Cores) {
			occ = float64(spec.Cores)
		}
		s.CPUUtilPct += occ / float64(spec.Cores) * 100
		s.UsedMemMB += float64(ranks) * jobMemPerRankMB
	}
	if s.CPUUtilPct > 100 {
		s.CPUUtilPct = 100
	}
	if s.UsedMemMB > spec.TotalMemMB {
		s.UsedMemMB = spec.TotalMemMB
	}
	return s
}

// MeasureLatency measures current one-way latency between two nodes, as
// LatencyD's ping-pong would. Fails if either endpoint is down.
func (w *World) MeasureLatency(u, v int) (time.Duration, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.down[u] || w.down[v] {
		return 0, fmt.Errorf("world: node pair (%d,%d) unreachable", u, v)
	}
	return w.net.Latency(u, v), nil
}

// MeasureBandwidth measures the effective available bandwidth between two
// nodes and the pair's peak capacity, as BandwidthD's transfer benchmark
// would.
func (w *World) MeasureBandwidth(u, v int) (availBps, peakBps float64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.down[u] || w.down[v] {
		return 0, 0, fmt.Errorf("world: node pair (%d,%d) unreachable", u, v)
	}
	return w.net.AvailBandwidthBps(u, v), w.net.PeakBandwidthBps(u, v), nil
}

// InjectProbe charges measurement traffic between u and v for dur — the
// footprint of a bandwidth probe itself.
func (w *World) InjectProbe(u, v int, rateBps float64, dur time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.probes = append(w.probes, probe{
		flow:  netmodel.Flow{Src: u, Dst: v, RateBps: rateBps, Owner: netmodel.BackgroundOwner},
		until: w.now.Add(dur),
	})
}

// --- Job control ----------------------------------------------------------

// LaunchJob starts an MPI job with the given shape on the given placement.
// onDone (optional) fires once when the job completes. Returns the job ID.
func (w *World) LaunchJob(shape *mpisim.Shape, place mpisim.Placement, onDone func(mpisim.Result)) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, n := range place.NodeOf {
		if n < 0 || n >= w.cl.Size() {
			return 0, fmt.Errorf("world: placement uses node %d, cluster has %d nodes", n, w.cl.Size())
		}
		if w.down[n] {
			return 0, fmt.Errorf("world: placement uses down node %d", n)
		}
	}
	id := w.nextJob
	j, err := mpisim.NewJob(id, shape, place, w.now)
	if err != nil {
		return 0, err
	}
	w.nextJob++
	w.jobs = append(w.jobs, j)
	if onDone != nil {
		w.onDone[id] = onDone
	}
	return id, nil
}
