// Package loadgen generates the background activity of a shared,
// non-dedicated cluster: interactive users logging in and out, compute
// jobs raising the CPU run-queue, memory consumers, and network-intensive
// transfers. It is the substitute for the live student/researcher traffic
// on the paper's IIT-Kanpur lab cluster (Figures 1 and 2 of the paper show
// its statistical signature: CPU utilization mostly between 20-35%,
// occasional CPU-load spikes, ~25% memory use, and strongly fluctuating
// per-node network I/O).
//
// Each node carries a slowly-wandering Ornstein-Uhlenbeck baseline for
// CPU load, utilization and memory, plus Poisson-arriving "sessions" that
// add bursts of load, memory, users, or network flows for an
// exponentially-distributed duration. Network flows are exported so the
// network model can charge them to topology links.
package loadgen

import (
	"fmt"
	"math"
	"time"

	"nlarm/internal/cluster"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
)

// External is the pseudo-destination for flows leaving the cluster
// (downloads, video lectures, NFS traffic to servers outside the tree).
const External = -1

// Flow is one active background network transfer. Flows with Dst ==
// External only load the source side of the network.
type Flow struct {
	Src     int
	Dst     int
	RateBps float64
	until   time.Time
}

// NodeLoad is the ground-truth background state of one node at an instant.
type NodeLoad struct {
	// CPULoad is the run-queue length contributed by background work
	// (number of processes waiting to execute, as reported by uptime).
	CPULoad float64
	// CPUUtilPct is background CPU utilization in percent of all logical
	// cores.
	CPUUtilPct float64
	// UsedMemMB is background memory consumption.
	UsedMemMB float64
	// Users is the number of interactively logged-in users.
	Users int
}

// Config tunes the background generator. Zero fields take calibrated
// defaults (DefaultConfig) chosen to match Figure 1's ranges.
type Config struct {
	// BaseCPULoad is the long-run mean of the per-node CPU-load baseline.
	BaseCPULoad float64
	// BaseUtilPct is the long-run mean background CPU utilization (%).
	BaseUtilPct float64
	// BaseMemFrac is the long-run mean fraction of total memory in use.
	BaseMemFrac float64
	// SessionRatePerHour is the Poisson arrival rate of sessions per node.
	SessionRatePerHour float64
	// MeanSessionMinutes is the mean session duration.
	MeanSessionMinutes float64
	// MeanFlowRateBps is the mean rate of a background network flow.
	MeanFlowRateBps float64
	// HeavyNodeFrac is the fraction of nodes that attract systematically
	// more activity (lab machines near the door, login nodes, ...). This
	// produces the persistent node-to-node differences of Figure 1.
	HeavyNodeFrac float64
	// HeavyMultiplier scales session arrival rate on heavy nodes.
	HeavyMultiplier float64
	// HeavyBlockSize groups heaviness over blocks of consecutive node IDs:
	// busy lab rows are physically adjacent machines, so sequentially
	// numbered nodes share fate. Default 5.
	HeavyBlockSize int
	// DiurnalAmplitude modulates session arrivals over a 24-hour cycle:
	// the arrival rate is scaled by 1 + A·sin(...) peaking mid-afternoon
	// and bottoming out at night, like a real lab. 0 < A < 1; default 0.4.
	// Set negative to disable the cycle entirely.
	DiurnalAmplitude float64
	// DiurnalPeakHour is the local hour of peak activity (default 15).
	DiurnalPeakHour float64
}

// DefaultConfig returns the calibrated defaults.
func DefaultConfig() Config {
	return Config{
		BaseCPULoad:        0.35,
		BaseUtilPct:        22,
		BaseMemFrac:        0.25,
		SessionRatePerHour: 1.4,
		MeanSessionMinutes: 18,
		MeanFlowRateBps:    18e6, // ~14% of GigE per flow on average
		HeavyNodeFrac:      0.2,
		HeavyMultiplier:    3.0,
		HeavyBlockSize:     5,
		DiurnalAmplitude:   0.4,
		DiurnalPeakHour:    15,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.BaseCPULoad == 0 {
		c.BaseCPULoad = d.BaseCPULoad
	}
	if c.BaseUtilPct == 0 {
		c.BaseUtilPct = d.BaseUtilPct
	}
	if c.BaseMemFrac == 0 {
		c.BaseMemFrac = d.BaseMemFrac
	}
	if c.SessionRatePerHour == 0 {
		c.SessionRatePerHour = d.SessionRatePerHour
	}
	if c.MeanSessionMinutes == 0 {
		c.MeanSessionMinutes = d.MeanSessionMinutes
	}
	if c.MeanFlowRateBps == 0 {
		c.MeanFlowRateBps = d.MeanFlowRateBps
	}
	if c.HeavyNodeFrac == 0 {
		c.HeavyNodeFrac = d.HeavyNodeFrac
	}
	if c.HeavyMultiplier == 0 {
		c.HeavyMultiplier = d.HeavyMultiplier
	}
	if c.HeavyBlockSize == 0 {
		c.HeavyBlockSize = d.HeavyBlockSize
	}
	if c.DiurnalAmplitude == 0 {
		c.DiurnalAmplitude = d.DiurnalAmplitude
	}
	if c.DiurnalAmplitude < 0 {
		c.DiurnalAmplitude = 0
	}
	if c.DiurnalPeakHour == 0 {
		c.DiurnalPeakHour = d.DiurnalPeakHour
	}
	return c
}

// diurnalFactor returns the activity multiplier at time t: a 24-hour
// sinusoid peaking at DiurnalPeakHour.
func (c Config) diurnalFactor(t time.Time) float64 {
	if c.DiurnalAmplitude <= 0 {
		return 1
	}
	hour := float64(t.Hour()) + float64(t.Minute())/60
	phase := 2 * math.Pi * (hour - c.DiurnalPeakHour) / 24
	return 1 + c.DiurnalAmplitude*math.Cos(phase)
}

// sessionKind enumerates what a background session does.
type sessionKind int

const (
	sessCompute sessionKind = iota // assignment builds, experiments
	sessMemory                     // memory-hungry analysis
	sessNetwork                    // downloads, dataset copies
	sessUser                       // interactive login, light load
)

type session struct {
	kind    sessionKind
	node    int
	load    float64 // CPU-load contribution
	utilPct float64
	memMB   float64
	users   int
	flow    *Flow // non-nil for sessNetwork
	until   time.Time
}

// ou is a mean-reverting Ornstein-Uhlenbeck process clamped at >= 0.
type ou struct {
	x, mean, revert, sigma float64
}

// step advances p by dtSec; sqrtDt is math.Sqrt(dtSec), which Step
// takes once for every node.
func (p *ou) step(dtSec, sqrtDt float64, r *rng.Rand) {
	p.x += p.revert * (p.mean - p.x) * dtSec
	p.x += p.sigma * sqrtDt * r.Norm()
	if p.x < 0 {
		p.x = 0
	}
}

type nodeState struct {
	loadBase ou
	utilBase ou
	memBase  ou
	heavy    bool
	rnd      *rng.Rand
}

// Generator produces background load for every node of a cluster. It is
// not safe for concurrent use; the simulation world steps it from one
// goroutine at a time, ahead of its own loop.
type Generator struct {
	cfg      Config
	cl       *cluster.Cluster
	rnd      *rng.Rand
	nodes    []nodeState
	sessions []*session
	now      time.Time
	flows    []Flow // Flows' buffer
}

// New builds a generator over cl seeded with seed. The same (cluster,
// config, seed) triple yields an identical activity trace.
func New(cl *cluster.Cluster, cfg Config, seed uint64) *Generator {
	cfg = cfg.withDefaults()
	root := rng.New(seed)
	g := &Generator{cfg: cfg, cl: cl, rnd: root.Split()}
	g.nodes = make([]nodeState, cl.Size())
	// Decide heaviness per block of consecutive nodes (physically adjacent
	// machines share usage patterns).
	numBlocks := (cl.Size() + cfg.HeavyBlockSize - 1) / cfg.HeavyBlockSize
	heavyBlock := make([]bool, numBlocks)
	blockRnd := root.Split()
	for b := range heavyBlock {
		heavyBlock[b] = blockRnd.Bool(cfg.HeavyNodeFrac)
	}
	for i := range g.nodes {
		nr := root.Split()
		heavy := heavyBlock[i/cfg.HeavyBlockSize]
		scale := 1.0
		if heavy {
			scale = 1.6
		}
		g.nodes[i] = nodeState{
			loadBase: ou{x: cfg.BaseCPULoad * scale, mean: cfg.BaseCPULoad * scale, revert: 1.0 / 600, sigma: 0.035},
			utilBase: ou{x: cfg.BaseUtilPct * scale, mean: cfg.BaseUtilPct * scale, revert: 1.0 / 600, sigma: 1.2},
			memBase:  ou{x: cfg.BaseMemFrac, mean: cfg.BaseMemFrac * scale, revert: 1.0 / 1800, sigma: 0.004},
			heavy:    heavy,
			rnd:      nr,
		}
	}
	return g
}

// Start records the initial simulation time. Must be called before Step.
func (g *Generator) Start(now time.Time) { g.now = now }

// Step advances all background processes by dt ending at now.
func (g *Generator) Step(now time.Time, dt time.Duration) {
	if dt <= 0 {
		return
	}
	dtSec := dt.Seconds()
	g.now = now
	// Expire sessions.
	live := g.sessions[:0]
	for _, s := range g.sessions {
		if s.until.After(now) {
			live = append(live, s)
		}
	}
	g.sessions = live
	// Poisson session arrivals, modulated by the time of day. Every node
	// draws at one of two rates, each with its Knuth bound taken once.
	baseRate := g.cfg.SessionRatePerHour / 3600 * dtSec * g.cfg.diurnalFactor(now)
	heavyRate := baseRate * g.cfg.HeavyMultiplier
	baseL, heavyL := math.Exp(-baseRate), math.Exp(-heavyRate)
	sqrtDt := math.Sqrt(dtSec)
	for id := range g.nodes {
		ns := &g.nodes[id]
		ns.loadBase.step(dtSec, sqrtDt, ns.rnd)
		ns.utilBase.step(dtSec, sqrtDt, ns.rnd)
		ns.memBase.step(dtSec, sqrtDt, ns.rnd)
		rate, l := baseRate, baseL
		if ns.heavy {
			rate, l = heavyRate, heavyL
		}
		for n := ns.rnd.Poisson(rate, l); n > 0; n-- {
			g.spawnSession(id, now)
		}
	}
}

func (g *Generator) spawnSession(node int, now time.Time) {
	ns := &g.nodes[node]
	dur := time.Duration(ns.rnd.Exp(1.0/(g.cfg.MeanSessionMinutes*60)) * float64(time.Second))
	if dur < 30*time.Second {
		dur = 30 * time.Second
	}
	s := &session{node: node, until: now.Add(dur)}
	// Session mix: network transfers are the most common disturbance on
	// the lab cluster (dataset copies, streaming, NFS), then compute.
	kindWeights := []float64{0.3, 0.15, 0.35, 0.2} // compute, memory, network, user
	switch sessionKind(ns.rnd.Pick(kindWeights)) {
	case sessCompute:
		s.kind = sessCompute
		// A build or experiment occupies 1-6 cores' worth of runnable work.
		s.load = ns.rnd.Range(1, 6)
		s.utilPct = stats.Clamp(s.load/float64(g.cl.Node(node).Cores)*100, 0, 100)
		s.memMB = ns.rnd.Range(200, 1500)
		s.users = 1
	case sessMemory:
		s.kind = sessMemory
		s.load = ns.rnd.Range(0.5, 1.5)
		s.utilPct = ns.rnd.Range(3, 10)
		s.memMB = ns.rnd.Range(1000, 6000)
		s.users = 1
	case sessNetwork:
		s.kind = sessNetwork
		s.load = ns.rnd.Range(0.2, 0.8)
		s.utilPct = ns.rnd.Range(2, 8)
		s.memMB = ns.rnd.Range(100, 500)
		s.users = 1
		dst := External
		// Half of the transfers stay inside the cluster (peer copies, NFS
		// on another node), loading trunk links like the paper observes.
		if ns.rnd.Bool(0.5) && g.cl.Size() > 1 {
			dst = ns.rnd.Intn(g.cl.Size() - 1)
			if dst >= node {
				dst++
			}
		}
		rate := ns.rnd.Exp(1 / g.cfg.MeanFlowRateBps)
		if rate > 110e6 {
			rate = 110e6
		}
		s.flow = &Flow{Src: node, Dst: dst, RateBps: rate, until: s.until}
	default:
		s.kind = sessUser
		s.load = ns.rnd.Range(0.05, 0.3)
		s.utilPct = ns.rnd.Range(1, 5)
		s.memMB = ns.rnd.Range(50, 400)
		s.users = 1
	}
	g.sessions = append(g.sessions, s)
}

// NodeLoad returns the current background state of node id.
func (g *Generator) NodeLoad(id int) NodeLoad {
	if id < 0 || id >= len(g.nodes) {
		panic(fmt.Sprintf("loadgen: node %d out of range [0,%d)", id, len(g.nodes)))
	}
	ns := &g.nodes[id]
	nl := NodeLoad{
		CPULoad:    ns.loadBase.x,
		CPUUtilPct: ns.utilBase.x,
		UsedMemMB:  ns.memBase.x * g.cl.Node(id).TotalMemMB,
		Users:      0,
	}
	for _, s := range g.sessions {
		if s.node != id {
			continue
		}
		nl.CPULoad += s.load
		nl.CPUUtilPct += s.utilPct
		nl.UsedMemMB += s.memMB
		nl.Users += s.users
	}
	nl.CPUUtilPct = stats.Clamp(nl.CPUUtilPct, 0, 100)
	nl.UsedMemMB = stats.Clamp(nl.UsedMemMB, 0, g.cl.Node(id).TotalMemMB)
	return nl
}

// Loads writes every node's NodeLoad into dst, which holds one entry per
// node, in one pass over the sessions. Each node's sums run in session
// order, as NodeLoad's do, so the two agree to the bit.
func (g *Generator) Loads(dst []NodeLoad) {
	for id := range g.nodes {
		ns := &g.nodes[id]
		dst[id] = NodeLoad{
			CPULoad:    ns.loadBase.x,
			CPUUtilPct: ns.utilBase.x,
			UsedMemMB:  ns.memBase.x * g.cl.Node(id).TotalMemMB,
		}
	}
	for _, s := range g.sessions {
		nl := &dst[s.node]
		nl.CPULoad += s.load
		nl.CPUUtilPct += s.utilPct
		nl.UsedMemMB += s.memMB
		nl.Users += s.users
	}
	for id := range g.nodes {
		nl := &dst[id]
		nl.CPUUtilPct = stats.Clamp(nl.CPUUtilPct, 0, 100)
		nl.UsedMemMB = stats.Clamp(nl.UsedMemMB, 0, g.cl.Node(id).TotalMemMB)
	}
}

// Flows returns the currently active background network flows, in
// session order. The slice is reused: it is valid until the next call.
func (g *Generator) Flows() []Flow {
	g.flows = g.flows[:0]
	for _, s := range g.sessions {
		if s.flow != nil {
			g.flows = append(g.flows, *s.flow)
		}
	}
	return g.flows
}
