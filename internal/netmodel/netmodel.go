// Package netmodel computes the dynamic state of the cluster network:
// given the static topology and the set of currently active flows
// (background transfers, MPI job traffic, monitoring probes), it yields
// the effective peer-to-peer bandwidth and latency between any two nodes,
// plus the per-node data-flow rate the paper's NodeStateD samples.
//
// Model: every flow is routed along the unique tree path between its
// endpoints and charged to each traversed link. The available bandwidth of
// a pair is the bottleneck (minimum) residual capacity along the path,
// degraded by a per-link multiplicative jitter process (Jitter) that
// reproduces the persistent fluctuation-around-a-topology-determined-base
// behaviour of Figure 2(b). Latency grows with the utilization of the
// most congested link on the path (queueing) on top of a per-hop
// store-and-forward base and a fixed software (MPI stack) overhead.
package netmodel

import (
	"hash/fnv"
	"math"
	"time"

	"nlarm/internal/rng"
	"nlarm/internal/topology"
)

// BackgroundOwner is the Flow.Owner value for traffic that belongs to no
// simulated job (background sessions, monitoring probes).
const BackgroundOwner = 0

// Flow is one active transfer. Dst < 0 denotes a destination outside the
// cluster; such flows are routed from Src to the external gateway, which
// hangs off switch 0. Owner tags the traffic source (a job ID, or
// BackgroundOwner) so queries can exclude a job's own traffic when
// estimating the bandwidth available *to* that job.
type Flow struct {
	Src     int
	Dst     int
	RateBps float64
	Owner   int
}

// Config tunes the network model. Zero values take defaults.
type Config struct {
	// SoftwareOverhead is the fixed per-message latency added by the MPI
	// stack and OS (independent of hops).
	SoftwareOverhead time.Duration
	// MinShareFrac bounds how far contention can push the residual
	// capacity of a link: a new transfer always gets at least this
	// fraction of capacity (TCP fairness never starves a flow entirely).
	MinShareFrac float64
	// JitterSigma is the volatility of the per-link bandwidth jitter.
	JitterSigma float64
	// QueueFactor scales how strongly utilization inflates latency.
	QueueFactor float64
	// MaxLatencyInflation caps congestion-driven latency growth.
	MaxLatencyInflation float64
	// HopFactor is the per-extra-switch multiplicative throughput
	// degradation (store-and-forward and oversubscription make multi-hop
	// paths slower even when idle — the topology structure visible in
	// Figure 2(a)).
	HopFactor float64
}

func (c Config) withDefaults() Config {
	if c.SoftwareOverhead == 0 {
		c.SoftwareOverhead = 30 * time.Microsecond
	}
	if c.MinShareFrac == 0 {
		c.MinShareFrac = 0.05
	}
	if c.JitterSigma == 0 {
		c.JitterSigma = 0.08
	}
	if c.QueueFactor == 0 {
		c.QueueFactor = 4.0
	}
	if c.MaxLatencyInflation == 0 {
		c.MaxLatencyInflation = 12
	}
	if c.HopFactor == 0 {
		c.HopFactor = 0.88
	}
	return c
}

type linkState struct {
	id      topology.LinkID
	cap     float64
	traffic float64 // current charged traffic, bytes/sec
	byOwner map[int]float64
	jitter  float64 // the factor Update last took
}

// Network is the dynamic network state. Not safe for concurrent use; the
// world updates and queries it from one goroutine (monitor daemons access
// it through the world's lock), which also guards the lazily built routes.
type Network struct {
	cfg   Config
	topo  *topology.Topology
	links map[topology.LinkID]*linkState
	// all lists every link state once, in the order Update takes jitter
	// factors (topology.Links's order at New).
	all []*linkState
	// edge[id] is node id's access link.
	edge []*linkState
	// routes[u][v] is Path(u, v) and external[u] externalPath(u) resolved
	// to link states in path order, each built on first use; a row of
	// routes is allocated when u first sends.
	routes   [][][]*linkState
	external [][]*linkState
	// gateway is a node attached to switch 0 used to route external
	// flows, cached once (-1 when switch 0 has no nodes).
	gateway int
}

// New builds the network over topo, every link idle at jitter 1.
func New(topo *topology.Topology, cfg Config) *Network {
	cfg = cfg.withDefaults()
	nodes := topo.NumNodes()
	n := &Network{
		cfg:      cfg,
		topo:     topo,
		links:    make(map[topology.LinkID]*linkState),
		edge:     make([]*linkState, nodes),
		routes:   make([][][]*linkState, nodes),
		external: make([][]*linkState, nodes),
		gateway:  -1,
	}
	if at0 := topo.NodesAt(0); len(at0) > 0 {
		n.gateway = at0[0]
	}
	for _, l := range topo.Links() {
		ls := &linkState{
			id:      l,
			cap:     topo.Capacity(l),
			jitter:  1,
			byOwner: make(map[int]float64),
		}
		n.links[l] = ls
		n.all = append(n.all, ls)
	}
	for id := range n.edge {
		n.edge[id] = n.links[topology.EdgeLink(id, topo.SwitchOf(id))]
	}
	return n
}

// resolve maps a path's links to their states, in path order.
func (n *Network) resolve(path []topology.LinkID) []*linkState {
	out := make([]*linkState, len(path))
	for i, l := range path {
		out[i] = n.links[l]
	}
	return out
}

// route returns the link states of Path(u, v), resolving them once.
func (n *Network) route(u, v int) []*linkState {
	row := n.routes[u]
	if row == nil {
		row = make([][]*linkState, len(n.routes))
		n.routes[u] = row
	}
	if row[v] == nil {
		row[v] = n.resolve(n.topo.Path(u, v))
	}
	return row[v]
}

// externalRoute returns the link states of externalPath(src), resolving
// them once.
func (n *Network) externalRoute(src int) []*linkState {
	if n.external[src] == nil {
		n.external[src] = n.resolve(n.externalPath(src))
	}
	return n.external[src]
}

// externalPath routes a flow from src to the external gateway: src's edge
// link plus the trunks from src's switch to switch 0.
func (n *Network) externalPath(src int) []topology.LinkID {
	s := n.topo.SwitchOf(src)
	links := []topology.LinkID{topology.EdgeLink(src, s)}
	if s == 0 {
		return links
	}
	// Walk the tree path from s to 0 by reusing a node attached to switch 0
	// if one exists; otherwise only the edge link is charged.
	if n.gateway < 0 {
		return links
	}
	full := n.topo.Path(src, n.gateway)
	// Drop the destination's edge link: the gateway is the switch itself.
	return full[:len(full)-1]
}

func (n *Network) routeOf(f Flow) []*linkState {
	if f.Dst < 0 {
		return n.externalRoute(f.Src)
	}
	return n.route(f.Src, f.Dst)
}

// Jitter is the bandwidth jitter of a Network's links: one
// multiplicative factor per link, mean-reverting around 1, each drawing
// from a stream derived from the link's identity (so it is reproducible
// whatever the map order). Traffic never feeds back into it, so it steps
// apart from the Network, which takes its factors in Update.
type Jitter struct {
	sigma   float64
	factors []float64
	rnd     []*rng.Rand
}

// NewJitter returns the jitter of n's links, every factor at 1, in the
// order Update takes them.
func (n *Network) NewJitter(seed uint64) *Jitter {
	j := &Jitter{sigma: n.cfg.JitterSigma, factors: make([]float64, len(n.all)), rnd: make([]*rng.Rand, len(n.all))}
	for i, ls := range n.all {
		h := fnv.New64a()
		_, _ = h.Write([]byte(ls.id.String()))
		j.factors[i] = 1
		j.rnd[i] = rng.New(seed ^ h.Sum64())
	}
	return j
}

// Step advances every link's factor by dt.
func (j *Jitter) Step(dt time.Duration) {
	dtSec := dt.Seconds()
	sqrtDt := math.Sqrt(dtSec / 60)
	for i, x := range j.factors {
		// Mean-reverting multiplicative jitter around 1, clamped to a
		// physical range.
		x += (1 - x) * dtSec / 120
		x += j.sigma * sqrtDt * j.rnd[i].Norm()
		if x < 0.5 {
			x = 0.5
		}
		if x > 1.15 {
			x = 1.15
		}
		j.factors[i] = x
	}
}

// Factors returns every link's current factor, in the order Update takes
// them. The slice is the Jitter's own: Step overwrites it.
func (j *Jitter) Factors() []float64 { return j.factors }

// Update replaces the active flow set and every link's jitter factor,
// jitter[i] for the link at i in NewJitter's order. Call once per
// simulation step. Each link sums its flows in flow order.
func (n *Network) Update(flows []Flow, jitter []float64) {
	for _, ls := range n.all {
		ls.traffic = 0
		clear(ls.byOwner)
	}
	for _, f := range flows {
		if f.RateBps <= 0 || f.Src == f.Dst {
			continue
		}
		for _, ls := range n.routeOf(f) {
			ls.traffic += f.RateBps
			if f.Owner != BackgroundOwner {
				ls.byOwner[f.Owner] += f.RateBps
			}
		}
	}
	for i, ls := range n.all {
		ls.jitter = jitter[i]
	}
}

// linkAvail returns the residual capacity of link ls for one new
// transfer, ignoring traffic charged to excludeOwner (pass BackgroundOwner
// to count everything).
func (n *Network) linkAvail(ls *linkState, excludeOwner int) float64 {
	traffic := ls.traffic
	if excludeOwner != BackgroundOwner {
		traffic -= ls.byOwner[excludeOwner]
	}
	avail := ls.cap - traffic
	if floor := ls.cap * n.cfg.MinShareFrac; avail < floor {
		avail = floor
	}
	return avail * ls.jitter
}

// AvailBandwidthBps returns the effective bandwidth in bytes/sec a new
// transfer between u and v would see: the bottleneck residual along the
// path. Loopback pairs get +Inf semantics via the edge capacity (memory
// copies are effectively free at this scale); we return the edge capacity
// times 10 to keep the math finite.
func (n *Network) AvailBandwidthBps(u, v int) float64 {
	return n.AvailBandwidthBpsExcl(u, v, BackgroundOwner)
}

// hopDegradation returns the multi-hop throughput factor for a path
// crossing `hops` switches: HopFactor^(hops-1).
func (n *Network) hopDegradation(u, v int) float64 {
	hops := n.topo.Hops(u, v)
	if hops <= 1 {
		return 1
	}
	return math.Pow(n.cfg.HopFactor, float64(hops-1))
}

// AvailBandwidthBpsExcl is AvailBandwidthBps but does not count traffic
// already charged to the given owner — the bandwidth the owner itself
// experiences.
func (n *Network) AvailBandwidthBpsExcl(u, v int, excludeOwner int) float64 {
	if u == v {
		return n.topo.EdgeCapacityBps() * 10
	}
	avail := math.Inf(1)
	for _, ls := range n.route(u, v) {
		if a := n.linkAvail(ls, excludeOwner); a < avail {
			avail = a
		}
	}
	if math.IsInf(avail, 1) {
		return 0
	}
	return avail * n.hopDegradation(u, v)
}

// PeakBandwidthBps returns the zero-load bottleneck capacity between u and
// v — the paper's "peak bandwidth" against which available bandwidth is
// complemented.
func (n *Network) PeakBandwidthBps(u, v int) float64 {
	if u == v {
		return n.topo.EdgeCapacityBps() * 10
	}
	peak := math.Inf(1)
	for _, ls := range n.route(u, v) {
		if ls.cap < peak {
			peak = ls.cap
		}
	}
	if math.IsInf(peak, 1) {
		return 0
	}
	return peak * n.hopDegradation(u, v)
}

// maxPathUtil returns the highest utilization (traffic/capacity, capped at
// 1) along the u-v path.
func (n *Network) maxPathUtil(u, v int) float64 {
	maxU := 0.0
	for _, ls := range n.route(u, v) {
		if ls.cap == 0 {
			continue
		}
		util := ls.traffic / ls.cap
		if util > 1 {
			util = 1
		}
		if util > maxU {
			maxU = util
		}
	}
	return maxU
}

// Latency returns the current one-way latency between u and v: per-hop
// base + software overhead, inflated quadratically by the congestion of
// the busiest link on the path. Loopback latency is ~1µs.
func (n *Network) Latency(u, v int) time.Duration {
	if u == v {
		return time.Microsecond
	}
	base := n.topo.BaseLatency(u, v) + n.cfg.SoftwareOverhead
	util := n.maxPathUtil(u, v)
	// Queueing delay grows superlinearly and diverges toward saturation
	// (M/M/1-like), capped to keep the simulation stable.
	infl := 1 + n.cfg.QueueFactor*util*util/math.Max(0.05, 1.02-util)
	if infl > n.cfg.MaxLatencyInflation {
		infl = n.cfg.MaxLatencyInflation
	}
	return time.Duration(float64(base) * infl)
}

// NodeFlowRateBps returns the total data in+out currently crossing node
// id's access link — the paper's "node data flow rate" attribute.
func (n *Network) NodeFlowRateBps(id int) float64 {
	return n.edge[id].traffic
}
