// Package netmodel computes the dynamic state of the cluster network:
// given the static topology and the set of currently active flows
// (background transfers, MPI job traffic, monitoring probes), it yields
// the effective peer-to-peer bandwidth and latency between any two nodes,
// plus the per-node data-flow rate the paper's NodeStateD samples.
//
// Model: every flow is routed along the unique tree path between its
// endpoints and charged to each traversed link. The available bandwidth of
// a pair is the bottleneck (minimum) residual capacity along the path,
// degraded by a per-link multiplicative jitter process that reproduces the
// persistent fluctuation-around-a-topology-determined-base behaviour of
// Figure 2(b). Latency grows with the utilization of the most congested
// link on the path (queueing) on top of a per-hop store-and-forward base
// and a fixed software (MPI stack) overhead.
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
	jitter  float64 // multiplicative, mean-reverting around 1
	rnd     *rng.Rand
}

// Network is the dynamic network state. Not safe for concurrent use; the
// world steps and queries it from one goroutine (monitor daemons access it
// through the world's lock).
type Network struct {
	cfg   Config
	topo  *topology.Topology
	links map[topology.LinkID]*linkState
	// gateway is a node attached to switch 0 used to route external
	// flows, cached once (-1 when switch 0 has no nodes).
	gateway int
}

// New builds the network over topo, seeded for deterministic jitter.
// Each link's jitter stream is derived from the link's identity, so the
// model is reproducible regardless of map iteration order.
func New(topo *topology.Topology, cfg Config, seed uint64) *Network {
	cfg = cfg.withDefaults()
	n := &Network{cfg: cfg, topo: topo, links: make(map[topology.LinkID]*linkState), gateway: -1}
	if at0 := topo.NodesAt(0); len(at0) > 0 {
		n.gateway = at0[0]
	}
	for _, l := range topo.Links() {
		h := fnv.New64a()
		_, _ = h.Write([]byte(l.String()))
		n.links[l] = &linkState{
			id:      l,
			cap:     topo.Capacity(l),
			jitter:  1,
			rnd:     rng.New(seed ^ h.Sum64()),
			byOwner: make(map[int]float64),
		}
	}
	return n
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

func (n *Network) pathOf(f Flow) []topology.LinkID {
	if f.Dst < 0 {
		return n.externalPath(f.Src)
	}
	return n.topo.Path(f.Src, f.Dst)
}

// Update replaces the active flow set and advances the jitter processes
// by dt. Call once per simulation step.
func (n *Network) Update(dt time.Duration, flows []Flow) {
	for _, ls := range n.links {
		ls.traffic = 0
		for k := range ls.byOwner {
			delete(ls.byOwner, k)
		}
	}
	for _, f := range flows {
		if f.RateBps <= 0 || f.Src == f.Dst {
			continue
		}
		for _, l := range n.pathOf(f) {
			if ls, ok := n.links[l]; ok {
				ls.traffic += f.RateBps
				if f.Owner != BackgroundOwner {
					ls.byOwner[f.Owner] += f.RateBps
				}
			}
		}
	}
	if dt > 0 {
		dtSec := dt.Seconds()
		for _, ls := range n.links {
			// Mean-reverting multiplicative jitter around 1, clamped to a
			// physical range.
			ls.jitter += (1 - ls.jitter) * dtSec / 120
			ls.jitter += n.cfg.JitterSigma * math.Sqrt(dtSec/60) * ls.rnd.Norm()
			if ls.jitter < 0.5 {
				ls.jitter = 0.5
			}
			if ls.jitter > 1.15 {
				ls.jitter = 1.15
			}
		}
	}
}

// linkAvail returns the residual capacity of link l for one new transfer,
// ignoring traffic charged to excludeOwner (pass BackgroundOwner to count
// everything).
func (n *Network) linkAvail(l topology.LinkID, excludeOwner int) float64 {
	ls, ok := n.links[l]
	if !ok {
		return 0
	}
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
	for _, l := range n.topo.Path(u, v) {
		if a := n.linkAvail(l, excludeOwner); a < avail {
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
	for _, l := range n.topo.Path(u, v) {
		if c := n.topo.Capacity(l); c < peak {
			peak = c
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
	for _, l := range n.topo.Path(u, v) {
		ls, ok := n.links[l]
		if !ok || ls.cap == 0 {
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
	l := topology.EdgeLink(id, n.topo.SwitchOf(id))
	if ls, ok := n.links[l]; ok {
		return ls.traffic
	}
	return 0
}
