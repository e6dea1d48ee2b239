// Package monitor implements the paper's Resource Monitor: a set of
// light-weight daemons (LivehostsD, NodeStateD, LatencyD, BandwidthD)
// that periodically probe the cluster and publish node attributes and
// pairwise network measurements to a shared store, plus the Central
// Monitor master/slave pair that supervises and relaunches them.
//
// Daemons are driven by a simtime.Runtime, so the same code runs inside
// the deterministic simulation (experiments) and against the wall clock
// (the cmd/ daemons).
package monitor

import (
	"time"

	"nlarm/internal/world"
)

// NodeSample is one instantaneous reading of a node's dynamic attributes.
type NodeSample struct {
	CPULoad     float64
	CPUUtilPct  float64
	UsedMemMB   float64
	Users       int
	FlowRateBps float64
}

// Prober abstracts how daemons observe the cluster. The simulation world
// implements it via WorldProber; a real deployment would shell out to
// lscpu/uptime/psutil equivalents and MPI ping-pong benchmarks.
type Prober interface {
	// NumNodes returns the cluster size; node IDs are 0..NumNodes-1.
	NumNodes() int
	// Hostname returns the node's hostname.
	Hostname(id int) string
	// StaticAttrs returns the node's immutable hardware attributes.
	StaticAttrs(id int) (cores int, freqGHz, totalMemMB float64)
	// Ping reports whether the node currently responds.
	Ping(id int) bool
	// SampleNode reads the node's dynamic attributes; it fails when the
	// node is unreachable.
	SampleNode(id int) (NodeSample, error)
	// MeasureLatency runs a latency probe between two nodes.
	MeasureLatency(u, v int) (time.Duration, error)
	// MeasureBandwidth runs a bandwidth probe between two nodes, returning
	// the effective available bandwidth and the pair's peak capacity.
	MeasureBandwidth(u, v int) (availBps, peakBps float64, err error)
}

// WorldProber adapts the simulation world to the Prober interface.
type WorldProber struct{ W *world.World }

// NumNodes implements Prober.
func (p *WorldProber) NumNodes() int { return p.W.Cluster().Size() }

// Hostname implements Prober.
func (p *WorldProber) Hostname(id int) string { return p.W.Cluster().Node(id).Hostname }

// StaticAttrs implements Prober.
func (p *WorldProber) StaticAttrs(id int) (int, float64, float64) {
	n := p.W.Cluster().Node(id)
	return n.Cores, n.FreqGHz, n.TotalMemMB
}

// Ping implements Prober.
func (p *WorldProber) Ping(id int) bool { return p.W.Ping(id) }

// SampleNode implements Prober.
func (p *WorldProber) SampleNode(id int) (NodeSample, error) {
	s, err := p.W.SampleNode(id)
	if err != nil {
		return NodeSample{}, err
	}
	return NodeSample{
		CPULoad:     s.CPULoad,
		CPUUtilPct:  s.CPUUtilPct,
		UsedMemMB:   s.UsedMemMB,
		Users:       s.Users,
		FlowRateBps: s.FlowRateBps,
	}, nil
}

// MeasureLatency implements Prober.
func (p *WorldProber) MeasureLatency(u, v int) (time.Duration, error) {
	return p.W.MeasureLatency(u, v)
}

// MeasureBandwidth implements Prober.
func (p *WorldProber) MeasureBandwidth(u, v int) (float64, float64, error) {
	return p.W.MeasureBandwidth(u, v)
}
