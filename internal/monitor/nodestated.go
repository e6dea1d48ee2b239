package monitor

import (
	"fmt"
	"strconv"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/simtime"
	"nlarm/internal/stats"
	"nlarm/internal/store"
)

// NodeStateD samples one node's dynamic attributes (CPU load, CPU
// utilization, memory, node data-flow rate, logged-in users) every few
// seconds, maintains 1/5/15-minute running means, and publishes the
// result together with the node's static attributes. One instance runs
// per node, as in the paper.
type NodeStateD struct {
	daemonBase
	node int
	key  string // nodeStateKey(node)
	pr   Prober

	// series holds the four sampled attributes as columns: CPU load, CPU
	// utilisation, flow rate and available memory.
	series *stats.TimeSeries
}

// NewNodeStateD builds the state daemon for node id.
func NewNodeStateD(node int, pr Prober, st store.Store, period time.Duration) *NodeStateD {
	const retain = 16 * time.Minute // covers the 15-minute window
	return &NodeStateD{
		daemonBase: daemonBase{
			name:   fmt.Sprintf("nodestated/%d", node),
			period: period,
			st:     st,
		},
		node:   node,
		key:    nodeStateKey(node),
		pr:     pr,
		series: stats.NewTimeSeries(retain, 4),
	}
}

// Start implements Daemon.
func (d *NodeStateD) Start(rt simtime.Runtime) error {
	return d.start(rt, d.tick)
}

func (d *NodeStateD) tick(now time.Time) {
	sample, err := d.pr.SampleNode(d.node)
	if err != nil {
		// Unreachable node: publish nothing; the stale record plus the
		// livehosts list tell the allocator to skip it.
		return
	}
	cores, freq, totalMem := d.pr.StaticAttrs(d.node)
	_ = d.series.Add(now, sample.CPULoad, sample.CPUUtilPct, sample.FlowRateBps, totalMem-sample.UsedMemMB)
	var m [4]stats.Windowed
	d.series.Means(now, m[:])

	attrs := metrics.NodeAttrs{
		NodeID:      d.node,
		Hostname:    d.pr.Hostname(d.node),
		Timestamp:   now,
		Cores:       cores,
		FreqGHz:     freq,
		TotalMemMB:  totalMem,
		Users:       sample.Users,
		CPULoad:     m[0],
		CPUUtilPct:  m[1],
		FlowRateBps: m[2],
		AvailMemMB:  m[3],
	}
	_ = d.enc.putNodeAttrs(d.st, d.key, &attrs)
}

// nodeStateKey is the store key node id's attributes are published under,
// built in one allocation (prefix + strconv.Itoa takes two above 99).
func nodeStateKey(id int) string {
	var b [32]byte
	return string(strconv.AppendInt(append(b[:0], KeyNodeStatePrefix...), int64(id), 10))
}

// ReadNodeState returns the published attributes of node id.
func ReadNodeState(st store.Store, id int) (metrics.NodeAttrs, error) {
	return readNodeState(st, nodeStateKey(id))
}

func readNodeState(st store.Store, key string) (metrics.NodeAttrs, error) {
	var attrs metrics.NodeAttrs
	err := getJSON(st, key, &attrs)
	return attrs, err
}
