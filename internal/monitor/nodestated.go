package monitor

import (
	"fmt"
	"strconv"
	"time"

	"nlarm/internal/forecast"
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

	cpuLoad  *stats.TimeSeries
	cpuUtil  *stats.TimeSeries
	flowRate *stats.TimeSeries
	availMem *stats.TimeSeries

	// NWS-style forecasters for the attributes the allocator may want to
	// extrapolate (§2 cites NWS; internal/forecast implements the
	// lowest-error-method selection).
	loadForecast *forecast.Forecaster
	flowForecast *forecast.Forecaster
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
		node:         node,
		key:          nodeStateKey(node),
		pr:           pr,
		cpuLoad:      stats.NewTimeSeries(retain),
		cpuUtil:      stats.NewTimeSeries(retain),
		flowRate:     stats.NewTimeSeries(retain),
		availMem:     stats.NewTimeSeries(retain),
		loadForecast: forecast.New(),
		flowForecast: forecast.New(),
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
	_ = d.cpuLoad.Add(now, sample.CPULoad)
	_ = d.cpuUtil.Add(now, sample.CPUUtilPct)
	_ = d.flowRate.Add(now, sample.FlowRateBps)
	_ = d.availMem.Add(now, totalMem-sample.UsedMemMB)
	d.loadForecast.Observe(sample.CPULoad)
	d.flowForecast.Observe(sample.FlowRateBps)

	attrs := metrics.NodeAttrs{
		NodeID:      d.node,
		Hostname:    d.pr.Hostname(d.node),
		Timestamp:   now,
		Cores:       cores,
		FreqGHz:     freq,
		TotalMemMB:  totalMem,
		Users:       sample.Users,
		CPULoad:     d.cpuLoad.Means(now),
		CPUUtilPct:  d.cpuUtil.Means(now),
		FlowRateBps: d.flowRate.Means(now),
		AvailMemMB:  d.availMem.Means(now),
	}
	// Publish forecasts once the ensemble has scored at least one method.
	if v, method, ok := d.loadForecast.Forecast(); ok && d.loadForecast.N() > 1 {
		if v < 0 {
			v = 0
		}
		attrs.CPULoadForecast = &metrics.Forecast{Value: v, Method: method}
	}
	if v, method, ok := d.flowForecast.Forecast(); ok && d.flowForecast.N() > 1 {
		if v < 0 {
			v = 0
		}
		attrs.FlowRateForecast = &metrics.Forecast{Value: v, Method: method}
	}
	_ = putJSON(d.st, d.key, attrs)
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
