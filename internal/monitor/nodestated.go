package monitor

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"nlarm/internal/canon"
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
	series *stats.Series

	// The static attributes last published, and the record's text of
	// them: static[:cut], {"node_id":…,"hostname":…, goes before the
	// timestamp and static[cut:], ,"cores":…,"total_mem_mb":…, after it;
	// staticOK is whether canon took them. They are rebuilt when an
	// attribute changes.
	host           string
	cores          int
	freq, totalMem uint64 // math.Float64bits, so -0 and NaN count as changes
	static         []byte
	cut            int
	staticOK       bool
}

// The fixed resolutions, in steps per unit, that a sample enters a window
// at (stats.Round) and a mean is published at (stats.Series.Mean), as
// from OS counters: load, utilisation (%) and available memory (MB) in
// thousandths; flow rate and bandwidth in whole bps.
const milli, whole = 1000, 1

// windowSpans are the 1/5/15-minute windows of stats.Windowed.
var windowSpans = []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute}

// NewNodeStateD builds the state daemon for node id.
func NewNodeStateD(node int, pr Prober, st store.Store, period time.Duration) *NodeStateD {
	return &NodeStateD{
		daemonBase: daemonBase{
			name:   fmt.Sprintf("nodestated/%d", node),
			period: period,
			st:     st,
		},
		node:   node,
		key:    nodeStateKey(node),
		pr:     pr,
		series: stats.NewSeries(4, windowSpans...),
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
	_ = d.series.Add(now, stats.Round(sample.CPULoad, milli), stats.Round(sample.CPUUtilPct, milli),
		stats.Round(sample.FlowRateBps, whole), stats.Round(totalMem-sample.UsedMemMB, milli))
	_ = d.publish(now, sample.Users, d.pr.Hostname(d.node), cores, freq, totalMem)
}

// publish puts the node's record at now: the static attributes given,
// users, and the series' means, written from its integers.
func (d *NodeStateD) publish(now time.Time, users int, host string, cores int, freq, totalMem float64) error {
	if d.static == nil || host != d.host || cores != d.cores ||
		math.Float64bits(freq) != d.freq || math.Float64bits(totalMem) != d.totalMem {
		d.setStatic(host, cores, freq, totalMem)
	}
	e := d.enc
	e.reset()
	e.OK = d.staticOK
	e.B = append(e.B, d.static[:d.cut]...)
	e.time(`,"timestamp":`, now)
	e.B = append(e.B, d.static[d.cut:]...)
	e.Int(`,"users":`, int64(users))
	e.means(`,"cpu_load":`, d.series, 0, milli)
	e.means(`,"cpu_util_pct":`, d.series, 1, milli)
	e.means(`,"flow_rate_bps":`, d.series, 2, whole)
	e.means(`,"avail_mem_mb":`, d.series, 3, milli)
	if e.Raw(`}`); !e.OK {
		return putJSON(d.st, d.key, metrics.NodeAttrs{
			NodeID:      d.node,
			Hostname:    host,
			Timestamp:   now,
			Cores:       cores,
			FreqGHz:     freq,
			TotalMemMB:  totalMem,
			Users:       users,
			CPULoad:     d.windowed(0, milli),
			CPUUtilPct:  d.windowed(1, milli),
			FlowRateBps: d.windowed(2, whole),
			AvailMemMB:  d.windowed(3, milli),
		})
	}
	return d.st.Put(d.key, e.B)
}

// setStatic rebuilds the record's static text.
func (d *NodeStateD) setStatic(host string, cores int, freq, totalMem float64) {
	d.host, d.cores, d.freq, d.totalMem = host, cores, math.Float64bits(freq), math.Float64bits(totalMem)
	e := canon.Encoder{B: d.static[:0], OK: true}
	e.Int(`{"node_id":`, int64(d.node))
	e.Str(`,"hostname":`, host)
	d.cut = len(e.B)
	e.Int(`,"cores":`, int64(cores))
	e.Float(`,"freq_ghz":`, freq)
	e.Float(`,"total_mem_mb":`, totalMem)
	d.static, d.staticOK = e.B, e.OK
}

// windowed returns column c's three means in published units, c sampled
// at res steps per unit: the values the record's text spells.
func (d *NodeStateD) windowed(c int, res float64) stats.Windowed {
	s := d.series
	return stats.Windowed{M1: float64(s.Mean(0, c)) / res, M5: float64(s.Mean(1, c)) / res, M15: float64(s.Mean(2, c)) / res}
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
