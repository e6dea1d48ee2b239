package monitor

import (
	"sort"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/simtime"
	"nlarm/internal/stats"
	"nlarm/internal/store"
)

// Rounds schedules pairwise measurements among the given nodes the way the
// paper does: the sweep is split into rounds such that within a round each
// node communicates with at most one other node (n/2 disjoint pairs per
// round, n-1 rounds for even n). This keeps measurement traffic from
// interfering with itself. The classic round-robin tournament (circle
// method) provides exactly this schedule.
func Rounds(nodes []int) [][][2]int {
	n := len(nodes)
	if n < 2 {
		return nil
	}
	list := append([]int(nil), nodes...)
	const bye = -1
	if len(list)%2 == 1 {
		list = append(list, bye)
	}
	m := len(list)
	rounds := make([][][2]int, 0, m-1)
	for r := 0; r < m-1; r++ {
		var pairs [][2]int
		for i := 0; i < m/2; i++ {
			a, b := list[i], list[m-1-i]
			if a == bye || b == bye {
				continue
			}
			if a > b {
				a, b = b, a
			}
			pairs = append(pairs, [2]int{a, b})
		}
		rounds = append(rounds, pairs)
		// Rotate all but the first element.
		last := list[m-1]
		copy(list[2:], list[1:m-1])
		list[1] = last
	}
	return rounds
}

// livehostsOrAll returns the current livehosts list, or all node IDs when
// no livehosts record exists yet.
func livehostsOrAll(st store.Store, pr Prober) []int {
	hosts, _, err := ReadLivehosts(st)
	if err == nil && len(hosts) > 0 {
		return hosts
	}
	all := make([]int, pr.NumNodes())
	for i := range all {
		all[i] = i
	}
	return all
}

// LatencyD sweeps pairwise latency at a regular interval (1 minute in the
// paper), maintains 1- and 5-minute running means per pair, and publishes
// the full latency matrix.
type LatencyD struct {
	daemonBase
	pr     Prober
	series map[metrics.PairKey]*stats.TimeSeries
	matrix map[metrics.PairKey]metrics.PairLatency
}

// NewLatencyD builds the latency measurement daemon.
func NewLatencyD(pr Prober, st store.Store, period time.Duration) *LatencyD {
	return &LatencyD{
		daemonBase: daemonBase{name: "latencyd", period: period, st: st},
		pr:         pr,
		series:     make(map[metrics.PairKey]*stats.TimeSeries),
		matrix:     make(map[metrics.PairKey]metrics.PairLatency),
	}
}

// Start implements Daemon.
func (d *LatencyD) Start(rt simtime.Runtime) error {
	return d.start(rt, d.tick)
}

func (d *LatencyD) tick(now time.Time) {
	hosts := livehostsOrAll(d.st, d.pr)
	for _, round := range Rounds(hosts) {
		for _, p := range round {
			lat, err := d.pr.MeasureLatency(p[0], p[1])
			if err != nil {
				continue
			}
			key := metrics.Pair(p[0], p[1])
			ts, ok := d.series[key]
			if !ok {
				ts = stats.NewTimeSeries(6 * time.Minute)
				d.series[key] = ts
			}
			// The sample just added is Means' fallback for an empty window.
			_ = ts.Add(now, lat.Seconds())
			m := ts.Means(now)
			d.matrix[key] = metrics.PairLatency{
				U:         key.U,
				V:         key.V,
				Timestamp: now,
				Last:      lat,
				Mean1:     time.Duration(m.M1 * float64(time.Second)),
				Mean5:     time.Duration(m.M5 * float64(time.Second)),
			}
		}
	}
	d.publish()
}

func (d *LatencyD) publish() {
	out := make([]metrics.PairLatency, 0, len(d.matrix))
	for _, v := range d.matrix {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	_ = putJSON(d.st, KeyLatencyMatrix, out)
}

// ReadLatencyMatrix returns the published latency matrix keyed by pair.
func ReadLatencyMatrix(st store.Store) (map[metrics.PairKey]metrics.PairLatency, error) {
	var list []metrics.PairLatency
	if err := getJSON(st, KeyLatencyMatrix, &list); err != nil {
		return nil, err
	}
	m := make(map[metrics.PairKey]metrics.PairLatency, len(list))
	for _, pl := range list {
		m[metrics.Pair(pl.U, pl.V)] = pl
	}
	return m, nil
}

// BandwidthD sweeps pairwise effective bandwidth at a regular interval
// (5 minutes in the paper) using the same round schedule, and publishes
// the instantaneous values (§4: the allocator uses instantaneous
// bandwidth).
type BandwidthD struct {
	daemonBase
	pr     Prober
	matrix map[metrics.PairKey]metrics.PairBandwidth
}

// NewBandwidthD builds the bandwidth measurement daemon.
func NewBandwidthD(pr Prober, st store.Store, period time.Duration) *BandwidthD {
	return &BandwidthD{
		daemonBase: daemonBase{name: "bandwidthd", period: period, st: st},
		pr:         pr,
		matrix:     make(map[metrics.PairKey]metrics.PairBandwidth),
	}
}

// Start implements Daemon.
func (d *BandwidthD) Start(rt simtime.Runtime) error {
	return d.start(rt, d.tick)
}

func (d *BandwidthD) tick(now time.Time) {
	hosts := livehostsOrAll(d.st, d.pr)
	for _, round := range Rounds(hosts) {
		for _, p := range round {
			avail, peak, err := d.pr.MeasureBandwidth(p[0], p[1])
			if err != nil {
				continue
			}
			key := metrics.Pair(p[0], p[1])
			d.matrix[key] = metrics.PairBandwidth{
				U:         key.U,
				V:         key.V,
				Timestamp: now,
				AvailBps:  avail,
				PeakBps:   peak,
			}
		}
	}
	d.publish()
}

func (d *BandwidthD) publish() {
	out := make([]metrics.PairBandwidth, 0, len(d.matrix))
	for _, v := range d.matrix {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	_ = putJSON(d.st, KeyBandwidthMatrix, out)
}

// ReadBandwidthMatrix returns the published bandwidth matrix keyed by pair.
func ReadBandwidthMatrix(st store.Store) (map[metrics.PairKey]metrics.PairBandwidth, error) {
	var list []metrics.PairBandwidth
	if err := getJSON(st, KeyBandwidthMatrix, &list); err != nil {
		return nil, err
	}
	m := make(map[metrics.PairKey]metrics.PairBandwidth, len(list))
	for _, pb := range list {
		m[metrics.Pair(pb.U, pb.V)] = pb
	}
	return m, nil
}
