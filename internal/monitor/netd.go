package monitor

import (
	"slices"
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

// pairSweep is the sweep-and-publish loop LatencyD and BandwidthD
// share: each tick measures every pair of live hosts on the Rounds
// schedule, keeps the newest record per pair (a pair that fails to
// measure keeps its last one), and publishes the whole matrix under key,
// ascending by pair.
type pairSweep[T metrics.PairRecord] struct {
	daemonBase
	pr      Prober
	key     string
	measure func(now time.Time, k metrics.PairKey) (T, error)
	// write encodes one record of the published list.
	write func(*tickEncoder, *T)
	// matrix is the published list, ascending by pair; at maps a pair to
	// its index there. Only a pair seen for the first time re-sorts it.
	matrix []T
	at     map[metrics.PairKey]int
	// rounds is Rounds(hosts), rebuilt when the live hosts change.
	hosts  []int
	rounds [][][2]int
}

func newPairSweep[T metrics.PairRecord](name, key string, pr Prober, st store.Store, period time.Duration,
	measure func(now time.Time, k metrics.PairKey) (T, error), write func(*tickEncoder, *T)) pairSweep[T] {
	return pairSweep[T]{
		daemonBase: daemonBase{name: name, period: period, st: st},
		pr:         pr,
		key:        key,
		measure:    measure,
		write:      write,
		at:         make(map[metrics.PairKey]int),
	}
}

// Start implements Daemon.
func (d *pairSweep[T]) Start(rt simtime.Runtime) error {
	return d.start(rt, d.tick)
}

func (d *pairSweep[T]) tick(now time.Time) {
	if hosts := livehostsOrAll(d.st, d.pr); !slices.Equal(hosts, d.hosts) {
		d.hosts, d.rounds = hosts, Rounds(hosts)
	}
	grown := false
	for _, round := range d.rounds {
		for _, p := range round {
			k := metrics.Pair(p[0], p[1])
			rec, err := d.measure(now, k)
			if err != nil {
				continue
			}
			if i, ok := d.at[k]; ok {
				d.matrix[i] = rec
				continue
			}
			d.at[k] = len(d.matrix)
			d.matrix = append(d.matrix, rec)
			grown = true
		}
	}
	if grown {
		slices.SortFunc(d.matrix, metrics.ComparePairs[T])
		for i, rec := range d.matrix {
			d.at[rec.Key()] = i
		}
	}
	list := d.matrix
	if list == nil {
		list = []T{} // an empty matrix is published as [], not null
	}
	_ = putMatrix(&d.enc, d.st, d.key, list, d.write)
}

// readMatrix returns the pair matrix published under key, keyed by pair.
func readMatrix[T metrics.PairRecord](st store.Store, key string) (map[metrics.PairKey]T, error) {
	var list []T
	if err := getJSON(st, key, &list); err != nil {
		return nil, err
	}
	return metrics.PairMap(list), nil
}

// LatencyD sweeps pairwise latency at a regular interval (1 minute in the
// paper), maintains 1- and 5-minute running means per pair, and publishes
// the full latency matrix.
type LatencyD struct {
	pairSweep[metrics.PairLatency]
	series map[metrics.PairKey]*stats.TimeSeries
}

// NewLatencyD builds the latency measurement daemon.
func NewLatencyD(pr Prober, st store.Store, period time.Duration) *LatencyD {
	d := &LatencyD{series: make(map[metrics.PairKey]*stats.TimeSeries)}
	d.pairSweep = newPairSweep("latencyd", KeyLatencyMatrix, pr, st, period, d.measurePair, (*tickEncoder).latency)
	return d
}

func (d *LatencyD) measurePair(now time.Time, k metrics.PairKey) (metrics.PairLatency, error) {
	lat, err := d.pr.MeasureLatency(k.U, k.V)
	if err != nil {
		return metrics.PairLatency{}, err
	}
	ts, ok := d.series[k]
	if !ok {
		ts = stats.NewTimeSeries(6*time.Minute, 1)
		d.series[k] = ts
	}
	// The sample just added is Means' fallback for an empty window.
	_ = ts.Add(now, lat.Seconds())
	var m [1]stats.Windowed
	ts.Means(now, m[:])
	return metrics.PairLatency{
		U:         k.U,
		V:         k.V,
		Timestamp: now,
		Last:      lat,
		Mean1:     time.Duration(m[0].M1 * float64(time.Second)),
		Mean5:     time.Duration(m[0].M5 * float64(time.Second)),
	}, nil
}

// ReadLatencyMatrix returns the published latency matrix keyed by pair.
func ReadLatencyMatrix(st store.Store) (map[metrics.PairKey]metrics.PairLatency, error) {
	return readMatrix[metrics.PairLatency](st, KeyLatencyMatrix)
}

// BandwidthD sweeps pairwise effective bandwidth at a regular interval
// (5 minutes in the paper) using the same round schedule, and publishes
// the instantaneous values (§4: the allocator uses instantaneous
// bandwidth).
type BandwidthD struct {
	pairSweep[metrics.PairBandwidth]
}

// NewBandwidthD builds the bandwidth measurement daemon.
func NewBandwidthD(pr Prober, st store.Store, period time.Duration) *BandwidthD {
	return &BandwidthD{newPairSweep("bandwidthd", KeyBandwidthMatrix, pr, st, period,
		func(now time.Time, k metrics.PairKey) (metrics.PairBandwidth, error) {
			avail, peak, err := pr.MeasureBandwidth(k.U, k.V)
			return metrics.PairBandwidth{U: k.U, V: k.V, Timestamp: now, AvailBps: avail, PeakBps: peak}, err
		}, (*tickEncoder).bandwidth)}
}

// ReadBandwidthMatrix returns the published bandwidth matrix keyed by pair.
func ReadBandwidthMatrix(st store.Store) (map[metrics.PairKey]metrics.PairBandwidth, error) {
	return readMatrix[metrics.PairBandwidth](st, KeyBandwidthMatrix)
}
