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
	pr  Prober
	key string
	// measure measures pair k, whose index is i.
	measure func(now time.Time, k metrics.PairKey, i int) (T, error)
	// write encodes one record of the published list.
	write func(*tickEncoder, *T)
	// recs holds each pair's newest record at its pairIndex; a pair
	// never measured holds the zero record.
	recs []T
	// rounds is Rounds(hosts), rebuilt when the live hosts change.
	hosts  []int
	rounds [][][2]int
}

// pairIndex is pair (u, v)'s place, u < v < n, in the n(n-1)/2 pairs of
// n nodes ascending by (u, v).
func pairIndex(n, u, v int) int { return u*(2*n-u-1)/2 + v - u - 1 }

func newPairSweep[T metrics.PairRecord](name, key string, pr Prober, st store.Store, period time.Duration,
	measure func(now time.Time, k metrics.PairKey, i int) (T, error), write func(*tickEncoder, *T)) pairSweep[T] {
	return pairSweep[T]{
		daemonBase: daemonBase{name: name, period: period, st: st},
		pr:         pr,
		key:        key,
		measure:    measure,
		write:      write,
		recs:       make([]T, pr.NumNodes()*(pr.NumNodes()-1)/2),
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
	for _, round := range d.rounds {
		for _, p := range round {
			i := pairIndex(d.pr.NumNodes(), p[0], p[1])
			if rec, err := d.measure(now, metrics.Pair(p[0], p[1]), i); err == nil {
				d.recs[i] = rec
			}
		}
	}
	_ = putMatrix(d.enc, d.st, d.key, d.recs, d.write)
}

// readMatrix returns the pair matrix published under key, keyed by pair,
// with its metrics.FoldPairs; hint sizes the decoded list. Through a
// DecodeAhead it takes the worker's decode of the bytes it read.
func readMatrix[T metrics.PairRecord](st store.Store, key string, hint int) (map[metrics.PairKey]T, uint64, error) {
	b, err := st.Get(key)
	if err != nil {
		return nil, 0, err
	}
	if a, ok := st.(*DecodeAhead); ok {
		return decodeRead[T](a, key, b, hint)
	}
	return decodeMatrix[T](key, b, hint)
}

// LatencyD sweeps pairwise latency at a regular interval (1 minute in the
// paper), maintains 1- and 5-minute running means per pair in whole
// nanoseconds, and publishes the full latency matrix.
type LatencyD struct {
	pairSweep[metrics.PairLatency]
	// series holds each pair's latencies at its pairIndex, from its first
	// measurement.
	series []*stats.Series
}

// NewLatencyD builds the latency measurement daemon.
func NewLatencyD(pr Prober, st store.Store, period time.Duration) *LatencyD {
	d := &LatencyD{}
	d.pairSweep = newPairSweep("latencyd", KeyLatencyMatrix, pr, st, period, d.measurePair, (*tickEncoder).latency)
	d.series = make([]*stats.Series, len(d.recs))
	return d
}

func (d *LatencyD) measurePair(now time.Time, k metrics.PairKey, i int) (metrics.PairLatency, error) {
	lat, err := d.pr.MeasureLatency(k.U, k.V)
	if err != nil {
		return metrics.PairLatency{}, err
	}
	s := d.series[i]
	if s == nil {
		s = stats.NewSeries(1, windowSpans[:2]...)
		d.series[i] = s
	}
	_ = s.Add(now, int64(lat))
	return metrics.PairLatency{
		U:         k.U,
		V:         k.V,
		Timestamp: now,
		Last:      lat,
		Mean1:     time.Duration(s.Mean(0, 0)),
		Mean5:     time.Duration(s.Mean(1, 0)),
	}, nil
}

// ReadLatencyMatrix returns the published latency matrix keyed by pair.
func ReadLatencyMatrix(st store.Store) (map[metrics.PairKey]metrics.PairLatency, error) {
	m, _, err := readMatrix[metrics.PairLatency](st, KeyLatencyMatrix, 0)
	return m, err
}

// BandwidthD sweeps pairwise effective bandwidth at a regular interval
// (5 minutes in the paper) using the same round schedule, and publishes
// the instantaneous values in whole bps (§4: the allocator uses
// instantaneous bandwidth).
type BandwidthD struct {
	pairSweep[metrics.PairBandwidth]
}

// NewBandwidthD builds the bandwidth measurement daemon.
func NewBandwidthD(pr Prober, st store.Store, period time.Duration) *BandwidthD {
	return &BandwidthD{newPairSweep("bandwidthd", KeyBandwidthMatrix, pr, st, period,
		func(now time.Time, k metrics.PairKey, _ int) (metrics.PairBandwidth, error) {
			avail, peak, err := pr.MeasureBandwidth(k.U, k.V)
			return metrics.PairBandwidth{U: k.U, V: k.V, Timestamp: now,
				AvailBps: float64(stats.Round(avail, whole)), PeakBps: float64(stats.Round(peak, whole))}, err
		}, (*tickEncoder).bandwidth)}
}

// ReadBandwidthMatrix returns the published bandwidth matrix keyed by pair.
func ReadBandwidthMatrix(st store.Store) (map[metrics.PairKey]metrics.PairBandwidth, error) {
	m, _, err := readMatrix[metrics.PairBandwidth](st, KeyBandwidthMatrix, 0)
	return m, err
}
