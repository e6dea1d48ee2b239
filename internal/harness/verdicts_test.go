package harness

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"nlarm/internal/stats"
)

// The paper's verdicts, one assertion per ✓ in EXPERIMENTS.md, over the
// results the experiment listing computes. A verdict is a shape claim —
// who wins, by roughly what factor — never a printed digit, so a change
// that moves the listing's last digits passes here and fails only the
// paper-fidelity byte diff ("digits moved"). Tier-1 runs the -quick
// listing at seed 42 (TestVerdictsQuick); CI runs the full-size listing
// at seeds 42 and 1729 (TestVerdictsFull, behind the verdicts build tag).
//
// Not asserted: Figure 4's growth with process count and communication
// share at 64 processes (internal/apps pins miniMD's communication
// fraction), and the algorithm overhead (a wall-clock figure).

// bars are the thresholds that depend on the listing's size. The -quick
// listing runs 4 of Figure 4's 24 cells at 30 steps with 2 repeats, and
// 4 of the 8 short jobs behind the backfill head.
type bars struct {
	// Figure 4: the least number of cells random is worst in and
	// net-load-aware best in.
	randomWorst, nlaBest, cells int
	// Figure 2(b): each tracked pair's highest reading over its lowest
	// (48 h full, 4 h quick).
	pairSwing float64
	// Backfill: its mean wait is at most this fraction of FIFO's.
	backfillWait float64
}

var (
	fullBars  = bars{randomWorst: 18, nlaBest: 19, cells: 24, pairSwing: 2, backfillWait: 1.0 / 5}
	quickBars = bars{randomWorst: 1, nlaBest: 3, cells: 4, pairSwing: 1.25, backfillWait: 1.0 / 4}
)

// gainFloors are Tables 2 and 3's floors on the average gain of
// net-load-aware over each baseline, percent: about ten points under the
// lowest reading at seeds 42 and 1729, full and quick.
var gainFloors = map[AppKind]map[string]float64{
	AppMiniMD: {"random": 35, "sequential": 10, "load-aware": 15},
	AppMiniFE: {"random": 40, "sequential": 12, "load-aware": 25},
}

// verdictArtifacts are the listing's artifacts the verdicts read.
var verdictArtifacts = []string{"fig1", "fig2", "fig4", "table2", "fig5", "cov", "fig6", "table3",
	"table4", "backfill", "cosched", "predict", "multicluster"}

// listing maps an artifact's first -run name to its result.
type listing map[string]Result

// runListing computes the verdicts' artifacts the way nlarm-experiments
// does, sharing the scaling runs.
func runListing(t *testing.T, seed uint64, quick bool) listing {
	t.Helper()
	o := DefaultOptions(seed)
	o.Quick = quick
	runs := NewRuns(o)
	got := listing{}
	for _, a := range Artifacts {
		if !slices.Contains(verdictArtifacts, a.Names[0]) {
			continue
		}
		res, err := a.Run(runs)
		if err != nil {
			t.Fatalf("%s: %v", a.Names[0], err)
		}
		got[a.Names[0]] = res
	}
	return got
}

const (
	random, sequential, loadAware, nla = "random", "sequential", "load-aware", "net-load-aware"
	reserve                            = nla + "+reserve"
)

// verdict is one claim; check returns why it does not hold, or nil.
type verdict struct {
	name  string
	check func(l listing, b bars) error
}

// finding is a verdict that does not hold at one seed and size.
type finding struct {
	verdict string
	seed    uint64
	quick   bool
}

// knownFindings are the verdicts that do not hold at a seed and size,
// each with what the listing reads there. EXPERIMENTS.md's ✓ was
// written from seed 42's full listing; a claim that misses elsewhere is
// a finding to report, not a threshold to widen. A listed verdict that
// holds again fails the run, so the list cannot go stale.
var knownFindings = map[finding]string{
	{"fig4/random-worst", 1729, false}:       "random worst in 17/24 cells",
	{"fig5/random>=sequential", 1729, false}: "load/core random 0.554 < sequential 0.557",
	{"cov/nla<load-aware", 1729, false}:      "miniMD CoV net-load-aware 0.183 > load-aware 0.161",
	{"multicluster/local", 1729, false}:      "sequential crosses clusters in 1/3 runs",
	{"fig5/random>=sequential", 42, true}:    "load/core random 0.484 < sequential 0.518",
	{"cov/minife-nla-lowest", 42, true}:      "miniFE CoV net-load-aware 0.125 > load-aware 0.119",
	{"cosched/reserve-makespan", 42, true}:   "one batch: +reserve's makespan just over net-load-aware's 15.77 s",
}

// less fails unless m[a] < m[b] (or <= when orEqual).
func less(what string, m map[string]float64, a, b string, orEqual bool) error {
	if m[a] < m[b] || orEqual && m[a] == m[b] {
		return nil
	}
	op := "<"
	if orEqual {
		op = "<="
	}
	return fmt.Errorf("%s: want %s %.4g %s %s %.4g", what, a, m[a], op, b, m[b])
}

// countCells counts the cells where pol is worst (the highest mean) or
// best (the lowest), ties included.
func countCells(d *ScalingData, pol string, worst bool) int {
	n := 0
	for _, c := range d.Cells {
		ok := true
		for _, v := range c.Mean {
			if worst && v > c.Mean[pol] || !worst && v < c.Mean[pol] {
				ok = false
			}
		}
		if ok {
			n++
		}
	}
	return n
}

// gainOrdering checks a Table 2/3 row set: net-load-aware gains over
// every baseline, most over random, each average above its floor.
func gainOrdering(app AppKind) func(l listing, b bars) error {
	name := map[AppKind]string{AppMiniMD: "table2", AppMiniFE: "table3"}[app]
	return func(l listing, _ bars) error {
		g := l[name].(GainTable)
		for _, pol := range []string{random, sequential, loadAware} {
			if avg, floor := g.Rows[pol].Mean, gainFloors[app][pol]; avg < floor {
				return fmt.Errorf("%s average gain over %s %.1f%% < floor %.0f%%", app, pol, avg, floor)
			}
			if pol != random && g.Rows[pol].Mean > g.Rows[random].Mean {
				return fmt.Errorf("%s gain over %s %.1f%% exceeds the gain over random %.1f%%",
					app, pol, g.Rows[pol].Mean, g.Rows[random].Mean)
			}
		}
		return nil
	}
}

// within fails unless lo <= v <= hi.
func within(what string, v, lo, hi float64) error {
	if lo <= v && v <= hi {
		return nil
	}
	return fmt.Errorf("%s %.3g outside [%g, %g]", what, v, lo, hi)
}

var verdicts = []verdict{
	// Figure 1: cluster-average CPU utilisation in the paper's 20-35 %
	// band, memory near its ~25 %, load low with spikes, network I/O with
	// per-node spikes.
	{"fig1/util-band", func(l listing, _ bars) error {
		return within("mean cluster CPU utilisation %", stats.Mean(l["fig1"].(*Fig1Data).UtilAvg), 20, 35)
	}},
	{"fig1/memory", func(l listing, _ bars) error {
		return within("mean memory used %", stats.Mean(l["fig1"].(*Fig1Data).MemAvg), 20, 35)
	}},
	{"fig1/load-spiky-low", func(l listing, _ bars) error {
		d := l["fig1"].(*Fig1Data)
		if m := stats.Mean(d.LoadAvg); m >= 2 {
			return fmt.Errorf("mean cluster load %.2f, want < 2", m)
		}
		for _, s := range [][]float64{d.LoadA, d.LoadB} {
			if sum := stats.Summarize(s); sum.Max < 3*sum.Mean {
				return fmt.Errorf("node load mean %.2f max %.2f: want max >= 3x mean", sum.Mean, sum.Max)
			}
		}
		return nil
	}},
	{"fig1/net-spikes", func(l listing, _ bars) error {
		d := l["fig1"].(*Fig1Data)
		for _, s := range [][]float64{d.NetA, d.NetB} {
			if sum := stats.Summarize(s); sum.Max < 5*sum.Mean {
				return fmt.Errorf("node network I/O mean %.2f max %.2f MB/s: want max >= 5x mean", sum.Mean, sum.Max)
			}
		}
		return nil
	}},
	// Figure 2: (a) closer pairs see more bandwidth; (b) each tracked
	// pair fluctuates strongly around its topology base.
	{"fig2/hop-structure", func(l listing, _ bars) error {
		d := l["fig2"].(*Fig2Data)
		var near, far []float64
		for i := 0; i < d.N; i++ {
			for j := i + 1; j < d.N; j++ {
				if d.Hops[i][j] <= 1 {
					near = append(near, d.AvailMBps[i][j])
				} else {
					far = append(far, d.AvailMBps[i][j])
				}
			}
		}
		if n, f := stats.Mean(near), stats.Mean(far); n <= f {
			return fmt.Errorf("same-switch bandwidth %.1f <= cross-switch %.1f MB/s", n, f)
		}
		return nil
	}},
	{"fig2/fluctuation", func(l listing, b bars) error {
		d := l["fig2"].(*Fig2Data)
		for k, s := range d.PairSeries {
			if sum := stats.Summarize(s); sum.Max < b.pairSwing*sum.Min {
				return fmt.Errorf("pair %v: min %.1f max %.1f MB/s, want max >= %gx min", d.Pairs[k], sum.Min, sum.Max, b.pairSwing)
			}
		}
		return nil
	}},
	// Figure 4: random is worst on almost all configurations, and
	// net-load-aware best overall.
	{"fig4/random-worst", func(l listing, b bars) error {
		if n := countCells(l["fig4"].(*ScalingData), random, true); n < b.randomWorst {
			return fmt.Errorf("random worst in %d/%d cells, want >= %d", n, b.cells, b.randomWorst)
		}
		return nil
	}},
	{"fig4/nla-best", func(l listing, b bars) error {
		if n := countCells(l["fig4"].(*ScalingData), nla, false); n < b.nlaBest {
			return fmt.Errorf("net-load-aware best in %d/%d cells, want >= %d", n, b.cells, b.nlaBest)
		}
		return nil
	}},
	// Tables 2 and 3: the gain ordering, with floors on the averages.
	{"table2/gains", gainOrdering(AppMiniMD)},
	{"table3/gains", gainOrdering(AppMiniFE)},
	// Figure 5: random >= sequential > net-load-aware > load-aware.
	{"fig5/random>=sequential", func(l listing, _ bars) error {
		return less("load/core", l["fig5"].(PolicyLoads), sequential, random, true)
	}},
	{"fig5/sequential>nla", func(l listing, _ bars) error {
		return less("load/core", l["fig5"].(PolicyLoads), nla, sequential, false)
	}},
	{"fig5/nla>load-aware", func(l listing, _ bars) error {
		return less("load/core", l["fig5"].(PolicyLoads), loadAware, nla, false)
	}},
	// Run-time stability (§5.1): net-load-aware < load-aware < sequential;
	// and for miniFE (§5.2) net-load-aware lowest.
	{"cov/nla<load-aware", func(l listing, _ bars) error {
		return less("miniMD CoV", l["cov"].(PolicyCoVs), nla, loadAware, false)
	}},
	{"cov/load-aware<sequential", func(l listing, _ bars) error {
		return less("miniMD CoV", l["cov"].(PolicyCoVs), loadAware, sequential, false)
	}},
	{"cov/minife-nla-lowest", func(l listing, _ bars) error {
		c := l["fig6"].(*ScalingData).OverallCoV()
		for _, pol := range []string{random, sequential, loadAware} {
			if err := less("miniFE CoV", c, nla, pol, false); err != nil {
				return err
			}
		}
		return nil
	}},
	// Figure 6: time grows with nx, for every policy and process count.
	{"fig6/grows-with-nx", func(l listing, _ bars) error {
		d := l["fig6"].(*ScalingData)
		first := map[int]ScalingCell{}
		for _, c := range d.Cells {
			if f, ok := first[c.Procs]; !ok {
				first[c.Procs] = c
			} else if c.Size == d.Cfg.Sizes[len(d.Cfg.Sizes)-1] {
				for pol, v := range c.Mean {
					if v <= f.Mean[pol] {
						return fmt.Errorf("%d procs %s: nx %d %.2f s <= nx %d %.2f s", c.Procs, pol, c.Size, v, f.Size, f.Mean[pol])
					}
				}
			}
		}
		return nil
	}},
	// Table 4: net-load-aware's group has the lowest complement of
	// bandwidth and latency, load-aware's the lowest CPU load, and
	// net-load-aware still finishes before load-aware.
	{"table4/nla-network", func(l listing, _ bars) error {
		d := l["table4"].(*AnalysisData)
		for _, pol := range []string{random, sequential, loadAware} {
			g, n := d.Groups[pol], d.Groups[nla]
			if n.AvgComplBWMBps >= g.AvgComplBWMBps || n.AvgLatencyUS >= g.AvgLatencyUS {
				return fmt.Errorf("net-load-aware compl. bandwidth %.2f MB/s, latency %.1f µs; %s %.2f, %.1f",
					n.AvgComplBWMBps, n.AvgLatencyUS, pol, g.AvgComplBWMBps, g.AvgLatencyUS)
			}
		}
		return nil
	}},
	{"table4/load-aware-cpu", func(l listing, _ bars) error {
		d := l["table4"].(*AnalysisData)
		for _, pol := range []string{random, sequential, nla} {
			if d.Groups[loadAware].AvgCPULoad >= d.Groups[pol].AvgCPULoad {
				return fmt.Errorf("load-aware CPU load %.3f >= %s %.3f", d.Groups[loadAware].AvgCPULoad, pol, d.Groups[pol].AvgCPULoad)
			}
		}
		return nil
	}},
	{"table4/nla-faster", func(l listing, _ bars) error {
		return less("exec time s", l["table4"].(*AnalysisData).TimesSec, nla, loadAware, false)
	}},
	// Figure 7: the net-load-aware selection sits on one switch.
	{"fig7/nla-one-switch", func(l listing, _ bars) error {
		d := l["table4"].(*AnalysisData)
		sw := map[int]bool{}
		for _, n := range d.Selections[nla] {
			sw[d.Cluster.Topo.SwitchOf(n)] = true
		}
		if len(sw) != 1 {
			return fmt.Errorf("net-load-aware selection spans %d switches", len(sw))
		}
		return nil
	}},
	// Backfill: a fraction of FIFO's mean wait, nothing starved.
	{"backfill", func(l listing, b bars) error {
		r := l["backfill"].(*BackfillResult)
		fifo, bf := r.Modes[0], r.Modes[1]
		if fifo.Failed+bf.Failed != 0 || bf.Backfilled == 0 {
			return fmt.Errorf("failed fifo %d backfill %d, backfilled %d", fifo.Failed, bf.Failed, bf.Backfilled)
		}
		if bf.MeanWaitSec > b.backfillWait*fifo.MeanWaitSec {
			return fmt.Errorf("backfill mean wait %.1f s > %.2f x fifo %.1f s", bf.MeanWaitSec, b.backfillWait, fifo.MeanWaitSec)
		}
		return nil
	}},
	// Multi-cluster: the exact heuristic and sequential stay inside one
	// cluster.
	{"multicluster/local", func(l listing, _ bars) error {
		r := l["multicluster"].(*MultiClusterResult)
		for _, pol := range []string{nla, sequential} {
			if n := r.CrossCluster[pol]; n != 0 {
				return fmt.Errorf("%s crosses clusters in %d/%d runs", pol, n, r.Cfg.Repeats)
			}
		}
		return nil
	}},
	// Co-scheduling: +reserve removes every collision and improves on
	// net-load-aware's job time and makespan.
	{"cosched/reserve", func(l listing, _ bars) error {
		r := l["cosched"].(*CoScheduleResult)
		if n := r.Overlaps[reserve]; n != 0 {
			return fmt.Errorf("%s: %d collisions", reserve, n)
		}
		return less("mean job time s", r.MeanJobSec, reserve, nla, false)
	}},
	{"cosched/reserve-makespan", func(l listing, _ bars) error {
		return less("batch makespan s", l["cosched"].(*CoScheduleResult).MakespanSec, reserve, nla, false)
	}},
	// Prediction: the launch-time snapshot ranks allocations.
	{"predict", func(l listing, _ bars) error {
		r := l["predict"].(*PredictionResult)
		if r.Pearson < 0.9 || math.Abs(r.MedianRatio-1) > 0.1 {
			return fmt.Errorf("Pearson r %.3f (want >= 0.9), median actual/predicted %.2f (want within 10%%)", r.Pearson, r.MedianRatio)
		}
		return nil
	}},
}

// checkVerdicts runs the listing at seed and asserts every verdict, one
// subtest each.
func checkVerdicts(t *testing.T, seed uint64, quick bool) {
	start := time.Now()
	l := runListing(t, seed, quick)
	t.Logf("seed %d quick %v: listing in %v", seed, quick, time.Since(start).Round(time.Millisecond))
	b := fullBars
	if quick {
		b = quickBars
	}
	for _, v := range verdicts {
		t.Run(v.name, func(t *testing.T) {
			err := v.check(l, b)
			known, isKnown := knownFindings[finding{v.name, seed, quick}]
			switch {
			case err != nil && isKnown:
				t.Logf("known finding: %v (listed: %s)", err, known)
			case err != nil:
				t.Error(err)
			case isKnown:
				t.Errorf("holds now; drop its known finding (%s)", known)
			}
		})
	}
}

func TestVerdictsQuick(t *testing.T) { checkVerdicts(t, 42, true) }

// Every known finding names a verdict.
func TestKnownFindingsNameVerdicts(t *testing.T) {
	for f := range knownFindings {
		if !slices.ContainsFunc(verdicts, func(v verdict) bool { return v.name == f.verdict }) {
			t.Errorf("known finding for unknown verdict %q", f.verdict)
		}
	}
}
