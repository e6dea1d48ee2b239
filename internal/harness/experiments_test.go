package harness

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFigure1Generates(t *testing.T) {
	d, err := Figure1(7, 2, 20, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// 2 hours sampled every 5 minutes: 25 samples (inclusive start).
	if len(d.Hours) < 24 || len(d.Hours) > 26 {
		t.Fatalf("%d samples", len(d.Hours))
	}
	if len(d.LoadA) != len(d.Hours) || len(d.UtilAvg) != len(d.Hours) {
		t.Fatal("ragged series")
	}
	if d.NodeA == d.NodeB {
		t.Fatal("highlight nodes identical")
	}
	for i, u := range d.UtilAvg {
		if u < 0 || u > 100 {
			t.Fatalf("util sample %d = %g", i, u)
		}
	}
	out := d.Render()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "CPU load") {
		t.Fatalf("format:\n%s", out)
	}
	if got, want := len(d.Table().Rows), 8*len(d.Hours); got != want {
		t.Fatalf("csv rows %d, want %d", got, want)
	}
}

func TestFigure1Validation(t *testing.T) {
	if _, err := Figure1(1, 1, 1, time.Minute); err == nil {
		t.Fatal("single node accepted")
	}
	if _, err := Figure1(1, 1, 999, time.Minute); err == nil {
		t.Fatal("oversized node count accepted")
	}
}

func TestFigure2Generates(t *testing.T) {
	d, err := Figure2(7, 12, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 12 || len(d.AvailMBps) != 12 {
		t.Fatalf("heatmap %d", len(d.AvailMBps))
	}
	// Symmetry and topology structure: same-switch pairs see more
	// bandwidth than cross-chain pairs on average.
	if d.AvailMBps[0][1] != d.AvailMBps[1][0] {
		t.Fatal("heatmap asymmetric")
	}
	for k := range d.Pairs {
		if len(d.PairSeries[k]) != len(d.Hours) {
			t.Fatal("ragged pair series")
		}
	}
	out := d.Render()
	if !strings.Contains(out, "Figure 2(a)") {
		t.Fatalf("format:\n%s", out)
	}
	if got, want := len(d.Table().Rows), 3*len(d.Hours); got != want {
		t.Fatalf("csv rows %d, want %d", got, want)
	}
}

func TestFigure2HopStructure(t *testing.T) {
	d, err := Figure2(9, 30, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Average same-switch bandwidth must exceed average 2+-hop bandwidth
	// (the paper's "closer proximity -> higher bandwidth" structure).
	var nearSum, farSum float64
	var nearN, farN int
	for i := 0; i < d.N; i++ {
		for j := i + 1; j < d.N; j++ {
			if d.Hops[i][j] <= 1 {
				nearSum += d.AvailMBps[i][j]
				nearN++
			} else if d.Hops[i][j] >= 2 {
				farSum += d.AvailMBps[i][j]
				farN++
			}
		}
	}
	if nearN == 0 || farN == 0 {
		t.Fatal("hop classes empty")
	}
	if nearSum/float64(nearN) <= farSum/float64(farN) {
		t.Fatalf("no hop structure: near %g vs far %g", nearSum/float64(nearN), farSum/float64(farN))
	}
}

func TestRunScalingTiny(t *testing.T) {
	cfg := ScalingConfig{
		App: AppMiniMD, Seed: 3,
		Procs: []int{8}, Sizes: []int{8},
		PPN: 4, Repeats: 2, Alpha: 0.3, Beta: 0.7,
		Iterations: 20, Spacing: 20 * time.Second,
	}
	d, err := RunScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cells) != 1 {
		t.Fatalf("%d cells", len(d.Cells))
	}
	cell := d.Cells[0]
	if len(cell.Mean) != 4 || len(cell.Trials) != 8 {
		t.Fatalf("cell means=%d trials=%d", len(cell.Mean), len(cell.Trials))
	}
	gains := d.Gains()
	if len(gains.Rows) != 3 {
		t.Fatalf("gain rows %v", gains.Rows)
	}
	if out := d.Render(); !strings.Contains(out, "#procs = 8") {
		t.Fatalf("scaling format:\n%s", out)
	}
	if out := gains.Render(); !strings.Contains(out, "Average Gain") {
		t.Fatalf("gains format:\n%s", out)
	}
	if out := d.LoadPerCore().Render(); !strings.Contains(out, "load/core") {
		t.Fatalf("fig5 format:\n%s", out)
	}
	if out := d.OverallCoV().Render(); !strings.Contains(out, "CoV") {
		t.Fatalf("cov format:\n%s", out)
	}
}

func TestAllocationAnalysisSmoke(t *testing.T) {
	d, err := AllocationAnalysis(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Policies) != 4 || len(d.Selections) != 4 || len(d.TimesSec) != 4 {
		t.Fatalf("analysis %+v", d.Policies)
	}
	for pol, sec := range d.TimesSec {
		if sec <= 0 {
			t.Fatalf("%s time %g", pol, sec)
		}
	}
	out := d.Render()
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "Figure 7") {
		t.Fatalf("analysis format:\n%s", out)
	}
	// Headline invariant of §5.3: the NLA group has the lowest
	// complement-of-bandwidth (best connectivity) among the policies.
	nla := d.Groups["net-load-aware"]
	for pol, g := range d.Groups {
		if pol == "net-load-aware" {
			continue
		}
		if nla.AvgComplBWMBps > g.AvgComplBWMBps {
			t.Fatalf("NLA compl. bandwidth %.1f worse than %s's %.1f",
				nla.AvgComplBWMBps, pol, g.AvgComplBWMBps)
		}
	}
}

func TestPredictionStudyTiny(t *testing.T) {
	d, err := RunPredictionStudy(PredictionConfig{Seed: 4, Runs: 4, Iterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Points) != 4 {
		t.Fatalf("%d points", len(d.Points))
	}
	if d.Pearson < 0.5 {
		t.Fatalf("prediction correlation %g", d.Pearson)
	}
	if d.MedianRatio < 0.3 || d.MedianRatio > 3 {
		t.Fatalf("median ratio %g", d.MedianRatio)
	}
	if out := d.Render(); !strings.Contains(out, "Pearson") {
		t.Fatalf("prediction format:\n%s", out)
	}
}

func TestMultiClusterExperimentTiny(t *testing.T) {
	d, err := RunMultiCluster(MultiClusterConfig{Seed: 6, Repeats: 1, Iterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.MeanSec) != 4 {
		t.Fatalf("policies %v", d.MeanSec)
	}
	// The network-aware policy must not cross the WAN.
	if d.CrossCluster["net-load-aware"] != 0 {
		t.Fatalf("net-load-aware crossed clusters: %v", d.CrossCluster)
	}
	if out := d.Render(); !strings.Contains(out, "cross-cluster") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestAblationTiny(t *testing.T) {
	d, err := RunAblation(AblationConfig{Seed: 8, Repeats: 1, Iterations: 20,
		Betas: []float64{0, 0.7}, BandwidthPeriods: []time.Duration{time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.BetaSweep) != 2 || len(d.Staleness) != 1 {
		t.Fatalf("ablation %+v", d)
	}
	// β=0 (pure load-aware limit) must not beat the paper's β=0.7 in this
	// network-dominated configuration.
	if d.BetaSweep[0].MeanSec < d.BetaSweep[1].MeanSec {
		t.Fatalf("β=0 (%.2fs) beat β=0.7 (%.2fs)", d.BetaSweep[0].MeanSec, d.BetaSweep[1].MeanSec)
	}
	if out := d.Render(); !strings.Contains(out, "β sweep") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestCoScheduleTiny(t *testing.T) {
	d, err := RunCoSchedule(CoScheduleConfig{Seed: 9, Jobs: 3, Repeats: 1, Iterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.MeanJobSec) != 5 || len(d.MakespanSec) != 5 {
		t.Fatalf("policies %v", d.MeanJobSec)
	}
	if _, ok := d.MeanJobSec["net-load-aware+reserve"]; !ok {
		t.Fatalf("reservation variant missing: %v", d.MeanJobSec)
	}
	for pol, sec := range d.MeanJobSec {
		if sec <= 0 || d.MakespanSec[pol] <= 0 {
			t.Fatalf("%s times %g/%g", pol, sec, d.MakespanSec[pol])
		}
	}
	if out := d.Render(); !strings.Contains(out, "makespan") {
		t.Fatalf("format:\n%s", out)
	}
}

// TestScalingTableDeterministic pins the CSV form of Figures 4 and 6:
// repeated calls are equal and each cell's rows follow the paper's policy
// order, any other policy after them by name (the cells hold maps).
func TestScalingTableDeterministic(t *testing.T) {
	means := map[string]float64{"net-load-aware": 1, "load-aware": 2, "sequential": 3, "random": 4, "extra": 5}
	d := &ScalingData{App: AppMiniMD, Cells: []ScalingCell{
		{Procs: 8, Size: 8, Mean: means, CoV: means},
		{Procs: 16, Size: 8, Mean: means, CoV: means},
	}}
	first := d.Table()
	for i := 0; i < 20; i++ {
		if again := d.Table(); !reflect.DeepEqual(again, first) {
			t.Fatalf("call %d differs:\n%v\n%v", i+2, again.Rows, first.Rows)
		}
	}
	want := []string{"random", "sequential", "load-aware", "net-load-aware", "extra"}
	if len(first.Rows) != 2*len(want) {
		t.Fatalf("%d rows, want %d", len(first.Rows), 2*len(want))
	}
	for i, row := range first.Rows {
		if row[2] != want[i%len(want)] {
			t.Fatalf("row %d is %q, want %q (rows %v)", i, row[2], want[i%len(want)], first.Rows)
		}
	}
}
