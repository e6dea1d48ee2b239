package harness

import (
	"strings"
	"testing"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/apps"
	"nlarm/internal/broker"
	"nlarm/internal/cluster"
	"nlarm/internal/monitor"
	"nlarm/internal/mpisim"
)

// smallSession builds a fast 12-node session for integration tests.
func smallSession(t *testing.T, seed uint64) *Session {
	t.Helper()
	cl, err := cluster.BuildUniform(3, 4, 8, 3.0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(SessionConfig{
		Seed:    seed,
		Cluster: cl,
		Monitor: monitor.Config{
			NodeStatePeriod: 2 * time.Second,
			LatencyPeriod:   10 * time.Second,
			BandwidthPeriod: 20 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.WarmUp(time.Minute)
	return s
}

func TestSessionEndToEnd(t *testing.T) {
	s := smallSession(t, 1)
	resp, err := s.Broker.Allocate(brokerRequest(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Nodes) != 2 {
		t.Fatalf("nodes = %v", resp.Nodes)
	}
	shape, err := apps.MiniMD(apps.MiniMDParams{S: 8, Steps: 20}, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunJob(shape, resp.Allocation)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("result %+v", res)
	}
}

func TestRunJobSampledMeasuresLoad(t *testing.T) {
	s := smallSession(t, 2)
	resp, err := s.Broker.Allocate(brokerRequest(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	shape, _ := apps.MiniMD(apps.MiniMDParams{S: 16, Steps: 50}, 8)
	_, stats, err := s.RunJobSampled(shape, resp.Allocation)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples == 0 {
		t.Fatal("no load samples taken")
	}
	// 4 ranks on 8-core nodes contribute at least 0.5 load/core.
	if stats.MeanLoadPerCore < 0.4 {
		t.Fatalf("during-run load/core %g, job ranks invisible", stats.MeanLoadPerCore)
	}
}

func TestRunJobRejectsWrongRankCount(t *testing.T) {
	s := smallSession(t, 3)
	resp, err := s.Broker.Allocate(brokerRequest(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	shape, _ := apps.MiniMD(apps.MiniMDParams{S: 8, Steps: 10}, 16) // 16 ranks, 8 slots
	if _, err := s.RunJob(shape, resp.Allocation); err == nil {
		t.Fatal("rank/slot mismatch accepted")
	}
}

func TestCompareRunsProtocol(t *testing.T) {
	s := smallSession(t, 4)
	trials, err := s.Compare(CompareConfig{
		MakeShape: func() (*mpisim.Shape, error) {
			return apps.MiniMD(apps.MiniMDParams{S: 8, Steps: 20}, 8)
		},
		Request: alloc.Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7},
		Repeats: 2,
		Spacing: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 rounds x 4 policies.
	if len(trials) != 8 {
		t.Fatalf("%d trials", len(trials))
	}
	byPol := ByPolicy(trials)
	if len(byPol) != 4 {
		t.Fatalf("policies seen: %v", byPol)
	}
	for pol, times := range byPol {
		if len(times) != 2 {
			t.Fatalf("%s ran %d times", pol, len(times))
		}
		for _, sec := range times {
			if sec <= 0 {
				t.Fatalf("%s nonpositive time", pol)
			}
		}
	}
	means := MeanElapsed(trials)
	covs := CoVByPolicy(trials)
	loads := MeanGroupLoadPerCore(trials)
	if len(means) != 4 || len(covs) != 4 || len(loads) != 4 {
		t.Fatal("aggregation incomplete")
	}
}

func TestGainsVsBaselines(t *testing.T) {
	configMeans := []map[string]float64{
		{"random": 10, "sequential": 8, "load-aware": 6, NLAName: 5},
		{"random": 20, "sequential": 10, "load-aware": 10, NLAName: 10},
	}
	gains := GainsVsBaselines(configMeans)
	if len(gains["random"]) != 2 {
		t.Fatalf("gains = %v", gains)
	}
	if gains["random"][0] != 50 || gains["random"][1] != 50 {
		t.Fatalf("random gains = %v", gains["random"])
	}
	if gains["load-aware"][1] != 0 {
		t.Fatalf("load-aware gain = %v", gains["load-aware"])
	}
	// Configs without NLA are skipped.
	gains = GainsVsBaselines([]map[string]float64{{"random": 5}})
	if len(gains) != 0 {
		t.Fatalf("gains from NLA-free config: %v", gains)
	}
}

func TestGroupStateOf(t *testing.T) {
	s := smallSession(t, 5)
	snap, err := monitor.ReadSnapshot(s.Store, s.Now())
	if err != nil {
		t.Fatal(err)
	}
	gs := GroupStateOf(snap, []int{0, 1, 2})
	if gs.AvgCPULoad < 0 || gs.AvgLatencyUS <= 0 || gs.AvgComplBWMBps < 0 {
		t.Fatalf("group state %+v", gs)
	}
	if gs.AvgCPULoadPerCore <= 0 || gs.AvgCPULoadPerCore > 10 {
		t.Fatalf("load per core %g", gs.AvgCPULoadPerCore)
	}
	empty := GroupStateOf(snap, nil)
	if empty.AvgCPULoad != 0 {
		t.Fatalf("empty group state %+v", empty)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	out := tab.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "333") {
		t.Fatalf("table output:\n%s", out)
	}
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "a,bb\n") {
		t.Fatalf("csv output: %q", sb.String())
	}
}

func TestHeatmapRendering(t *testing.T) {
	out := Heatmap([]string{"r1", "r2"}, [][]float64{{0, 1}, {1, 0}}, false)
	if !strings.Contains(out, "r1") || !strings.Contains(out, "|") {
		t.Fatalf("heatmap:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("heatmap lines: %d", len(lines))
	}
	// Degenerate input must not panic.
	_ = Heatmap(nil, nil, true)
	_ = Heatmap([]string{"x"}, [][]float64{{5}}, true)
}

func TestSpark(t *testing.T) {
	out := Spark([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 4)
	if len([]rune(out)) != 4 {
		t.Fatalf("spark width: %q", out)
	}
	if Spark(nil, 10) != "" {
		t.Fatal("empty spark")
	}
}

func TestQuickScalingConfigShrinks(t *testing.T) {
	full := PaperMiniMDConfig(1)
	q := QuickScalingConfig(full)
	if q.Repeats != 2 || len(q.Procs) != 2 || len(q.Sizes) != 2 || q.Iterations == 0 {
		t.Fatalf("quick config %+v", q)
	}
}

func TestPaperConfigsMatchPaper(t *testing.T) {
	md := PaperMiniMDConfig(1)
	if md.PPN != 4 || md.Repeats != 5 || md.Alpha != 0.3 || md.Beta != 0.7 {
		t.Fatalf("miniMD config %+v", md)
	}
	if len(md.Procs) != 4 || md.Procs[3] != 64 {
		t.Fatalf("miniMD procs %v", md.Procs)
	}
	if len(md.Sizes) != 6 || md.Sizes[0] != 8 || md.Sizes[5] != 48 {
		t.Fatalf("miniMD sizes %v", md.Sizes)
	}
	fe := PaperMiniFEConfig(1)
	if fe.Alpha != 0.4 || fe.Beta != 0.6 {
		t.Fatalf("miniFE α/β %g/%g", fe.Alpha, fe.Beta)
	}
	if len(fe.Sizes) != 5 || fe.Sizes[4] != 384 {
		t.Fatalf("miniFE sizes %v", fe.Sizes)
	}
	if fe.Procs[len(fe.Procs)-1] != 48 {
		t.Fatalf("miniFE procs %v", fe.Procs)
	}
}

func brokerRequest(procs, ppn int) (r broker.Request) {
	r.Procs = procs
	r.PPN = ppn
	r.Alpha = 0.3
	r.Beta = 0.7
	return r
}
