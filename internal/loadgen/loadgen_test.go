package loadgen

import (
	"testing"
	"time"

	"nlarm/internal/cluster"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.BuildIITK()
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func stepFor(g *Generator, start time.Time, dur, step time.Duration) time.Time {
	now := start
	for t := start.Add(step); !t.After(start.Add(dur)); t = t.Add(step) {
		g.Step(t, step)
		now = t
	}
	return now
}

func TestDeterminism(t *testing.T) {
	cl := testCluster(t)
	g1 := New(cl, Config{}, 42)
	g2 := New(cl, Config{}, 42)
	g1.Start(t0)
	g2.Start(t0)
	stepFor(g1, t0, time.Hour, 5*time.Second)
	stepFor(g2, t0, time.Hour, 5*time.Second)
	for id := 0; id < cl.Size(); id++ {
		a, b := g1.NodeLoad(id), g2.NodeLoad(id)
		if a != b {
			t.Fatalf("node %d diverged: %+v vs %+v", id, a, b)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cl := testCluster(t)
	g1 := New(cl, Config{}, 1)
	g2 := New(cl, Config{}, 2)
	g1.Start(t0)
	g2.Start(t0)
	stepFor(g1, t0, time.Hour, 5*time.Second)
	stepFor(g2, t0, time.Hour, 5*time.Second)
	same := 0
	for id := 0; id < cl.Size(); id++ {
		if g1.NodeLoad(id) == g2.NodeLoad(id) {
			same++
		}
	}
	if same == cl.Size() {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestRangesStayPhysical(t *testing.T) {
	cl := testCluster(t)
	g := New(cl, Config{}, 7)
	g.Start(t0)
	now := t0
	for i := 0; i < 720; i++ { // one hour at 5s
		now = now.Add(5 * time.Second)
		g.Step(now, 5*time.Second)
		for id := 0; id < cl.Size(); id++ {
			nl := g.NodeLoad(id)
			if nl.CPULoad < 0 {
				t.Fatalf("negative CPU load %g", nl.CPULoad)
			}
			if nl.CPUUtilPct < 0 || nl.CPUUtilPct > 100 {
				t.Fatalf("CPU util out of range: %g", nl.CPUUtilPct)
			}
			if nl.UsedMemMB < 0 || nl.UsedMemMB > cl.Node(id).TotalMemMB {
				t.Fatalf("memory out of range: %g", nl.UsedMemMB)
			}
			if nl.Users < 0 {
				t.Fatalf("negative users %d", nl.Users)
			}
		}
	}
}

// TestFigure1Calibration checks the generator reproduces the paper's
// Figure 1 regime: cluster-average CPU utilization in the low tens of
// percent, memory around a quarter used, low average CPU load.
func TestFigure1Calibration(t *testing.T) {
	cl := testCluster(t)
	g := New(cl, Config{}, 11)
	g.Start(t0)
	now := t0
	var utilSum, loadSum, memSum float64
	samples := 0
	for i := 0; i < 12*360; i++ { // 12 hours at 10s steps
		now = now.Add(10 * time.Second)
		g.Step(now, 10*time.Second)
		if i%30 != 0 {
			continue
		}
		for id := 0; id < cl.Size(); id++ {
			nl := g.NodeLoad(id)
			utilSum += nl.CPUUtilPct
			loadSum += nl.CPULoad
			memSum += nl.UsedMemMB / cl.Node(id).TotalMemMB * 100
			samples++
		}
	}
	avgUtil := utilSum / float64(samples)
	avgLoad := loadSum / float64(samples)
	avgMem := memSum / float64(samples)
	if avgUtil < 10 || avgUtil > 45 {
		t.Fatalf("average CPU utilization %g%%, paper shows 20-35%%", avgUtil)
	}
	if avgLoad < 0.2 || avgLoad > 3 {
		t.Fatalf("average CPU load %g, paper shows mostly low values", avgLoad)
	}
	if avgMem < 15 || avgMem > 45 {
		t.Fatalf("average memory usage %g%%, paper shows ~25%%", avgMem)
	}
}

func TestSessionsExpire(t *testing.T) {
	cl := testCluster(t)
	cfg := Config{SessionRatePerHour: 60, MeanSessionMinutes: 1}
	g := New(cl, cfg, 13)
	g.Start(t0)
	now := stepFor(g, t0, 30*time.Minute, 5*time.Second)
	if len(g.sessions) == 0 {
		t.Fatal("no sessions spawned at 60/hour")
	}
	// Stop arrivals by stepping a generator window with no new spawns:
	// advance far with huge steps — arrivals continue, so instead verify
	// the population stays bounded near its steady state (rate × duration).
	steady := len(g.sessions)
	now = stepFor(g, now, 30*time.Minute, 5*time.Second)
	if len(g.sessions) > steady*3+60 {
		t.Fatalf("sessions grew without bound: %d -> %d", steady, len(g.sessions))
	}
}

func TestFlowsValid(t *testing.T) {
	cl := testCluster(t)
	g := New(cl, Config{SessionRatePerHour: 30}, 17)
	g.Start(t0)
	stepFor(g, t0, 2*time.Hour, 5*time.Second)
	flows := g.Flows()
	if len(flows) == 0 {
		t.Fatal("no background flows after 2 hours at 30 sessions/hour")
	}
	for _, f := range flows {
		if f.Src < 0 || f.Src >= cl.Size() {
			t.Fatalf("flow src %d out of range", f.Src)
		}
		if f.Dst != External && (f.Dst < 0 || f.Dst >= cl.Size()) {
			t.Fatalf("flow dst %d invalid", f.Dst)
		}
		if f.Dst == f.Src {
			t.Fatal("self flow")
		}
		if f.RateBps <= 0 || f.RateBps > 120e6 {
			t.Fatalf("flow rate %g out of range", f.RateBps)
		}
	}
}

func TestHeavyBlocksCreatePersistentSkew(t *testing.T) {
	cl := testCluster(t)
	g := New(cl, Config{}, 21)
	g.Start(t0)
	stepFor(g, t0, 4*time.Hour, 10*time.Second)
	// Averages over heavy vs light nodes should differ persistently. We
	// can't read heaviness directly, but the max/min node averages must
	// spread (heterogeneous usage, Figure 1's node-to-node differences).
	minLoad, maxLoad := 1e9, 0.0
	for id := 0; id < cl.Size(); id++ {
		l := g.NodeLoad(id).CPULoad
		if l < minLoad {
			minLoad = l
		}
		if l > maxLoad {
			maxLoad = l
		}
	}
	if maxLoad < minLoad*1.5 && maxLoad-minLoad < 0.5 {
		t.Fatalf("no node-to-node skew: min %g max %g", minLoad, maxLoad)
	}
}

func TestNodeLoadPanicsOutOfRange(t *testing.T) {
	cl := testCluster(t)
	g := New(cl, Config{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range node")
		}
	}()
	g.NodeLoad(cl.Size())
}

func TestZeroDtStepIsNoop(t *testing.T) {
	cl := testCluster(t)
	g := New(cl, Config{}, 3)
	g.Start(t0)
	before := g.NodeLoad(0)
	g.Step(t0, 0)
	if g.NodeLoad(0) != before {
		t.Fatal("zero-dt step changed state")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	def := DefaultConfig()
	if cfg != def {
		t.Fatalf("withDefaults() = %+v, want %+v", cfg, def)
	}
	// Partial override survives.
	cfg = Config{BaseCPULoad: 9}.withDefaults()
	if cfg.BaseCPULoad != 9 || cfg.SessionRatePerHour != def.SessionRatePerHour {
		t.Fatalf("partial override broken: %+v", cfg)
	}
}

func TestDiurnalCycle(t *testing.T) {
	cl := testCluster(t)
	cfg := Config{SessionRatePerHour: 6, DiurnalAmplitude: 0.8}.withDefaults()
	// Factor peaks at 15:00 and bottoms at 03:00.
	peak := cfg.diurnalFactor(time.Date(2020, 1, 1, 15, 0, 0, 0, time.UTC))
	trough := cfg.diurnalFactor(time.Date(2020, 1, 1, 3, 0, 0, 0, time.UTC))
	if peak < 1.7 || trough > 0.3 {
		t.Fatalf("diurnal factor peak %g trough %g", peak, trough)
	}
	// Disabled cycle is flat.
	flat := Config{DiurnalAmplitude: -1}.withDefaults()
	if f := flat.diurnalFactor(time.Date(2020, 1, 1, 15, 0, 0, 0, time.UTC)); f != 1 {
		t.Fatalf("disabled diurnal factor %g", f)
	}
	// Afternoon should spawn measurably more sessions than night over the
	// same duration.
	countSessions := func(startHour int) int {
		g := New(cl, Config{SessionRatePerHour: 8, DiurnalAmplitude: 0.8}, 77)
		start := time.Date(2020, 1, 1, startHour, 0, 0, 0, time.UTC)
		g.Start(start)
		total := 0
		now := start
		for i := 0; i < 360; i++ { // one hour at 10s steps
			now = now.Add(10 * time.Second)
			g.Step(now, 10*time.Second)
		}
		total = len(g.sessions)
		return total
	}
	day := countSessions(14)
	night := countSessions(2)
	if day <= night {
		t.Fatalf("afternoon sessions (%d) not above night (%d)", day, night)
	}
}
