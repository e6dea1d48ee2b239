package monitor

import (
	"math"
	"testing"
	"time"

	"nlarm/internal/cluster"
	"nlarm/internal/metrics"
	"nlarm/internal/simtime"
	"nlarm/internal/stats"
	"nlarm/internal/store"
	"nlarm/internal/world"
)

var t0 = time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)

// rig is a small world + store + scheduler for monitor tests.
type rig struct {
	sched *simtime.Scheduler
	w     *world.World
	st    *store.MemStore
	pr    *WorldProber
}

func newRig(t testing.TB, seed uint64) *rig {
	t.Helper()
	cl, err := cluster.BuildUniform(2, 4, 8, 3.0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	sched := simtime.NewScheduler(t0)
	w := world.New(cl, world.Config{Seed: seed, StepSize: time.Second}, t0)
	w.Attach(sched)
	return &rig{sched: sched, w: w, st: store.NewMem(), pr: &WorldProber{W: w}}
}

func fastConfig() Config {
	return Config{
		NodeStatePeriod:   2 * time.Second,
		LivehostsPeriod:   2 * time.Second,
		LatencyPeriod:     5 * time.Second,
		BandwidthPeriod:   10 * time.Second,
		SupervisePeriod:   4 * time.Second,
		HeartbeatTimeout:  10 * time.Second,
		LivehostsReplicas: 2,
	}
}

// --- Rounds ------------------------------------------------------------------

func TestRoundsDisjointPairs(t *testing.T) {
	nodes := []int{0, 1, 2, 3, 4, 5}
	rounds := Rounds(nodes)
	if len(rounds) != 5 {
		t.Fatalf("%d rounds for 6 nodes, want 5", len(rounds))
	}
	for ri, round := range rounds {
		if len(round) != 3 {
			t.Fatalf("round %d has %d pairs, want n/2=3", ri, len(round))
		}
		seen := map[int]bool{}
		for _, p := range round {
			if seen[p[0]] || seen[p[1]] {
				t.Fatalf("round %d reuses a node: %v", ri, round)
			}
			seen[p[0]] = true
			seen[p[1]] = true
		}
	}
}

func TestRoundsCoverAllPairs(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 13} {
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = i * 10
		}
		seen := map[[2]int]int{}
		for _, round := range Rounds(nodes) {
			for _, p := range round {
				seen[p]++
			}
		}
		want := n * (n - 1) / 2
		if len(seen) != want {
			t.Fatalf("n=%d: %d distinct pairs, want %d", n, len(seen), want)
		}
		for p, count := range seen {
			if count != 1 {
				t.Fatalf("n=%d: pair %v measured %d times", n, p, count)
			}
		}
	}
}

func TestRoundsOddNodeCount(t *testing.T) {
	rounds := Rounds([]int{1, 2, 3})
	// 3 nodes -> 3 rounds of 1 pair each (one node byes per round).
	total := 0
	for _, r := range rounds {
		total += len(r)
	}
	if total != 3 {
		t.Fatalf("odd count covered %d pairs, want 3", total)
	}
}

func TestRoundsDegenerate(t *testing.T) {
	if Rounds(nil) != nil || Rounds([]int{7}) != nil {
		t.Fatal("degenerate inputs should give no rounds")
	}
}

// --- Individual daemons -------------------------------------------------------

func TestLivehostsD(t *testing.T) {
	r := newRig(t, 1)
	d := NewLivehostsD(0, r.pr, r.st, 2*time.Second)
	if err := d.Start(r.sched); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(3 * time.Second)
	hosts, at, err := ReadLivehosts(r.st)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 8 {
		t.Fatalf("livehosts = %v", hosts)
	}
	if at.IsZero() {
		t.Fatal("no timestamp")
	}
	// Down node disappears on next sweep.
	r.w.SetNodeDown(3, true)
	r.sched.RunFor(3 * time.Second)
	hosts, _, _ = ReadLivehosts(r.st)
	for _, h := range hosts {
		if h == 3 {
			t.Fatal("down node still in livehosts")
		}
	}
}

func TestNodeStateDPublishesRunningMeans(t *testing.T) {
	r := newRig(t, 2)
	d := NewNodeStateD(1, r.pr, r.st, 2*time.Second)
	if err := d.Start(r.sched); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(3 * time.Minute)
	attrs, err := ReadNodeState(r.st, 1)
	if err != nil {
		t.Fatal(err)
	}
	if attrs.NodeID != 1 || attrs.Cores != 8 || attrs.FreqGHz != 3.0 {
		t.Fatalf("static attrs %+v", attrs)
	}
	if attrs.Hostname == "" {
		t.Fatal("no hostname")
	}
	if attrs.CPULoad.M1 < 0 || attrs.AvailMemMB.M15 <= 0 {
		t.Fatalf("dynamic attrs %+v", attrs)
	}
	if attrs.Timestamp.IsZero() {
		t.Fatal("no timestamp")
	}
}

// onCanonIntegerPath reports whether canon.Encoder.Float writes f from
// an integer: an integral |f| < 2^53, or a whole number n of nanoseconds
// with 1e3 <= |n| < 1e15 and n/1e9 rounding to f.
func onCanonIntegerPath(f float64) bool {
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return true
	}
	n := math.Round(f * 1e9)
	return 1e3 <= math.Abs(n) && math.Abs(n) < 1e15 && n/1e9 == f
}

// Every mean NodeStateD publishes, and every bandwidth BandwidthD
// publishes, sits on its resolution's grid (thousandths, or whole bps)
// and takes canon's integer path, minute after minute as the windows
// fill and slide.
func TestPublishedMeansOnUnitGrid(t *testing.T) {
	r := newRig(t, 5)
	var daemons []Daemon
	for id := 0; id < r.pr.NumNodes(); id++ {
		daemons = append(daemons, NewNodeStateD(id, r.pr, r.st, 2*time.Second))
	}
	daemons = append(daemons, NewBandwidthD(r.pr, r.st, 30*time.Second))
	for _, d := range daemons {
		if err := d.Start(r.sched); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, f, res float64) {
		t.Helper()
		if math.Round(f*res)/res != f || !onCanonIntegerPath(f) {
			t.Fatalf("%s %v: off the 1/%g grid or off canon's integer path", what, f, res)
		}
	}
	for minute := 0; minute < 20; minute++ {
		r.sched.RunFor(time.Minute)
		for id := 0; id < r.pr.NumNodes(); id++ {
			a, err := ReadNodeState(r.st, id)
			if err != nil {
				t.Fatal(err)
			}
			for _, col := range []struct {
				name string
				w    stats.Windowed
				res  float64
			}{{"cpu_load", a.CPULoad, milli}, {"cpu_util_pct", a.CPUUtilPct, milli},
				{"flow_rate_bps", a.FlowRateBps, whole}, {"avail_mem_mb", a.AvailMemMB, milli}} {
				for _, m := range []float64{col.w.M1, col.w.M5, col.w.M15} {
					check(col.name, m, col.res)
				}
			}
		}
		bw, err := ReadBandwidthMatrix(r.st)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range bw {
			check("avail_bps", p.AvailBps, whole)
			check("peak_bps", p.PeakBps, whole)
		}
	}
}

func TestNodeStateDSkipsDownNode(t *testing.T) {
	r := newRig(t, 3)
	d := NewNodeStateD(2, r.pr, r.st, 2*time.Second)
	_ = d.Start(r.sched)
	r.sched.RunFor(5 * time.Second)
	first, err := ReadNodeState(r.st, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.w.SetNodeDown(2, true)
	r.sched.RunFor(time.Minute)
	second, _ := ReadNodeState(r.st, 2)
	if !second.Timestamp.Equal(first.Timestamp) {
		// The record may have refreshed between RunFor boundaries before
		// the node went down, but it must be stale versus now.
		age := r.sched.Now().Sub(second.Timestamp)
		if age < 50*time.Second {
			t.Fatalf("down node's record still fresh (age %v)", age)
		}
	}
}

func TestLatencyAndBandwidthDaemons(t *testing.T) {
	r := newRig(t, 4)
	lat := NewLatencyD(r.pr, r.st, 5*time.Second)
	bw := NewBandwidthD(r.pr, r.st, 10*time.Second)
	if err := lat.Start(r.sched); err != nil {
		t.Fatal(err)
	}
	if err := bw.Start(r.sched); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(time.Minute)
	lm, err := ReadLatencyMatrix(r.st)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := ReadBandwidthMatrix(r.st)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := 8 * 7 / 2
	if len(lm) != wantPairs || len(bm) != wantPairs {
		t.Fatalf("matrix sizes %d/%d, want %d", len(lm), len(bm), wantPairs)
	}
	for k, pl := range lm {
		if pl.Last <= 0 || pl.Mean1 <= 0 {
			t.Fatalf("pair %v latency %+v", k, pl)
		}
	}
	for k, pb := range bm {
		if pb.AvailBps <= 0 || pb.PeakBps <= 0 {
			t.Fatalf("pair %v bandwidth %+v", k, pb)
		}
	}
}

// --- Manager & central monitor -----------------------------------------------

func TestManagerPublishesEverything(t *testing.T) {
	r := newRig(t, 6)
	mgr := NewManager(r.pr, r.st, fastConfig())
	if err := mgr.Start(r.sched); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	r.sched.RunFor(30 * time.Second)
	snap, err := ReadSnapshot(r.st, r.sched.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Livehosts) != 8 || len(snap.Nodes) != 8 {
		t.Fatalf("snapshot hosts=%d nodes=%d", len(snap.Livehosts), len(snap.Nodes))
	}
	if len(snap.Latency) != 28 || len(snap.Bandwidth) != 28 {
		t.Fatalf("snapshot matrices lat=%d bw=%d", len(snap.Latency), len(snap.Bandwidth))
	}
}

// TestManagerSharedEncoder runs a Manager on the wall clock at
// sub-second periods, with a daemon crashed for the master to relaunch,
// while another goroutine reads what the daemons publish. All the
// daemons share one encoder, which only the runtime's driver writes:
// Start, called here, writes its heartbeats with a buffer of its own.
// Every node record and heartbeat read decodes on the canonical path,
// whole and under its own key.
func TestManagerSharedEncoder(t *testing.T) {
	cl, err := cluster.BuildUniform(2, 4, 8, 3.0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	w := world.New(cl, world.Config{Seed: 9, StepSize: time.Second}, t0)
	st := store.Version(store.NewMem())
	ms := time.Millisecond
	mgr := NewManager(&WorldProber{W: w}, st, Config{NodeStatePeriod: 7 * ms, LivehostsPeriod: 11 * ms,
		LatencyPeriod: 23 * ms, BandwidthPeriod: 31 * ms, SupervisePeriod: 13 * ms, HeartbeatTimeout: 60 * ms})
	for _, d := range mgr.nodeStateDs {
		if d.enc != mgr.enc || mgr.latencyD.enc != mgr.enc {
			t.Fatal("a managed daemon has an encoder of its own")
		}
	}
	rt := simtime.NewRealRuntime()
	defer rt.Close()
	if err := mgr.Start(rt); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	read := make(chan int)
	go func() {
		n := 0
		defer func() { read <- n }()
		for {
			select {
			case <-done:
				return
			default:
			}
			for id := range cl.Size() {
				var a metrics.NodeAttrs
				if b, err := st.Get(nodeStateKey(id)); err == nil && (!decodeRecord(b, &a) || a.NodeID != id) {
					t.Errorf("node %d's record %s read as node %d", id, b, a.NodeID)
					return
				} else if err == nil {
					n++
				}
			}
			keys, _ := st.List(KeyHeartbeatPrefix)
			for _, k := range keys {
				var hb heartbeat
				if b, err := st.Get(k); err == nil && !decodeRecord(b, &hb) {
					t.Errorf("heartbeat %s under %s", b, k)
					return
				}
			}
		}
	}()
	time.Sleep(150 * ms)
	mgr.Daemon("nodestated/2").Crash()
	deadline := time.Now().Add(5 * time.Second)
	for !mgr.Daemon("nodestated/2").Running() && time.Now().Before(deadline) {
		time.Sleep(5 * ms)
	}
	if !mgr.Daemon("nodestated/2").Running() {
		t.Error("the crashed daemon was not relaunched")
	}
	time.Sleep(100 * ms)
	mgr.Stop()
	close(done)
	if n := <-read; n == 0 {
		t.Error("no node record was read")
	}
	if ticks := mgr.Daemon("nodestated/0").(*NodeStateD).Ticks(); ticks < 5 {
		t.Errorf("nodestated/0 ticked %d times", ticks)
	}
}

func TestManagerDoubleStartFails(t *testing.T) {
	r := newRig(t, 7)
	mgr := NewManager(r.pr, r.st, fastConfig())
	_ = mgr.Start(r.sched)
	defer mgr.Stop()
	if err := mgr.Start(r.sched); err == nil {
		t.Fatal("double start accepted")
	}
}

func TestCentralMonitorRelaunchesCrashedDaemon(t *testing.T) {
	r := newRig(t, 8)
	mgr := NewManager(r.pr, r.st, fastConfig())
	_ = mgr.Start(r.sched)
	defer mgr.Stop()
	r.sched.RunFor(10 * time.Second)

	d := mgr.Daemon("latencyd")
	if d == nil || !d.Running() {
		t.Fatal("latencyd not running")
	}
	d.Crash()
	if d.Running() {
		t.Fatal("crash did not stop daemon")
	}
	// Heartbeat timeout 10s (or 2.5 periods = 12.5s for latencyd) +
	// supervise period 4s: well within a minute.
	r.sched.RunFor(time.Minute)
	if !d.Running() {
		t.Fatal("central monitor did not relaunch crashed latencyd")
	}
	if mgr.Master().Relaunches() == 0 {
		t.Fatal("master counted no relaunches")
	}
}

func TestMasterFailover(t *testing.T) {
	r := newRig(t, 9)
	mgr := NewManager(r.pr, r.st, fastConfig())
	_ = mgr.Start(r.sched)
	defer mgr.Stop()
	r.sched.RunFor(10 * time.Second)

	centrals := mgr.Centrals()
	if len(centrals) != 2 {
		t.Fatalf("%d central monitors, want 2", len(centrals))
	}
	master, slave := centrals[0], centrals[1]
	if master.Role() != RoleMaster || slave.Role() != RoleSlave {
		t.Fatalf("roles: %v / %v", master.Role(), slave.Role())
	}
	// Kill the master; slave must promote and spawn a replacement slave.
	master.Crash()
	r.sched.RunFor(time.Minute)
	if slave.Role() != RoleMaster {
		t.Fatal("slave did not promote after master death")
	}
	if slave.Promotions() != 1 {
		t.Fatalf("promotions = %d", slave.Promotions())
	}
	after := mgr.Centrals()
	if len(after) != 3 {
		t.Fatalf("no replacement slave spawned: %d centrals", len(after))
	}
	replacement := after[2]
	if !replacement.Running() || replacement.Role() != RoleSlave {
		t.Fatalf("replacement state: running=%v role=%v", replacement.Running(), replacement.Role())
	}
	if mgr.Master() != slave {
		t.Fatal("Master() does not report the promoted instance")
	}
}

func TestSlaveDeathSpawnsReplacement(t *testing.T) {
	r := newRig(t, 10)
	mgr := NewManager(r.pr, r.st, fastConfig())
	_ = mgr.Start(r.sched)
	defer mgr.Stop()
	r.sched.RunFor(10 * time.Second)
	centrals := mgr.Centrals()
	slave := centrals[1]
	slave.Crash()
	r.sched.RunFor(time.Minute)
	after := mgr.Centrals()
	if len(after) < 3 {
		t.Fatal("master did not spawn replacement slave")
	}
	if !after[len(after)-1].Running() {
		t.Fatal("replacement slave not running")
	}
}

func TestBothCentralsDeadDegradedMode(t *testing.T) {
	r := newRig(t, 11)
	mgr := NewManager(r.pr, r.st, fastConfig())
	_ = mgr.Start(r.sched)
	defer mgr.Stop()
	r.sched.RunFor(10 * time.Second)
	// Kill both central monitors simultaneously.
	for _, c := range mgr.Centrals() {
		c.Crash()
	}
	before, err := ReadLatencyMatrix(r.st)
	if err != nil {
		t.Fatal(err)
	}
	var beforeTime time.Time
	for _, pl := range before {
		beforeTime = pl.Timestamp
		break
	}
	r.sched.RunFor(time.Minute)
	// Worker daemons keep publishing (the paper's degraded mode).
	after, err := ReadLatencyMatrix(r.st)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range after {
		if !pl.Timestamp.After(beforeTime) {
			t.Fatal("workers stopped publishing after central death")
		}
		break
	}
	// But a crashed worker now stays dead.
	d := mgr.Daemon("latencyd")
	d.Crash()
	r.sched.RunFor(time.Minute)
	if d.Running() {
		t.Fatal("daemon relaunched with no central monitor alive")
	}
}

func TestDaemonDoubleStartFails(t *testing.T) {
	r := newRig(t, 12)
	d := NewLivehostsD(0, r.pr, r.st, time.Second)
	if err := d.Start(r.sched); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(r.sched); err == nil {
		t.Fatal("double start accepted")
	}
	d.Stop()
	if err := d.Start(r.sched); err != nil {
		t.Fatalf("restart after stop: %v", err)
	}
}

func TestReadSnapshotWithoutData(t *testing.T) {
	st := store.NewMem()
	if _, err := ReadSnapshot(st, t0); err == nil {
		t.Fatal("snapshot from empty store succeeded")
	}
}

func TestSnapshotExcludesUnpublishedNodes(t *testing.T) {
	r := newRig(t, 13)
	// Livehosts exists but only node 0 has state.
	lv := NewLivehostsD(0, r.pr, r.st, time.Second)
	ns := NewNodeStateD(0, r.pr, r.st, time.Second)
	_ = lv.Start(r.sched)
	_ = ns.Start(r.sched)
	r.sched.RunFor(3 * time.Second)
	snap, err := ReadSnapshot(r.st, r.sched.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Nodes) != 1 {
		t.Fatalf("snapshot has %d node records, want 1", len(snap.Nodes))
	}
	if len(snap.Livehosts) != 8 {
		t.Fatalf("livehosts = %v", snap.Livehosts)
	}
}
