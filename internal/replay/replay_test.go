package replay

import (
	"testing"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/cluster"
	"nlarm/internal/metrics"
	"nlarm/internal/monitor"
	"nlarm/internal/rng"
	"nlarm/internal/simtime"
	"nlarm/internal/stats"
	"nlarm/internal/store"
	"nlarm/internal/world"
)

var t0 = time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)

// fakeSnapshot builds a small fully-populated snapshot at the given time.
func fakeSnapshot(at time.Time, load float64) *metrics.Snapshot {
	s := &metrics.Snapshot{
		Taken:     at,
		Livehosts: []int{0, 1, 2},
		Nodes:     make(map[int]metrics.NodeAttrs),
		Latency:   make(map[metrics.PairKey]metrics.PairLatency),
		Bandwidth: make(map[metrics.PairKey]metrics.PairBandwidth),
	}
	for i := 0; i < 3; i++ {
		na := metrics.NodeAttrs{
			NodeID: i, Hostname: "n", Timestamp: at,
			Cores: 8, FreqGHz: 3, TotalMemMB: 8192,
		}
		na.CPULoad = stats.Windowed{M1: load, M5: load, M15: load}
		s.Nodes[i] = na
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			key := metrics.Pair(i, j)
			s.Latency[key] = metrics.PairLatency{U: i, V: j, Timestamp: at, Last: 100 * time.Microsecond, Mean1: 100 * time.Microsecond}
			s.Bandwidth[key] = metrics.PairBandwidth{U: i, V: j, Timestamp: at, AvailBps: 100e6, PeakBps: 125e6}
		}
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st := store.NewMem()
	orig := fakeSnapshot(t0, 1.5)
	if err := Save(st, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Load(st, t0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Taken.Equal(orig.Taken) || len(got.Nodes) != 3 {
		t.Fatalf("loaded %+v", got)
	}
	if got.Nodes[1].CPULoad.M1 != 1.5 {
		t.Fatalf("node attrs lost: %+v", got.Nodes[1])
	}
	if lat, ok := got.LatencyOf(0, 2); !ok || lat != 100*time.Microsecond {
		t.Fatalf("latency lost: %v %v", lat, ok)
	}
	if avail, peak, ok := got.BandwidthOf(1, 2); !ok || avail != 100e6 || peak != 125e6 {
		t.Fatal("bandwidth lost")
	}
}

func TestTimestampsOrdered(t *testing.T) {
	st := store.NewMem()
	// Save out of order.
	for _, offset := range []time.Duration{3 * time.Minute, time.Minute, 2 * time.Minute} {
		if err := Save(st, fakeSnapshot(t0.Add(offset), 1)); err != nil {
			t.Fatal(err)
		}
	}
	times, err := Timestamps(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("%d timestamps", len(times))
	}
	for i := 1; i < len(times); i++ {
		if !times[i].After(times[i-1]) {
			t.Fatalf("unordered timestamps %v", times)
		}
	}
}

func TestLoadAt(t *testing.T) {
	st := store.NewMem()
	_ = Save(st, fakeSnapshot(t0, 1))
	_ = Save(st, fakeSnapshot(t0.Add(10*time.Minute), 2))
	// At t0+5m the visible snapshot is the t0 one.
	s, err := LoadAt(st, t0.Add(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Taken.Equal(t0) {
		t.Fatalf("LoadAt picked %v", s.Taken)
	}
	// Before any snapshot: error.
	if _, err := LoadAt(st, t0.Add(-time.Hour)); err == nil {
		t.Fatal("LoadAt before history succeeded")
	}
}

func TestPrune(t *testing.T) {
	st := store.NewMem()
	for m := 0; m < 10; m++ {
		_ = Save(st, fakeSnapshot(t0.Add(time.Duration(m)*time.Minute), 1))
	}
	deleted, err := Prune(st, t0.Add(9*time.Minute), 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 6 { // minutes 0..5 are older than 9-3=6
		t.Fatalf("pruned %d", deleted)
	}
	times, _ := Timestamps(st)
	if len(times) != 4 {
		t.Fatalf("%d remain", len(times))
	}
}

func TestRecorderArchivesLiveMonitor(t *testing.T) {
	cl, err := cluster.BuildUniform(2, 4, 8, 3.0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	sched := simtime.NewScheduler(t0)
	w := world.New(cl, world.Config{Seed: 1, StepSize: time.Second}, t0)
	w.Attach(sched)
	st := store.NewMem()
	mgr := monitor.NewManager(&monitor.WorldProber{W: w}, st, monitor.Config{
		NodeStatePeriod: 2 * time.Second,
		LivehostsPeriod: 2 * time.Second,
		LatencyPeriod:   5 * time.Second,
		BandwidthPeriod: 10 * time.Second,
	})
	if err := mgr.Start(sched); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	rec := NewRecorder(st, 30*time.Second, 10*time.Minute)
	if err := rec.Start(sched); err != nil {
		t.Fatal(err)
	}
	defer rec.Stop()
	if err := rec.Start(sched); err == nil {
		t.Fatal("double start accepted")
	}

	sched.RunFor(5 * time.Minute)
	times, err := Timestamps(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) < 8 {
		t.Fatalf("only %d archives after 5 minutes at 30s", len(times))
	}

	// Offline what-if: re-run the allocator against a historical snapshot.
	snap, err := LoadAt(st, t0.Add(3*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	a, err := alloc.Allocate(alloc.NetLoadAware{}, snap, alloc.Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalProcs() != 8 {
		t.Fatalf("historical allocation %+v", a)
	}
}

func TestForeignKeysUnderPrefixIgnored(t *testing.T) {
	st := store.NewMem()
	_ = st.Put(KeyPrefix+"not-a-timestamp", []byte("junk"))
	_ = Save(st, fakeSnapshot(t0, 1))
	times, err := Timestamps(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 1 {
		t.Fatalf("timestamps %v", times)
	}
}
