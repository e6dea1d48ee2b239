package broker

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/cluster"
	"nlarm/internal/loadgen"
	"nlarm/internal/monitor"
	"nlarm/internal/obs"
	"nlarm/internal/rng"
	"nlarm/internal/simtime"
	"nlarm/internal/store"
	"nlarm/internal/world"
)

var t0 = time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)

// rig wires a small monitored cluster and a broker over it.
type rig struct {
	sched *simtime.Scheduler
	w     *world.World
	st    *store.VersionedStore // shared by daemons and broker, as in production
	mgr   *monitor.Manager
	b     *Broker
}

func newRig(t testing.TB, seed uint64, bg loadgen.Config) *rig {
	t.Helper()
	cl, err := cluster.BuildUniform(2, 4, 8, 3.0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	sched := simtime.NewScheduler(t0)
	w := world.New(cl, world.Config{Seed: seed, StepSize: time.Second, Background: bg}, t0)
	w.Attach(sched)
	st := store.Version(store.NewMem())
	mgr := monitor.NewManager(&monitor.WorldProber{W: w}, st, monitor.Config{
		NodeStatePeriod: 2 * time.Second,
		LivehostsPeriod: 2 * time.Second,
		LatencyPeriod:   5 * time.Second,
		BandwidthPeriod: 10 * time.Second,
	})
	if err := mgr.Start(sched); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)
	sched.RunFor(30 * time.Second)
	return &rig{sched: sched, w: w, st: st, mgr: mgr, b: New(st, sched, Config{Seed: seed})}
}

func TestAllocateDefaultPolicy(t *testing.T) {
	r := newRig(t, 1, loadgen.Config{})
	resp, err := r.b.Allocate(Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Recommendation != RecommendAllocate {
		t.Fatalf("recommendation %v", resp.Recommendation)
	}
	if resp.Policy != "net-load-aware" {
		t.Fatalf("default policy %q", resp.Policy)
	}
	if len(resp.Nodes) != 2 || len(resp.Hostfile) != 2 {
		t.Fatalf("nodes %v hostfile %v", resp.Nodes, resp.Hostfile)
	}
	for _, line := range resp.Hostfile {
		if !strings.Contains(line, ":4") {
			t.Fatalf("hostfile line %q lacks slot count", line)
		}
	}
	if resp.Allocation.TotalProcs() != 8 {
		t.Fatalf("allocation procs %d", resp.Allocation.TotalProcs())
	}
}

func TestAllocateEachPolicy(t *testing.T) {
	r := newRig(t, 2, loadgen.Config{})
	for _, pol := range r.b.Policies() {
		resp, err := r.b.Allocate(Request{Procs: 8, PPN: 4, Policy: pol})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if resp.Policy != pol {
			t.Fatalf("asked %s got %s", pol, resp.Policy)
		}
	}
}

func TestCostModelCacheReuse(t *testing.T) {
	r := newRig(t, 11, loadgen.Config{})
	req := Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7}

	// Frozen virtual time: the store content cannot change between these
	// calls, so the second request must reuse the first's cost model.
	first, err := r.b.Allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.b.Allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := r.b.ModelCacheStats()
	if hits < 1 {
		t.Fatalf("no cache hit on identical back-to-back requests (hits=%d misses=%d)", hits, misses)
	}
	if misses != 1 {
		t.Fatalf("expected exactly one miss (the first build), got %d", misses)
	}
	if !reflect.DeepEqual(first.Nodes, second.Nodes) || !reflect.DeepEqual(first.Procs, second.Procs) {
		t.Fatalf("cached model changed the allocation: %v/%v vs %v/%v",
			first.Nodes, first.Procs, second.Nodes, second.Procs)
	}

	// Different pricing inputs share the fingerprint but not the model:
	// a second key is built (miss), no invalidation.
	if _, err := r.b.Allocate(Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7, UseForecast: true}); err != nil {
		t.Fatal(err)
	}
	_, misses = r.b.ModelCacheStats()
	if misses != 2 {
		t.Fatalf("forecast pricing should be a distinct cache entry, got %d misses", misses)
	}

	// Advancing time republishes monitoring data, changing the snapshot
	// fingerprint: the cache must invalidate and rebuild.
	r.sched.RunFor(10 * time.Second)
	if _, err := r.b.Allocate(req); err != nil {
		t.Fatal(err)
	}
	_, missesAfter := r.b.ModelCacheStats()
	if missesAfter != 3 {
		t.Fatalf("republished snapshot should miss the cache, got %d misses", missesAfter)
	}
}

func TestUnknownPolicy(t *testing.T) {
	r := newRig(t, 3, loadgen.Config{})
	if _, err := r.b.Allocate(Request{Procs: 4, Policy: "magic"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestWaitRecommendation(t *testing.T) {
	// Crush the cluster with background load.
	heavy := loadgen.Config{BaseCPULoad: 12, SessionRatePerHour: 0.001}
	r := newRig(t, 4, heavy)
	resp, err := r.b.Allocate(Request{Procs: 8, PPN: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Recommendation != RecommendWait {
		t.Fatalf("overloaded cluster got %v (load/core %g)", resp.Recommendation, resp.ClusterLoad)
	}
	if len(resp.Nodes) != 0 {
		t.Fatal("wait recommendation included nodes")
	}
	// Force overrides.
	forced, err := r.b.Allocate(Request{Procs: 8, PPN: 4, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if forced.Recommendation != RecommendAllocate || len(forced.Nodes) == 0 {
		t.Fatalf("forced request got %+v", forced)
	}
}

func TestFreeProcsAndEarliestStart(t *testing.T) {
	// Idle cluster: 8 nodes × 8 cores with only trickle background load
	// should report most slots free, and a successful answer carries no
	// earliest-start estimate.
	idle := newRig(t, 41, loadgen.Config{})
	resp, err := idle.b.Allocate(Request{Procs: 8, PPN: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.FreeProcs < 32 || resp.FreeProcs > 64 {
		t.Fatalf("idle cluster FreeProcs = %d, want most of 64 slots", resp.FreeProcs)
	}
	if !resp.EarliestStart.IsZero() {
		t.Fatalf("allocate answer carries EarliestStart %v", resp.EarliestStart)
	}
	recs := idle.b.Decisions(1)
	if len(recs) != 1 || recs[0].FreeProcs != resp.FreeProcs {
		t.Fatalf("decision record FreeProcs = %+v, want %d", recs, resp.FreeProcs)
	}

	// Saturated cluster: zero free slots, and the wait answer estimates
	// when the load will have decayed back to the threshold.
	heavy := newRig(t, 42, loadgen.Config{BaseCPULoad: 12, SessionRatePerHour: 0.001})
	now := heavy.sched.Now()
	wait, err := heavy.b.Allocate(Request{Procs: 8, PPN: 4})
	if err != nil {
		t.Fatal(err)
	}
	if wait.Recommendation != RecommendWait {
		t.Fatalf("overloaded cluster got %v", wait.Recommendation)
	}
	if wait.FreeProcs != 0 {
		t.Fatalf("saturated cluster FreeProcs = %d, want 0", wait.FreeProcs)
	}
	if !wait.EarliestStart.After(now) || wait.EarliestStart.After(now.Add(10*time.Minute)) {
		t.Fatalf("EarliestStart %v not in (now, now+10m]", wait.EarliestStart.Sub(now))
	}
	recs = heavy.b.Decisions(1)
	if len(recs) != 1 || !recs[0].EarliestStart.Equal(wait.EarliestStart) {
		t.Fatalf("decision record EarliestStart = %+v, want %v", recs, wait.EarliestStart)
	}
}

func TestLoadDecayETA(t *testing.T) {
	if got := loadDecayETA(0.5, 0.9); got != time.Second {
		t.Fatalf("below-threshold ETA %v, want the 1s floor", got)
	}
	if got := loadDecayETA(1.0, 0); got != time.Second {
		t.Fatalf("zero threshold ETA %v, want the 1s floor", got)
	}
	lo, hi := loadDecayETA(1.2, 0.9), loadDecayETA(4.0, 0.9)
	if lo <= 0 || hi <= lo {
		t.Fatalf("ETA not increasing in load: %v then %v", lo, hi)
	}
	// ln(2)·60s ≈ 41.5s: a load at twice the threshold decays back in
	// under a minute on the 1-minute window's time constant.
	if got := loadDecayETA(1.8, 0.9); got < 40*time.Second || got > 43*time.Second {
		t.Fatalf("2× threshold ETA = %v, want ≈41.5s", got)
	}
}

func TestStaleMonitorRefused(t *testing.T) {
	r := newRig(t, 5, loadgen.Config{})
	// Stop all monitoring, let data age beyond the threshold.
	r.mgr.Stop()
	r.sched.RunFor(10 * time.Minute)
	if _, err := r.b.Allocate(Request{Procs: 4}); err == nil {
		t.Fatal("stale monitoring data accepted")
	}
}

func TestNoMonitorData(t *testing.T) {
	sched := simtime.NewScheduler(t0)
	b := New(store.Version(store.NewMem()), sched, Config{})
	if _, err := b.Allocate(Request{Procs: 4}); err == nil {
		t.Fatal("empty store accepted")
	}
}

func TestSnapshotAgeReported(t *testing.T) {
	r := newRig(t, 6, loadgen.Config{})
	resp, err := r.b.Allocate(Request{Procs: 4, PPN: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.SnapshotAge < 0 || resp.SnapshotAge > time.Minute {
		t.Fatalf("snapshot age %v", resp.SnapshotAge)
	}
}

func TestRegisterPolicy(t *testing.T) {
	r := newRig(t, 7, loadgen.Config{})
	before := len(r.b.Policies())
	r.b.RegisterPolicy(fakePolicy{})
	if len(r.b.Policies()) != before+1 {
		t.Fatal("policy not registered")
	}
	resp, err := r.b.Allocate(Request{Procs: 4, Policy: "fake"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Nodes) != 1 || resp.Nodes[0] != 0 {
		t.Fatalf("fake policy result %v", resp.Nodes)
	}
}

// --- TCP server/client ---------------------------------------------------

func TestServerClientRoundTrip(t *testing.T) {
	r := newRig(t, 8, loadgen.Config{})
	srv, err := NewServerOpts(r.b, nil, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	pols, err := c.Policies()
	if err != nil {
		t.Fatal(err)
	}
	if len(pols) != 4 {
		t.Fatalf("policies over wire: %v", pols)
	}
	resp, err := c.Allocate(Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Recommendation != RecommendAllocate || len(resp.Hostfile) != 2 {
		t.Fatalf("wire allocate: %+v", resp)
	}
}

func TestServerErrorPropagation(t *testing.T) {
	r := newRig(t, 9, loadgen.Config{})
	srv, err := NewServerOpts(r.b, nil, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Allocate(Request{Procs: 4, Policy: "nope"}); err == nil {
		t.Fatal("server error not propagated")
	}
	// Connection still usable after an error response.
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
}

func TestServerMultipleClients(t *testing.T) {
	r := newRig(t, 10, loadgen.Config{})
	srv, err := NewServerOpts(r.b, nil, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			c, err := Dial(srv.Addr(), time.Second)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for j := 0; j < 5; j++ {
				if _, err := c.Allocate(Request{Procs: 4, PPN: 4}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	r := newRig(t, 11, loadgen.Config{})
	srv, err := NewServerOpts(r.b, nil, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	if err := c.Health(); err == nil {
		t.Fatal("health succeeded against closed server")
	}
}

// fakePolicy is a trivial test policy.
type fakePolicy struct{}

func (fakePolicy) Name() string { return "fake" }
func (fakePolicy) AllocateModel(m *alloc.CostModel, req alloc.Request, r *rng.Rand) (alloc.Allocation, error) {
	return alloc.Allocation{Policy: "fake", Nodes: []int{0}, Procs: map[int]int{0: req.Procs}}, nil
}

func TestExplainReturnsCandidates(t *testing.T) {
	r := newRig(t, 12, loadgen.Config{})
	resp, err := r.b.Allocate(Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm 1 generates one candidate per live node (8 here).
	if len(resp.Candidates) != 8 {
		t.Fatalf("%d candidates", len(resp.Candidates))
	}
	chosen := 0
	for _, c := range resp.Candidates {
		if c.Chosen {
			chosen++
			if len(c.Nodes) != len(resp.Nodes) {
				t.Fatalf("chosen candidate %v vs response %v", c.Nodes, resp.Nodes)
			}
		}
		if len(c.Nodes) == 0 {
			t.Fatalf("empty candidate %+v", c)
		}
	}
	if chosen != 1 {
		t.Fatalf("%d candidates marked chosen", chosen)
	}
	// Non-NLA policies ignore Explain.
	resp, err = r.b.Allocate(Request{Procs: 8, PPN: 4, Policy: "random", Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 0 {
		t.Fatal("random policy returned candidates")
	}
}

func TestUseForecastAccepted(t *testing.T) {
	r := newRig(t, 13, loadgen.Config{})
	resp, err := r.b.Allocate(Request{Procs: 8, PPN: 4, UseForecast: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Recommendation != RecommendAllocate {
		t.Fatalf("forecast-priced request got %v", resp.Recommendation)
	}
}

func TestServerRejectsGarbageLine(t *testing.T) {
	r := newRig(t, 14, loadgen.Config{})
	srv, err := NewServerOpts(r.b, nil, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "bad request") {
		t.Fatalf("garbage answered with %q", buf[:n])
	}
	// Blank lines are skipped; the connection stays usable.
	if _, err := conn.Write([]byte("\n{\"action\":\"health\"}\n")); err != nil {
		t.Fatal(err)
	}
	n, err = conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "ok") {
		t.Fatalf("health after garbage: %q", buf[:n])
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestAllocateShardedWiring drives a broker configured with a shard
// threshold below the cluster size end to end: the model builds sharded
// (counter ticks), allocations still cover the request, and repeated
// requests with identical weights hit the same cached sharded model.
func TestAllocateShardedWiring(t *testing.T) {
	r := newRig(t, 5, loadgen.Config{})
	cl, err := cluster.BuildUniform(2, 4, 8, 3.0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	shard := alloc.ShardOptions{
		Plan:         alloc.NewShardPlan(cl.Topo.Shards(4), "topology"),
		Threshold:    4,
		MaxShardSize: 4,
		TopK:         1,
	}
	b := New(r.st, r.sched, Config{Seed: 5, Obs: reg, Shard: shard})
	resp, err := b.Allocate(Request{Procs: 8, PPN: 4, Alpha: 0.5, Beta: 0.5, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Recommendation != RecommendAllocate {
		t.Fatalf("recommendation %v", resp.Recommendation)
	}
	if resp.Allocation.TotalProcs() != 8 {
		t.Fatalf("allocation procs %d", resp.Allocation.TotalProcs())
	}
	if len(resp.Candidates) == 0 {
		t.Fatal("explain returned no candidates")
	}
	if got := reg.Counter("broker.model.sharded").Value(); got == 0 {
		t.Fatal("broker.model.sharded counter never ticked")
	}
	if got := reg.Counter("broker.alloc.sharded").Value(); got == 0 {
		t.Fatal("broker.alloc.sharded counter never ticked")
	}
	built := reg.Counter("broker.model.sharded").Value()
	if _, err := b.Allocate(Request{Procs: 8, PPN: 4, Alpha: 0.5, Beta: 0.5}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("broker.model.sharded").Value(); got != built {
		t.Fatalf("second allocate rebuilt the sharded model: %d -> %d builds", built, got)
	}
}
