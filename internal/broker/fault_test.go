package broker

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/cluster"
	"nlarm/internal/loadgen"
	"nlarm/internal/monitor"
	"nlarm/internal/simtime"
	"nlarm/internal/store"
	"nlarm/internal/world"
)

// faultRig is the broker test rig with a fault-injecting store between
// the monitor and the broker. Daemons and broker share vst, the
// generation-tracking wrapper over fs, as harness/chaos.go wires it.
type faultRig struct {
	sched *simtime.Scheduler
	w     *world.World
	fs    *store.FaultStore
	vst   *store.VersionedStore
	mgr   *monitor.Manager
	b     *Broker
}

func newFaultRig(t *testing.T, seed uint64) *faultRig {
	t.Helper()
	cl, err := cluster.BuildUniform(2, 4, 8, 3.0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	sched := simtime.NewScheduler(t0)
	w := world.New(cl, world.Config{Seed: seed, StepSize: time.Second}, t0)
	w.Attach(sched)
	fs := store.NewFault(store.NewMem(), seed)
	vst := store.Version(fs)
	mgr := monitor.NewManager(&monitor.WorldProber{W: w}, vst, monitor.Config{
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
	return &faultRig{sched: sched, w: w, fs: fs, vst: vst, mgr: mgr, b: New(vst, sched, Config{Seed: seed})}
}

func TestFaultDegradedServesLastGoodOnReadFailure(t *testing.T) {
	r := newFaultRig(t, 21)
	fresh, err := r.b.Allocate(Request{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Degraded {
		t.Fatalf("healthy store produced a degraded response: %s", fresh.DegradedReason)
	}

	// Partition the livehosts prefix: the snapshot read now fails, but
	// the broker must keep answering from its last-good copy. The daemons
	// get one publish round first: with no write since the last refresh
	// the snapshot cache rightly serves its unchanged view without
	// touching the store at all.
	r.fs.Partition(monitor.KeyLivehostsPrefix)
	r.sched.RunFor(3 * time.Second)
	resp, err := r.b.Allocate(Request{Procs: 4})
	if err != nil {
		t.Fatalf("allocation failed during partition instead of degrading: %v", err)
	}
	if !resp.Degraded {
		t.Fatal("partitioned store served a non-degraded response")
	}
	if !strings.Contains(resp.DegradedReason, "snapshot read failed") {
		t.Fatalf("degraded reason %q", resp.DegradedReason)
	}
	if len(resp.Nodes) == 0 {
		t.Fatal("degraded response carries no nodes")
	}
	if got := r.b.DegradedServed(); got != 1 {
		t.Fatalf("DegradedServed = %d, want 1", got)
	}

	// Healing restores fresh service.
	r.fs.HealAll()
	after, err := r.b.Allocate(Request{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if after.Degraded {
		t.Fatal("healed store still serving degraded responses")
	}
}

func TestFaultDegradedServesLastGoodOnStaleData(t *testing.T) {
	r := newFaultRig(t, 22)
	fresh, err := r.b.Allocate(Request{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Stop monitoring and let the data age far beyond the bound. A broker
	// that already saw a healthy monitor degrades instead of refusing.
	r.mgr.Stop()
	r.sched.RunFor(10 * time.Minute)
	resp, err := r.b.Allocate(Request{Procs: 4})
	if err != nil {
		t.Fatalf("stale data refused despite last-good copy: %v", err)
	}
	if !resp.Degraded || !strings.Contains(resp.DegradedReason, "older than") {
		t.Fatalf("degraded=%v reason=%q", resp.Degraded, resp.DegradedReason)
	}
	if resp.SnapshotAge < 5*time.Minute {
		t.Fatalf("degraded SnapshotAge = %v, want the last-good copy's real age", resp.SnapshotAge)
	}
	// The livehosts filter dropped nothing, so the degraded view is the
	// last-good content: same fingerprint, and its cost model is reused.
	if resp.SnapshotFP != fresh.SnapshotFP {
		t.Fatalf("degraded SnapshotFP %x, last healthy %x", resp.SnapshotFP, fresh.SnapshotFP)
	}
	hits, _ := r.b.ModelCacheStats()
	if _, err := r.b.Allocate(Request{Procs: 4}); err != nil {
		t.Fatal(err)
	}
	if after, _ := r.b.ModelCacheStats(); after != hits+1 {
		t.Fatalf("second degraded request: model cache hits %d -> %d, want a hit", hits, after)
	}
}

func TestFaultDegradedFiltersNodesGoneFromLivehosts(t *testing.T) {
	r := newFaultRig(t, 23)
	if _, err := r.b.Allocate(Request{Procs: 4}); err != nil {
		t.Fatal(err)
	}
	// Kill a node and let the livehosts list notice, then partition the
	// node-state prefix so the next snapshot has no fresh node data.
	const dead = 3
	r.w.SetNodeDown(dead, true)
	r.sched.RunFor(6 * time.Second)
	r.fs.Partition(monitor.KeyNodeStatePrefix)

	// A full-cluster request can only be satisfied by the 7 survivors:
	// the degraded snapshot must have dropped the dead node.
	resp, err := r.b.Allocate(Request{Procs: 56, PPN: 8, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("node-state partition did not degrade the response")
	}
	if len(resp.Nodes) != 7 {
		t.Fatalf("degraded allocation used %d nodes, want the 7 live ones", len(resp.Nodes))
	}
	for _, n := range resp.Nodes {
		if n == dead {
			t.Fatalf("degraded allocation placed ranks on dead node %d", dead)
		}
	}

	// The filter must not have eaten the node out of the last-good view:
	// when it comes back into the livehosts list while node state is still
	// unreadable, the next degraded serve can place on it again.
	r.w.SetNodeDown(dead, false)
	r.sched.RunFor(6 * time.Second)
	resp, err = r.b.Allocate(Request{Procs: 64, PPN: 8, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || len(resp.Nodes) != 8 || resp.Procs[dead] != 8 {
		t.Fatalf("revived node not allocatable from the last-good view: degraded=%v procs=%v", resp.Degraded, resp.Procs)
	}

	// Healed, the fresh view lists and places on it too.
	r.fs.HealAll()
	r.sched.RunFor(6 * time.Second)
	resp, err = r.b.Allocate(Request{Procs: 64, PPN: 8, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || resp.Procs[dead] != 8 {
		t.Fatalf("healed allocation: degraded=%v procs=%v", resp.Degraded, resp.Procs)
	}
	ref, err := r.b.cache.Refresh(r.sched.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Snap.Alive(dead) {
		t.Fatalf("refreshed livehosts %v lost node %d", ref.Snap.Livehosts, dead)
	}
}

// TestFaultStaleReadCannotSkewReservationClock is the regression test
// for the reservation-expiry clock-skew fix (ISSUE 5): the chaos
// harness's stale-read fault makes node-state reads serve their
// previous values, the broker detects the data as stale and degrades to
// its last-good snapshot — whose Taken is older than clocks the
// ReservingPolicy has already seen. Under the old arithmetic
// (snap.Taken.Sub(res.at) < TTL with no monotonic bound) a reservation
// recorded from that degraded serve was stamped at the rewound clock
// and died the moment a fresh snapshot arrived, re-opening the herding
// window the policy exists to close. The monotonic `seen` clock keeps
// it alive for its full TTL.
func TestFaultStaleReadCannotSkewReservationClock(t *testing.T) {
	r := newFaultRig(t, 24)
	const ttl = 12 * time.Second
	r.mgr.Stop()
	r.b.cfg.SnapshotMaxAge = 8 * time.Second
	rp := alloc.NewReservingPolicy(alloc.LoadAware{}, ttl)
	r.b.RegisterPolicy(rp)
	req := Request{Procs: 4, Policy: rp.Name()}

	// A fresh allocation records a reservation at T; the broker's
	// last-good copy keeps that same Taken.
	if resp, err := r.b.Allocate(req); err != nil || resp.Degraded {
		t.Fatalf("fresh allocate: degraded=%v err=%v", resp.Degraded, err)
	}
	base, err := r.b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The backfill queue's capacity pass prices free slots through
	// Charged with its own freshly-stamped snapshot — advancing the
	// policy's clock to T+6s without touching the broker's last-good copy
	// or its fingerprint-keyed model cache.
	r.sched.RunFor(6 * time.Second)
	snap6, err := r.b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rp.Charged(snap6)

	// Arm the stale-read fault, then republish node state: each Put
	// records the old record as the key's stale value, and every
	// subsequent read serves that old record.
	r.fs.SetScope(monitor.KeyNodeStatePrefix)
	r.fs.SetRates(store.Rates{StaleRead: 1})
	publish := func(ts time.Time) {
		for _, id := range base.Livehosts {
			attrs := base.Nodes[id]
			attrs.Timestamp = ts
			bts, err := json.Marshal(attrs)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.vst.Put(fmt.Sprintf("%s%d", monitor.KeyNodeStatePrefix, id), bts); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(r.sched.Now())

	// The stale reads push the served data past SnapshotMaxAge, so this
	// allocation is answered from the last-good copy and its reservation
	// is recorded against a snapshot whose Taken (T) has rewound behind
	// the clock the policy already saw (T+6s). The monotonic fallback
	// stamps it at T+6s; the skewed arithmetic stamped it at T.
	r.sched.RunFor(9 * time.Second)
	resp, err := r.b.Allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || !strings.Contains(resp.DegradedReason, "older than") {
		t.Fatalf("stale-read fault did not degrade: degraded=%v reason=%q", resp.Degraded, resp.DegradedReason)
	}
	if r.fs.FaultCount(store.FaultStaleRead) == 0 {
		t.Fatal("stale-read fault never fired")
	}
	// At T+15s the first grant (age 15s) is expired and the degraded
	// grant (age 9s on the monotonic clock) is live. The old arithmetic
	// priced the degraded grant as 15s old and reported zero.
	if got := rp.Outstanding(r.sched.Now()); got != 1 {
		t.Fatalf("Outstanding during degradation = %d, want 1", got)
	}

	// Heal and recover with genuinely fresh data. The reservation from
	// the degraded serve is 11s old on the monotonic clock — still inside
	// its 12s TTL. The skewed arithmetic would have stamped it at the
	// rewound Taken (17s ago) and pruned it here, re-opening the herding
	// window right when the cluster is recovering.
	r.fs.SetRates(store.Rates{})
	r.sched.RunFor(2 * time.Second)
	publish(r.sched.Now())
	if resp, err := r.b.Allocate(req); err != nil || resp.Degraded {
		t.Fatalf("healed allocate: degraded=%v err=%v", resp.Degraded, err)
	}
	// Live now: the degraded-serve grant (11s) and the healed grant (0s).
	// The first grant (17s) expired on schedule.
	if got := rp.Outstanding(r.sched.Now()); got != 2 {
		t.Fatalf("Outstanding after heal = %d, want 2 (degraded-serve reservation must live its full TTL)", got)
	}
}

func TestFaultNoLastGoodStillErrors(t *testing.T) {
	sched := simtime.NewScheduler(t0)
	fs := store.NewFault(store.NewMem(), 9)
	b := New(store.Version(fs), sched, Config{})
	if _, err := b.Allocate(Request{Procs: 4}); err == nil {
		t.Fatal("broker with no last-good snapshot served an empty store")
	}
	if got := b.DegradedServed(); got != 0 {
		t.Fatalf("DegradedServed = %d for a broker that never degraded", got)
	}
}

// TestFaultCostModelCacheRace hammers the PR 1 cost-model cache with
// concurrent Allocate calls while a republisher keeps rewriting node
// state (changing the snapshot fingerprint), then verifies the cache was
// never left serving a model for a superseded fingerprint. Run with
// -race.
func TestFaultCostModelCacheRace(t *testing.T) {
	r := newRig(t, 31, loadgen.Config{})
	snap0, err := r.b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	base := snap0.Nodes[0]

	const allocators, rounds = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	republisherDone := make(chan struct{})
	go func() {
		defer close(republisherDone)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			attrs := base
			attrs.CPULoad.M1 = float64(i%17) * 0.25
			attrs.Timestamp = base.Timestamp.Add(time.Duration(i) * time.Millisecond)
			bts, err := json.Marshal(attrs)
			if err != nil {
				panic(err)
			}
			_ = r.st.Put(fmt.Sprintf("%s0", monitor.KeyNodeStatePrefix), bts)
		}
	}()
	for g := 0; g < allocators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := r.b.Allocate(Request{Procs: 4, Force: true,
					Alpha: 0.1 * float64(g+1), Beta: 1 - 0.1*float64(g+1)}); err != nil {
					t.Errorf("allocator %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-republisherDone

	// The cache must now rebuild for the final snapshot exactly as a
	// from-scratch build would: a missed invalidation would surface here
	// as a model computed from a superseded snapshot.
	final, err := r.b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w := alloc.Weights{CPULoad: 1}
	finalView := monitor.Refresh{Snap: final, FP: final.Fingerprint()}
	got, _ := r.b.costModel(finalView, w, false)
	want := alloc.NewCostModel(final, w, false)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cost model cache returned a model that does not match a fresh build for the current snapshot")
	}
	// And an immediate second lookup is a hit on that same model.
	hitsBefore, _ := r.b.ModelCacheStats()
	if again, hit := r.b.costModel(finalView, w, false); !reflect.DeepEqual(again, want) || !hit {
		t.Fatal("second lookup diverged")
	}
	if hitsAfter, _ := r.b.ModelCacheStats(); hitsAfter != hitsBefore+1 {
		t.Fatalf("expected a cache hit, hits %d -> %d", hitsBefore, hitsAfter)
	}
}
