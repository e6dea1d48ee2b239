package broker

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/metrics"
	"nlarm/internal/monitor"
	"nlarm/internal/rng"
)

// guardSnapshot records snap's fingerprint and a deep copy (livehosts,
// nodes, both matrices, degraded reasons) and returns a check that fails
// the test if either has moved since.
func guardSnapshot(t *testing.T, snap *metrics.Snapshot) func() {
	t.Helper()
	fp, before := snap.Fingerprint(), snap.Clone()
	return func() {
		t.Helper()
		if got := snap.Fingerprint(); got != fp {
			t.Errorf("shared snapshot fingerprint moved %x -> %x", fp, got)
		}
		if now := snap.Clone(); !reflect.DeepEqual(before, now) {
			t.Errorf("shared snapshot content changed: livehosts %v -> %v", before.Livehosts, now.Livehosts)
		}
	}
}

// TestSharedSnapshotNeverMutated is the aliasing guard for the ownership
// rule on metrics.Snapshot: the view the snapshot cache hands out is also
// the broker's last-good view and the cache's own state, so no consumer
// may write through it. Every row runs against the very snapshot the
// broker shares.
func TestSharedSnapshotNeverMutated(t *testing.T) {
	req := alloc.Request{Procs: 16, PPN: 4, Alpha: 0.5, Beta: 0.5}
	reserving := func(snap *metrics.Snapshot) *alloc.ReservingPolicy {
		rp := alloc.NewReservingPolicy(alloc.NetLoadAware{}, time.Minute)
		rp.Reserve(map[int]int{1: 3, 2: 2}, snap.Taken)
		return rp
	}
	policies := []func(*metrics.Snapshot) alloc.Policy{
		func(*metrics.Snapshot) alloc.Policy { return alloc.Random{} },
		func(*metrics.Snapshot) alloc.Policy { return alloc.Sequential{} },
		func(*metrics.Snapshot) alloc.Policy { return alloc.LoadAware{} },
		func(*metrics.Snapshot) alloc.Policy { return alloc.NetLoadAware{} },
		func(s *metrics.Snapshot) alloc.Policy { return reserving(s) },
	}

	type row struct {
		name string
		run  func(t *testing.T, r *faultRig, snap *metrics.Snapshot)
	}
	var rows []row
	for _, mk := range policies {
		mk := mk
		name := mk(&metrics.Snapshot{}).Name()
		rows = append(rows, row{name + "/Allocate", func(t *testing.T, _ *faultRig, snap *metrics.Snapshot) {
			if _, err := alloc.Allocate(mk(snap), snap, req, rng.New(3)); err != nil {
				t.Fatal(err)
			}
		}}, row{name + "/AllocateModel", func(t *testing.T, _ *faultRig, snap *metrics.Snapshot) {
			vreq, err := req.Validate()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mk(snap).AllocateModel(alloc.NewCostModel(snap, vreq.Weights, false), req, rng.New(3)); err != nil {
				t.Fatal(err)
			}
		}})
	}
	rows = append(rows,
		row{"Charged/live-reservations", func(t *testing.T, _ *faultRig, snap *metrics.Snapshot) {
			charged := reserving(snap).Charged(snap)
			if charged == snap {
				t.Fatal("live reservations charged nothing")
			}
			if charged.Nodes[1].CPULoad.M1 != snap.Nodes[1].CPULoad.M1+3 {
				t.Fatalf("node 1 charged load %g, base %g", charged.Nodes[1].CPULoad.M1, snap.Nodes[1].CPULoad.M1)
			}
		}},
		row{"Charged/saturated-node-pruned", func(t *testing.T, _ *faultRig, snap *metrics.Snapshot) {
			rp := alloc.NewReservingPolicy(alloc.NetLoadAware{}, time.Minute)
			rp.Reserve(map[int]int{5: snap.Nodes[5].Cores}, snap.Taken)
			charged := rp.Charged(snap)
			if len(charged.Livehosts) != len(snap.Livehosts)-1 || charged.Alive(5) {
				t.Fatalf("saturated node 5 not pruned: charged livehosts %v", charged.Livehosts)
			}
		}},
		row{"degraded-serve/filter-drops-a-node", func(t *testing.T, r *faultRig, snap *metrics.Snapshot) {
			r.w.SetNodeDown(3, true)
			r.sched.RunFor(6 * time.Second)
			r.fs.Partition(monitor.KeyNodeStatePrefix)
			resp, err := r.b.Allocate(Request{Procs: 56, PPN: 8, Force: true})
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Degraded || len(resp.Nodes) != 7 {
				t.Fatalf("degraded=%v nodes=%v, want a degraded serve over the 7 survivors", resp.Degraded, resp.Nodes)
			}
			if r.b.lastGood != snap {
				t.Fatal("degraded serve replaced the last-good view")
			}
		}},
	)

	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			r := newFaultRig(t, 41)
			if resp, err := r.b.Allocate(Request{Procs: 4}); err != nil || resp.Degraded {
				t.Fatalf("priming allocate: degraded=%v err=%v", resp.Degraded, err)
			}
			snap := r.b.lastGood // the cache's own view, shared
			check := guardSnapshot(t, snap)
			tc.run(t, r, snap)
			check()
		})
	}
}

// TestSharedSnapshotRace runs the sharing under the race detector:
// degraded serves (header copy + livehosts filter over the last-good
// view) and ReservingPolicy allocations (Charged variants of the served
// view) proceed while another goroutine republishes node state and the
// livehosts list, ages the data in and out of the staleness bound, and
// allocates fresh.
func TestSharedSnapshotRace(t *testing.T) {
	r := newFaultRig(t, 43)
	rp := alloc.NewReservingPolicy(alloc.NetLoadAware{}, time.Minute)
	r.b.RegisterPolicy(rp)
	if _, err := r.b.Allocate(Request{Procs: 4}); err != nil {
		t.Fatal(err)
	}
	base, err := monitor.ReadSnapshot(r.vst, r.sched.Now())
	if err != nil {
		t.Fatal(err)
	}
	now := r.sched.Now()

	put := func(key string, v any) {
		bts, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		if err := r.vst.Put(key, bts); err != nil {
			panic(err)
		}
	}
	const rounds = 60
	var wg sync.WaitGroup
	var degraded, fresh int // the republisher's own answers; read after wg.Wait
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			// Half the rounds publish records aged past SnapshotMaxAge: once
			// all of them are old the broker degrades to its last-good view.
			ts := now
			if i%6 >= 3 {
				ts = now.Add(-10 * time.Minute)
			}
			for _, id := range base.Livehosts {
				attrs := base.Nodes[id]
				attrs.CPULoad.M1 = float64((i+id)%5) * 0.25
				attrs.Timestamp = ts
				put(fmt.Sprintf("%s%d", monitor.KeyNodeStatePrefix, id), attrs)
			}
			hosts := base.Livehosts
			if i%2 == 0 {
				hosts = hosts[:len(hosts)-1] // the filter has a node to drop
			}
			put(monitor.KeyLivehostsPrefix+"0", map[string]any{
				"replica": 0, "at": now.Add(time.Duration(i) * time.Millisecond), "hosts": hosts,
			})
			resp, err := r.b.Allocate(Request{Procs: 4, Force: true})
			if err != nil {
				t.Errorf("republisher allocate: %v", err)
				return
			}
			if resp.Degraded {
				degraded++
			} else {
				fresh++
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := Request{Procs: 8, PPN: 4, Force: true}
			if g%2 == 0 {
				req.Policy = rp.Name()
			}
			for i := 0; i < rounds; i++ {
				if _, err := r.b.Allocate(req); err != nil {
					t.Errorf("allocator %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if degraded == 0 || fresh == 0 {
		t.Fatalf("republisher saw %d degraded and %d fresh answers; the race needs both", degraded, fresh)
	}

	// Whatever interleaving ran, the store's content is what a fresh
	// read says it is: the shared views were never written through.
	want, err := monitor.ReadSnapshot(r.vst, r.sched.Now())
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.b.cache.Refresh(now)
	if err != nil {
		t.Fatal(err)
	}
	if got.FP != want.Fingerprint() || !reflect.DeepEqual(got.Snap.Livehosts, want.Livehosts) || !reflect.DeepEqual(got.Snap.Nodes, want.Nodes) {
		t.Fatalf("cache view diverged from a full read after the race:\ncache %v\nstore %v", got.Snap.Livehosts, want.Livehosts)
	}
}
