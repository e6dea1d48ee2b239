package monitor

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/obs"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
	"nlarm/internal/store"
)

var cacheT0 = time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)

// cacheWorld drives a synthetic publishing sequence against a store, the
// way the daemons would, so cache refreshes can be compared against full
// reads after arbitrary mutations.
type cacheWorld struct {
	t     *testing.T
	st    store.Store
	rnd   *rng.Rand
	now   time.Time
	hosts []int // current live set
	pool  []int // all node IDs that can ever be live
	// lenient tolerates failed Puts — set while a fault-store partition is
	// up, where publishing is expected to fail (bumping the generation).
	lenient bool
}

func (w *cacheWorld) put(key string, v any) {
	if err := putJSON(w.st, key, v); err != nil && !w.lenient {
		w.t.Fatal(err)
	}
}

func newCacheWorld(t *testing.T, st store.Store, seed uint64, n int) *cacheWorld {
	w := &cacheWorld{t: t, st: st, rnd: rng.New(seed), now: cacheT0}
	for i := 0; i < n; i++ {
		w.pool = append(w.pool, i*3+1) // non-contiguous IDs
	}
	w.hosts = append([]int(nil), w.pool...)
	w.publishLivehosts()
	for _, id := range w.pool {
		w.publishNode(id)
	}
	w.publishLatency()
	w.publishBandwidth()
	return w
}

func (w *cacheWorld) tick() time.Time {
	w.now = w.now.Add(time.Second)
	return w.now
}

func (w *cacheWorld) publishNode(id int) {
	attrs := metrics.NodeAttrs{
		NodeID:      id,
		Hostname:    fmt.Sprintf("n%02d", id),
		Timestamp:   w.tick(),
		Cores:       4 + id%4,
		FreqGHz:     2.5,
		TotalMemMB:  8192,
		Users:       w.rnd.Intn(3),
		CPULoad:     windowed(w.rnd.Range(0, 8)),
		CPUUtilPct:  windowed(w.rnd.Range(0, 100)),
		FlowRateBps: windowed(w.rnd.Range(0, 1e8)),
		AvailMemMB:  windowed(w.rnd.Range(100, 8000)),
	}
	w.put(nodeStateKey(id), attrs)
}

func (w *cacheWorld) publishLivehosts() {
	rec := livehostsRecord{Replica: 0, At: w.tick(), Hosts: append([]int(nil), w.hosts...)}
	w.put(KeyLivehostsPrefix+"0", rec)
}

func (w *cacheWorld) publishLatency() {
	var out []metrics.PairLatency
	at := w.tick()
	for i := 0; i < len(w.pool); i++ {
		for j := i + 1; j < len(w.pool); j++ {
			if w.rnd.Float64() < 0.15 {
				continue // never-measured pair
			}
			d := time.Duration(w.rnd.Range(50, 900)) * time.Microsecond
			out = append(out, metrics.PairLatency{
				U: w.pool[i], V: w.pool[j], Timestamp: at, Last: d, Mean1: d, Mean5: d,
			})
		}
	}
	w.put(KeyLatencyMatrix, out)
}

func (w *cacheWorld) publishBandwidth() {
	var out []metrics.PairBandwidth
	at := w.tick()
	for i := 0; i < len(w.pool); i++ {
		for j := i + 1; j < len(w.pool); j++ {
			if w.rnd.Float64() < 0.15 {
				continue
			}
			out = append(out, metrics.PairBandwidth{
				U: w.pool[i], V: w.pool[j], Timestamp: at,
				AvailBps: w.rnd.Range(1e7, 1e9), PeakBps: 1.25e9,
			})
		}
	}
	w.put(KeyBandwidthMatrix, out)
}

// mutate applies one random store mutation from the daemon repertoire:
// node republish, node death/revival via the livehosts list, matrix
// sweeps, a deleted record, or nothing at all.
func (w *cacheWorld) mutate() {
	switch w.rnd.Intn(7) {
	case 0, 1: // republish some node states (the common cadence)
		k := 1 + w.rnd.Intn(3)
		for i := 0; i < k; i++ {
			w.publishNode(w.pool[w.rnd.Intn(len(w.pool))])
		}
	case 2: // node death or revival
		id := w.pool[w.rnd.Intn(len(w.pool))]
		if i := slices.Index(w.hosts, id); i >= 0 {
			if len(w.hosts) > 1 {
				w.hosts = slices.Delete(append([]int(nil), w.hosts...), i, i+1)
			}
		} else {
			w.hosts = append(append([]int(nil), w.hosts...), id)
			slices.Sort(w.hosts)
		}
		w.publishLivehosts()
	case 3:
		w.publishLatency()
	case 4:
		w.publishBandwidth()
	case 5: // a node record vanishes (operator cleanup, daemon wipe)
		if err := w.st.Delete(nodeStateKey(w.pool[w.rnd.Intn(len(w.pool))])); err != nil {
			w.t.Fatal(err)
		}
	case 6: // nothing changed
	}
}

func windowed(v float64) stats.Windowed {
	return stats.Windowed{M1: v, M5: v, M15: v}
}

// TestSnapshotCacheMatchesFullRead is the randomized mutate/refresh
// property test: after every mutation batch, the delta-maintained
// snapshot and its incrementally maintained fingerprint must be
// identical to a from-scratch ReadSnapshot and its Fingerprint().
func TestSnapshotCacheMatchesFullRead(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			vst := store.Version(store.NewMem())
			w := newCacheWorld(t, vst, seed, 8)
			cache := NewSnapshotCache(vst, nil, nil)
			for step := 0; step < 40; step++ {
				w.mutate()
				now := w.tick()
				r, err := cache.Refresh(now)
				if err != nil {
					t.Fatalf("step %d: refresh: %v", step, err)
				}
				full, err := ReadSnapshot(vst, now)
				if err != nil {
					t.Fatalf("step %d: full read: %v", step, err)
				}
				if !reflect.DeepEqual(r.Snap.Livehosts, full.Livehosts) {
					t.Fatalf("step %d: livehosts drifted: %v vs %v", step, r.Snap.Livehosts, full.Livehosts)
				}
				if !reflect.DeepEqual(r.Snap.Nodes, full.Nodes) {
					t.Fatalf("step %d: nodes drifted", step)
				}
				if !reflect.DeepEqual(r.Snap.Latency, full.Latency) {
					t.Fatalf("step %d: latency drifted", step)
				}
				if !reflect.DeepEqual(r.Snap.Bandwidth, full.Bandwidth) {
					t.Fatalf("step %d: bandwidth drifted", step)
				}
				if want := full.Fingerprint(); r.FP != want {
					t.Fatalf("step %d: incremental fingerprint %x != full %x", step, r.FP, want)
				}
				if want := r.Snap.Fingerprint(); r.FP != want {
					t.Fatalf("step %d: refresh FP %x != served snapshot's own %x", step, r.FP, want)
				}
			}
		})
	}
}

// TestSnapshotCacheWarmRefreshRereadsOnlyChangedKeys pins the delta
// property with store op counters: a warm refresh after k node
// republishes issues exactly k Gets and no List.
func TestSnapshotCacheWarmRefreshRereadsOnlyChangedKeys(t *testing.T) {
	reg := obs.NewRegistry()
	clock := func() time.Time { return cacheT0 }
	ist := store.Instrument(store.NewMem(), reg, clock)
	vst := store.Version(ist)
	w := newCacheWorld(t, vst, 3, 6)
	cache := NewSnapshotCache(vst, reg, nil)

	gets := func() uint64 { return reg.Counter("store.get.count").Value() }
	lists := func() uint64 { return reg.Counter("store.list.count").Value() }

	r, err := cache.Refresh(w.tick())
	if err != nil {
		t.Fatal(err)
	}
	// Cold: 1 livehosts record + 6 node records + 2 matrices.
	if r.KeysReread != 9 {
		t.Fatalf("cold KeysReread = %d, want 9", r.KeysReread)
	}

	g0, l0 := gets(), lists()
	changed := []int{w.pool[1], w.pool[2], w.pool[4]}
	for _, id := range changed {
		w.publishNode(id)
	}
	r, err = cache.Refresh(w.tick())
	if err != nil {
		t.Fatal(err)
	}
	if d := gets() - g0; d != 3 {
		t.Fatalf("warm refresh after 3 republishes issued %d Gets, want exactly 3", d)
	}
	if d := lists() - l0; d != 0 {
		t.Fatalf("warm refresh issued %d Lists, want 0", d)
	}
	if r.KeysReread != 3 {
		t.Fatalf("warm KeysReread = %d, want 3", r.KeysReread)
	}
	if !r.Incremental {
		t.Fatal("node-only republish not reported as incremental")
	}
	if !slices.Equal(r.ChangedNodes, changed) {
		t.Fatalf("ChangedNodes = %v, want %v", r.ChangedNodes, changed)
	}

	// Untouched store: zero reads of any kind.
	g1, l1 := gets(), lists()
	r, err = cache.Refresh(w.tick())
	if err != nil {
		t.Fatal(err)
	}
	if gets() != g1 || lists() != l1 || r.KeysReread != 0 {
		t.Fatalf("idle refresh touched the store: gets+%d lists+%d reread=%d",
			gets()-g1, lists()-l1, r.KeysReread)
	}
	if reg.Counter("monitor.snapcache.refresh.unchanged").Value() == 0 {
		t.Fatal("idle refresh not counted as unchanged")
	}
}

// TestSnapshotCachePartitionRecovery exercises the chaos-harness failure
// paths: a livehosts partition fails the refresh without corrupting the
// cache, and after healing the cache reconverges bit-identically with a
// full read — including across a node death and revival.
func TestSnapshotCachePartitionRecovery(t *testing.T) {
	fs := store.NewFault(store.NewMem(), 17)
	vst := store.Version(fs)
	w := newCacheWorld(t, vst, 17, 6)
	cache := NewSnapshotCache(vst, nil, nil)
	if _, err := cache.Refresh(w.tick()); err != nil {
		t.Fatal(err)
	}

	// Partition the livehosts prefix and republish through it: the write
	// fails but bumps the generation, and the refresh must fail the same
	// way a full read would, leaving the cache state untouched.
	fs.Partition(KeyLivehostsPrefix)
	w.lenient = true
	w.publishLivehosts()
	w.lenient = false
	if _, err := cache.Refresh(w.tick()); err == nil {
		t.Fatal("refresh succeeded across a livehosts partition")
	}

	fs.HealAll()
	// Kill node pool[2], then let the monitor notice.
	dead := w.pool[2]
	w.hosts = slices.DeleteFunc(append([]int(nil), w.hosts...), func(id int) bool { return id == dead })
	w.publishLivehosts()
	now := w.tick()
	r, err := cache.Refresh(now)
	if err != nil {
		t.Fatalf("refresh after heal: %v", err)
	}
	full, err := ReadSnapshot(vst, now)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snap.Nodes, full.Nodes) || r.FP != full.Fingerprint() {
		t.Fatal("cache did not reconverge with the full read after heal + node death")
	}
	if _, ok := r.Snap.Nodes[dead]; ok {
		t.Fatalf("dead node %d still in the cached snapshot", dead)
	}

	// Revival: the node comes back with fresh state.
	w.hosts = append(w.hosts, dead)
	slices.Sort(w.hosts)
	w.publishLivehosts()
	w.publishNode(dead)
	now = w.tick()
	r, err = cache.Refresh(now)
	if err != nil {
		t.Fatal(err)
	}
	full, err = ReadSnapshot(vst, now)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snap.Nodes, full.Nodes) || r.FP != full.Fingerprint() {
		t.Fatal("cache did not reconverge after node revival")
	}
}

// TestSnapshotCacheMatrixErrorDegrades pins the fixed error semantics
// for each matrix in turn: a failing matrix read does not silently serve
// an empty matrix as fresh — the snapshot is marked Degraded with a
// reason naming that matrix, the other matrix is still served, and the
// full read over the same store degrades the same way — and the dirty
// matrix is retried on the next refresh even with no new generation.
func TestSnapshotCacheMatrixErrorDegrades(t *testing.T) {
	for _, tc := range []struct {
		name    string // the reason's name for the matrix; its key prefix is name + "/"
		publish func(*cacheWorld)
		split   func(*metrics.Snapshot) (failed, other any)
	}{
		{"latency", (*cacheWorld).publishLatency, func(s *metrics.Snapshot) (any, any) { return s.Latency, s.Bandwidth }},
		{"bandwidth", (*cacheWorld).publishBandwidth, func(s *metrics.Snapshot) (any, any) { return s.Bandwidth, s.Latency }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := store.NewFault(store.NewMem(), 5)
			vst := store.Version(fs)
			w := newCacheWorld(t, vst, 5, 4)
			cache := NewSnapshotCache(vst, nil, nil)
			if r, err := cache.Refresh(w.tick()); err != nil || r.Snap.Degraded {
				t.Fatalf("healthy refresh: err=%v degraded=%v", err, r.Snap.Degraded)
			}

			fs.Partition(tc.name + "/")
			w.lenient = true
			tc.publish(w) // fails through the partition, but bumps the generation
			w.lenient = false
			now := w.tick()
			r, err := cache.Refresh(now)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Snap.Degraded || len(r.Snap.DegradedReasons) != 1 ||
				!strings.HasPrefix(r.Snap.DegradedReasons[0], tc.name+" matrix read failed") {
				t.Fatalf("failed %s read: degraded=%v reasons=%q", tc.name, r.Snap.Degraded, r.Snap.DegradedReasons)
			}
			failed, other := tc.split(r.Snap)
			if reflect.ValueOf(failed).Len() != 0 {
				t.Fatalf("failed %s read left stale entries in the snapshot", tc.name)
			}
			if r.Incremental {
				t.Fatal("matrix loss reported as incremental")
			}
			full, err := ReadSnapshot(vst, now)
			if err != nil {
				t.Fatal(err)
			}
			if full.Degraded != r.Snap.Degraded || !reflect.DeepEqual(full.DegradedReasons, r.Snap.DegradedReasons) {
				t.Fatalf("full read degraded=%v reasons=%q; cache degraded=%v reasons=%q",
					full.Degraded, full.DegradedReasons, r.Snap.Degraded, r.Snap.DegradedReasons)
			}
			fullFailed, fullOther := tc.split(full)
			if reflect.ValueOf(other).Len() == 0 || !reflect.DeepEqual(other, fullOther) || reflect.ValueOf(fullFailed).Len() != 0 {
				t.Fatalf("the matrix that did not fail is not served as the full read serves it")
			}

			// Healing alone (no republish) must be enough: the dirty matrix
			// is retried and the cache reconverges with the full read.
			fs.HealAll()
			now = w.tick()
			r, err = cache.Refresh(now)
			if err != nil {
				t.Fatal(err)
			}
			full, err = ReadSnapshot(vst, now)
			if err != nil {
				t.Fatal(err)
			}
			if r.Snap.Degraded {
				t.Fatalf("healed refresh still degraded: %v", r.Snap.DegradedReasons)
			}
			if !reflect.DeepEqual(r.Snap.Latency, full.Latency) || !reflect.DeepEqual(r.Snap.Bandwidth, full.Bandwidth) ||
				r.FP != full.Fingerprint() {
				t.Fatal("cache did not reconverge after matrix heal")
			}
		})
	}
}
