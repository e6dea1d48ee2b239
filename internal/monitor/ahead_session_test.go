package monitor_test

import (
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"nlarm/internal/cluster"
	"nlarm/internal/harness"
	"nlarm/internal/metrics"
	"nlarm/internal/monitor"
	"nlarm/internal/simtime"
	"nlarm/internal/store"
)

// TestDecodeAheadMatchesInline holds the run-ahead workers' decodes to
// the inline decode on quick 60-node miniMD rounds, a fresh session each,
// as the paper loop runs them: for every matrix generation a worker
// decodes, its map and fold equal an inline decode of the same bytes.
func TestDecodeAheadMatchesInline(t *testing.T) {
	for round := range 2 {
		seed := uint64(42 + round)
		s, err := harness.NewSession(harness.SessionConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var bad []string
		gens := 0
		monitor.ObserveDecodes(s.VStore, func(key string, b []byte, m any, fold uint64) {
			want, wantFold, err := monitor.DecodeInline(key, b)
			folded := uint64(0)
			switch m := m.(type) {
			case map[metrics.PairKey]metrics.PairLatency:
				folded = metrics.FoldPairs(m)
			case map[metrics.PairKey]metrics.PairBandwidth:
				folded = metrics.FoldPairs(m)
			}
			mu.Lock()
			defer mu.Unlock()
			gens++
			if err != nil || !reflect.DeepEqual(m, want) || fold != wantFold || fold != folded {
				bad = append(bad, key)
			}
		})
		s.WarmUp(harness.DefaultWarmUp)
		_, err = harness.RunScalingOn(s, harness.QuickScalingConfig(harness.PaperMiniMDConfig(seed)))
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		monitor.AheadSettle(s.VStore) // a decode still running would be observed but not yet counted
		hits, waits, misses, decodes := monitor.AheadCounts(s.VStore)
		t.Logf("round %d: %d hits, %d waits, %d misses, %d worker decodes", round, hits, waits, misses, decodes)
		mu.Lock()
		if len(bad) > 0 || gens != decodes {
			t.Fatalf("round %d: %d of %d worker decodes differ from the inline decode (%v)", round, len(bad), gens, bad)
		}
		mu.Unlock()
		if hits+waits == 0 {
			t.Fatalf("round %d: no read was served by the workers", round)
		}
	}
}

// hold is a run-ahead task that holds its worker until it is closed.
type hold chan struct{}

func (h hold) Run() { <-h }

// TestDecodeAheadOwnsNoGoroutine checks that sessions, whose layers are
// dropped with decodes queued or running, start no goroutine of their
// own, and that a read whose decode is still queued, behind tasks that
// hold every run-ahead worker, decodes inline instead of waiting.
func TestDecodeAheadOwnsNoGoroutine(t *testing.T) {
	cl, err := cluster.BuildUniform(2, 4, 8, 3.0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	busy := 0 // layers dropped with a decode queued or running
	session := func(seed uint64) {
		t.Helper()
		s, err := harness.NewSession(harness.SessionConfig{Seed: seed, Cluster: cl})
		if err != nil {
			t.Fatal(err)
		}
		s.WarmUp(time.Minute)
		for range 3 {
			// A read, then the next latency put: a decode for the workers.
			if _, err := monitor.ReadSnapshot(s.VStore, s.Now()); err != nil {
				t.Fatal(err)
			}
			s.Advance(time.Minute)
		}
		if monitor.AheadHeld(s.VStore) > 0 {
			busy++
		}
		s.Close()
	}
	session(1) // starts the run-ahead workers
	base := runtime.NumGoroutine()
	for seed := uint64(2); seed <= 21; seed++ {
		session(seed)
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("after %d sessions: %d goroutines, %d after the first", seed, n, base)
		}
	}
	t.Logf("%d of 21 layers dropped with a decode queued or running", busy)

	t.Run("QueuedReadDecodesInline", func(t *testing.T) {
		// At least as many holders as workers. The workers number
		// GOMAXPROCS at the first task, which no ascending -cpu list (CI's
		// is 1,2,4) sets above both figures; holders beyond the workers
		// wait in the queue, ahead of the decode, as well.
		release := make(hold)
		var once sync.Once
		free := func() { once.Do(func() { close(release) }) }
		defer free()
		for range max(runtime.GOMAXPROCS(0), runtime.NumCPU()) {
			simtime.Ahead(release)
		}
		a := monitor.NewDecodeAhead(store.Version(store.NewMem()))
		put := func(ms int) {
			b, err := json.Marshal([]metrics.PairLatency{{U: 0, V: 1, Last: time.Duration(ms) * time.Millisecond}})
			if err == nil {
				err = a.Put(monitor.KeyLatencyMatrix, b)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		// A put, a read, then a put whose decode queues behind the holders.
		put(1)
		if _, err := monitor.ReadLatencyMatrix(a); err != nil {
			t.Fatal(err)
		}
		put(2)
		if n := monitor.AheadHeld(a); n != 1 {
			t.Fatalf("%d decodes queued after a read and a put, want 1", n)
		}
		read := make(chan error, 1)
		go func() {
			_, err := monitor.ReadLatencyMatrix(a)
			read <- err
		}()
		select {
		case err := <-read:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a read waited on a decode still queued")
		}
		free()
		monitor.AheadSettle(a) // the worker that takes the dropped decode skips it
		if hits, waits, misses, decodes := monitor.AheadCounts(a); hits+waits != 0 || misses != 2 || decodes != 0 {
			t.Fatalf("%d hits, %d waits, %d misses, %d worker decodes; want both reads inline and no decode", hits, waits, misses, decodes)
		}
	})
}
