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
	"nlarm/internal/store"
)

// TestDecodeAheadMatchesInline holds the decode worker to the inline
// decode on quick 60-node miniMD rounds, a fresh session each, as the
// paper loop runs them: for every matrix generation the worker decodes,
// its map and fold equal an inline decode of the same bytes.
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
		hits, waits, misses, decodes := monitor.AheadCounts(s.VStore)
		t.Logf("round %d: %d hits, %d waits, %d misses, %d worker decodes", round, hits, waits, misses, decodes)
		mu.Lock()
		if len(bad) > 0 || gens != decodes {
			t.Fatalf("round %d: %d of %d worker decodes differ from the inline decode (%v)", round, len(bad), gens, bad)
		}
		mu.Unlock()
		if hits+waits == 0 {
			t.Fatalf("round %d: no read was served by the worker", round)
		}
	}
}

// TestDecodeAheadCloseDrains checks that a closed session leaves nothing
// with the decode worker, that sessions start no goroutine of their own,
// and that a read whose decode is queued behind another layer's decodes
// decodes inline instead of waiting.
func TestDecodeAheadCloseDrains(t *testing.T) {
	cl, err := cluster.BuildUniform(2, 4, 8, 3.0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	busy := 0 // sessions closed with a decode queued or running
	session := func(seed uint64) {
		t.Helper()
		s, err := harness.NewSession(harness.SessionConfig{Seed: seed, Cluster: cl})
		if err != nil {
			t.Fatal(err)
		}
		s.WarmUp(time.Minute)
		for range 3 {
			// A read, then the next latency put: a decode for the worker.
			if _, err := monitor.ReadSnapshot(s.VStore, s.Now()); err != nil {
				t.Fatal(err)
			}
			s.Advance(time.Minute)
		}
		if monitor.AheadPending(s.VStore) > 0 {
			busy++
		}
		s.Close()
		if n := monitor.AheadPending(s.VStore); n != 0 {
			t.Fatalf("seed %d: %d decodes queued or running after Close", seed, n)
		}
		if _, err := monitor.ReadLatencyMatrix(s.VStore); err != nil {
			t.Fatal(err)
		}
		b, err := s.Store.Get(monitor.KeyLatencyMatrix)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VStore.Put(monitor.KeyLatencyMatrix, b); err != nil || monitor.AheadPending(s.VStore) != 0 {
			t.Fatalf("seed %d: a put after Close queued a decode (err %v)", seed, err)
		}
	}
	session(1) // starts the process-wide workers
	base := runtime.NumGoroutine()
	for seed := uint64(2); seed <= 21; seed++ {
		session(seed)
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("after %d sessions: %d goroutines, %d after the first", seed, n, base)
		}
	}
	t.Logf("%d of 21 sessions closed with a decode queued or running", busy)

	t.Run("QueuedReadDecodesInline", func(t *testing.T) {
		matrix := func(ms int) []byte {
			b, err := json.Marshal([]metrics.PairLatency{{U: 0, V: 1, Last: time.Duration(ms) * time.Millisecond}})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		layer := func() *monitor.DecodeAhead {
			a := monitor.NewDecodeAhead(store.Version(store.NewMem()))
			if err := a.Put(monitor.KeyLatencyMatrix, matrix(1)); err != nil {
				t.Fatal(err)
			}
			if _, err := monitor.ReadLatencyMatrix(a); err != nil {
				t.Fatal(err)
			}
			return a
		}
		// The worker holds the first layer's decode until release.
		busy, other := layer(), layer()
		started, release := make(chan struct{}), make(chan struct{})
		defer func() {
			close(release)
			busy.Close()
			other.Close()
		}()
		monitor.ObserveDecodes(busy, func(string, []byte, any, uint64) {
			close(started)
			<-release
		})
		if err := busy.Put(monitor.KeyLatencyMatrix, matrix(2)); err != nil {
			t.Fatal(err)
		}
		<-started
		if err := other.Put(monitor.KeyLatencyMatrix, matrix(3)); err != nil || monitor.AheadPending(other) != 1 {
			t.Fatalf("the second layer's decode was not queued (err %v)", err)
		}
		read := make(chan error, 1)
		go func() {
			_, err := monitor.ReadLatencyMatrix(other)
			read <- err
		}()
		select {
		case err := <-read:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a read waited on a decode still queued behind another layer's")
		}
		if hits, waits, misses, _ := monitor.AheadCounts(other); hits+waits != 0 || misses != 2 {
			t.Fatalf("second layer: %d hits, %d waits, %d misses; want both reads inline", hits, waits, misses)
		}
	})
}
