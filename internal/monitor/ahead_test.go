package monitor

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"nlarm/internal/store"
)

// putLog is a store that remembers the values of the matrix puts that
// succeeded.
type putLog struct {
	store.Store
	mu sync.Mutex
	ok map[string]bool
}

func (p *putLog) Put(key string, value []byte) error {
	err := p.Store.Put(key, value)
	if err == nil && (key == KeyLatencyMatrix || key == KeyBandwidthMatrix) {
		p.mu.Lock()
		p.ok[string(value)] = true
		p.mu.Unlock()
	}
	return err
}

func (p *putLog) kept(b []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ok[string(b)]
}

// TestDecodeAheadUnderFaults runs one publishing sequence twice over a
// FaultStore that tears writes and serves stale reads of the matrix
// keys: once read through a DecodeAhead, once by a twin without it. The
// layer makes no store call of its own, so both see the same faults,
// and every refresh must serve the same snapshot and fingerprint. The
// workers decode only bytes a put that succeeded handed the store, and a
// reader takes its map only for the very bytes it read.
func TestDecodeAheadUnderFaults(t *testing.T) {
	var torn, stale uint64
	var hits, waits int
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			stack := func() (*store.FaultStore, *putLog, *store.VersionedStore) {
				fs := store.NewFault(store.NewMem(), seed+100)
				fs.SetScope(KeyLatencyMatrix, KeyBandwidthMatrix)
				log := &putLog{Store: fs, ok: map[string]bool{}}
				return fs, log, store.Version(log)
			}
			twinFS, _, twinV := stack()
			fs, log, v := stack()
			ahead := NewDecodeAhead(v)
			var bad []string
			var mu sync.Mutex
			ahead.observe = func(key string, b []byte, _ any, _ uint64) {
				if !log.kept(b) {
					mu.Lock()
					bad = append(bad, key)
					mu.Unlock()
				}
			}
			twinW := newCacheWorld(t, twinV, seed, 8)
			w := newCacheWorld(t, ahead, seed, 8)
			for _, f := range []*store.FaultStore{twinFS, fs} {
				f.SetRates(store.Rates{TornWrite: 0.25, StaleRead: 0.3})
			}
			twinW.lenient, w.lenient = true, true
			twin := NewSnapshotCache(twinV, nil, nil)
			cache := NewSnapshotCache(ahead, nil, nil)
			for step := 0; step < 120; step++ {
				twinW.mutate()
				w.mutate()
				if step%2 == 0 {
					// Let the workers end what they hold, so that reads are
					// served by their decodes too, not only inline.
					AheadSettle(ahead)
				}
				now := w.tick()
				twinW.tick()
				want, wantErr := twin.Refresh(now)
				got, err := cache.Refresh(now)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("step %d: refresh error %v, the twin's %v", step, err, wantErr)
				}
				if err != nil {
					continue
				}
				if got.FP != want.FP || !reflect.DeepEqual(got.Snap, want.Snap) {
					t.Fatalf("step %d: snapshot %x differs from the twin's %x", step, got.FP, want.FP)
				}
				if got.Incremental != want.Incremental || got.KeysReread != want.KeysReread {
					t.Fatalf("step %d: refresh %+v, the twin's %+v", step, got, want)
				}
			}
			AheadSettle(ahead)
			mu.Lock()
			defer mu.Unlock()
			if len(bad) > 0 {
				t.Fatalf("the workers decoded bytes no successful put kept: %v", bad)
			}
			h, wt, m, d := AheadCounts(ahead)
			t.Logf("%d hits, %d waits, %d misses, %d worker decodes; %d torn writes, %d stale reads",
				h, wt, m, d, fs.FaultCount(store.FaultTornWrite), fs.FaultCount(store.FaultStaleRead))
			hits, waits = hits+h, waits+wt
			torn += fs.FaultCount(store.FaultTornWrite)
			stale += fs.FaultCount(store.FaultStaleRead)
		})
	}
	if torn == 0 || stale == 0 || hits+waits == 0 {
		t.Fatalf("%d torn writes, %d stale reads, %d reads served by the workers: the test exercised nothing", torn, stale, hits+waits)
	}
}
