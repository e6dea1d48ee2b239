package monitor

import (
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"nlarm/internal/cluster"
	"nlarm/internal/simtime"
	"nlarm/internal/store"
	"nlarm/internal/world"
)

// hashStore folds every Put key and value, in call order, into one FNV-1a
// digest before passing the write on.
type hashStore struct {
	store.Store
	h    hash.Hash64
	puts int
}

func (s *hashStore) Put(key string, value []byte) error {
	s.h.Write([]byte(key))
	s.h.Write([]byte{0})
	s.h.Write(value)
	s.h.Write([]byte{0})
	s.puts++
	return s.Store.Put(key, value)
}

// TestStoreContentGolden pins every byte the monitor publishes on the
// 60-node paper cluster at seed 42 over 20 virtual minutes at the paper's
// cadence: the running means, the forecasts, the matrices and their JSON
// encoding. A change to any of them fails here by name, before it shows
// up as a drifted experiment table.
func TestStoreContentGolden(t *testing.T) {
	cl, err := cluster.BuildIITK()
	if err != nil {
		t.Fatal(err)
	}
	sched := simtime.NewScheduler(t0)
	w := world.New(cl, world.Config{Seed: 42}, t0)
	stop := w.Attach(sched)
	defer stop()
	st := &hashStore{Store: store.NewMem(), h: fnv.New64a()}
	mgr := NewManager(&WorldProber{W: w}, st, Config{})
	if err := mgr.Start(sched); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	sched.RunFor(20 * time.Minute)

	const wantPuts, wantDigest = 29515, uint64(0x48e2ba29f7382ade)
	if got := st.h.Sum64(); st.puts != wantPuts || got != wantDigest {
		t.Fatalf("store content: %d puts, digest %#x; want %d puts, digest %#x",
			st.puts, got, wantPuts, wantDigest)
	}
}
