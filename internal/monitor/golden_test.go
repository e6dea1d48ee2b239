package monitor

import (
	"bytes"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
	"time"

	"nlarm/internal/cluster"
	"nlarm/internal/metrics"
	"nlarm/internal/simtime"
	"nlarm/internal/store"
	"nlarm/internal/world"
)

// putHook calls onPut with every Put key and value, in call order, before
// passing the write on.
type putHook struct {
	store.Store
	onPut func(key string, value []byte)
}

func (s *putHook) Put(key string, value []byte) error {
	s.onPut(key, value)
	return s.Store.Put(key, value)
}

// goldenRun is what the golden rig — the default Manager on the 60-node
// paper cluster at seed 42, 20 virtual minutes at the paper's cadence —
// published.
type goldenRun struct {
	puts   int
	digest uint64 // FNV-1a over every Put key and value, in call order
	// decoded counts the records of each key family a reader decodes;
	// fellBack lists those decodeRecord refused.
	decoded  map[string]int
	fellBack []string
	// seeds holds, per family, the last value published (nodestate0: the
	// first node record).
	seeds map[string][]byte
}

// golden runs the rig once per test binary; three tests read it.
var golden = sync.OnceValue(func() goldenRun {
	cl, err := cluster.BuildIITK()
	if err != nil {
		panic(err)
	}
	sched := simtime.NewScheduler(t0)
	w := world.New(cl, world.Config{Seed: 42}, t0)
	stop := w.Attach(sched)
	defer stop()
	run := goldenRun{decoded: map[string]int{}, seeds: map[string][]byte{}}
	h := fnv.New64a()
	st := &putHook{Store: store.NewMem(), onPut: func(key string, value []byte) {
		h.Write([]byte(key))
		h.Write([]byte{0})
		h.Write(value)
		h.Write([]byte{0})
		run.puts++
		family, _, _ := strings.Cut(key, "/")
		if v := recordFor(family); v != nil {
			if !decodeRecord(value, v) {
				run.fellBack = append(run.fellBack, key+" "+string(value))
			}
			// Put does not keep value (the store.Store contract), so
			// neither may the hook: the daemons reuse their buffers.
			if run.decoded[family] == 0 && family == "nodestate" {
				run.seeds["nodestate0"] = bytes.Clone(value)
			}
			run.decoded[family]++
			run.seeds[family] = bytes.Clone(value)
		}
	}}
	mgr := NewManager(&WorldProber{W: w}, st, Config{})
	if err := mgr.Start(sched); err != nil {
		panic(err)
	}
	defer mgr.Stop()
	sched.RunFor(20 * time.Minute)
	run.digest = h.Sum64()
	return run
})

// recordFor returns a pointer to a zero value of the record type published
// under the key prefix family, or nil for a family no reader decodes.
func recordFor(family string) any {
	switch family {
	case "nodestate":
		return new(metrics.NodeAttrs)
	case "livehosts":
		return new(livehostsRecord)
	case "latency":
		return new([]metrics.PairLatency)
	case "bandwidth":
		return new([]metrics.PairBandwidth)
	case "heartbeat":
		return new(heartbeat)
	}
	return nil
}

// TestStoreContentGolden pins every byte the golden rig publishes: the
// running means, the matrices and their JSON encoding. A change to any
// of them fails here by name, before it shows up as a drifted experiment
// table.
func TestStoreContentGolden(t *testing.T) {
	const wantPuts, wantDigest = 29515, uint64(0xc200c382448e4116)
	if run := golden(); run.puts != wantPuts || run.digest != wantDigest {
		t.Fatalf("store content: %d puts, digest %#x; want %d puts, digest %#x",
			run.puts, run.digest, wantPuts, wantDigest)
	}
}

// TestStoreRecordsDecodeFast pins that every record the golden rig
// publishes under the five prefixes the readers decode takes the
// reflection-free path: without it, an encoder change could send every
// read to json.Unmarshal and only the benchmark would notice.
func TestStoreRecordsDecodeFast(t *testing.T) {
	run := golden()
	if len(run.fellBack) > 0 {
		t.Fatalf("%d records fell back to json.Unmarshal, the first: %s", len(run.fellBack), run.fellBack[0])
	}
	if len(run.decoded) != 5 {
		t.Fatalf("decoded families %v, want all five", run.decoded)
	}
}
