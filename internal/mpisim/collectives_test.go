package mpisim

import (
	"math"
	"testing"
	"time"
)

func collEnv() flatEnv {
	return flatEnv{cores: 12, freq: 4.6, bwBps: 100e6, latency: 100 * time.Microsecond}
}

func cost(nodes int, bytes float64) time.Duration {
	ids := make([]int, nodes)
	for i := range ids {
		ids[i] = i
	}
	return allreduceCost(collEnv(), ids, bytes, 1)
}

func TestAllreduceLogScaling(t *testing.T) {
	// Latency-bound allreduce: cost grows with ceil(log2 p).
	c2 := cost(2, 8)
	c8 := cost(8, 8)
	c16 := cost(16, 8)
	if r := float64(c8) / float64(c2); math.Abs(r-3) > 0.01 {
		t.Fatalf("8/2-node allreduce ratio %g, want 3 (log2 8 / log2 2)", r)
	}
	if r := float64(c16) / float64(c8); math.Abs(r-4.0/3) > 0.01 {
		t.Fatalf("16/8 allreduce ratio %g, want 4/3", r)
	}
}

func TestAllreduceExactCost(t *testing.T) {
	// 8 nodes: 3 stages x (100µs + 1e6/100e6 s) = 3 x 10.1ms = 30.3ms.
	got := cost(8, 1e6)
	want := 3 * (100e-6 + 0.01)
	if math.Abs(got.Seconds()-want) > 1e-6 {
		t.Fatalf("allreduce cost %v, want %gs", got, want)
	}
}

func TestSingleNodeCollectiveIsSharedMemory(t *testing.T) {
	got := cost(1, 4e9)
	// 4GB over the 4GB/s shared-memory model = 1s; no network term.
	if math.Abs(got.Seconds()-1) > 1e-9 {
		t.Fatalf("single-node collective %v", got)
	}
}

func TestCollectiveErrors(t *testing.T) {
	ok := func() *Shape {
		return &Shape{Name: "coll", Ranks: 2, Iterations: 1, RefFreqGHz: 1, CollectivesPerIter: 1, CollectiveBytes: 8}
	}
	place, err := NewPlacement(2, []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewJob(1, ok(), place, t0); err != nil {
		t.Fatal(err)
	}
	if _, err := NewJob(1, ok(), Placement{}, t0); err == nil {
		t.Fatal("empty node set accepted")
	}
	negBytes := ok()
	negBytes.CollectiveBytes = -1
	negCount := ok()
	negCount.CollectivesPerIter = -1
	for _, s := range []*Shape{negBytes, negCount} {
		if err := s.Validate(); err == nil {
			t.Fatalf("negative allreduce accepted: %d x %g bytes", s.CollectivesPerIter, s.CollectiveBytes)
		}
		if _, err := NewJob(1, s, place, t0); err == nil {
			t.Fatalf("NewJob accepted %d x %g-byte allreduces", s.CollectivesPerIter, s.CollectiveBytes)
		}
	}
}

func TestCollectiveDegradedNetwork(t *testing.T) {
	good := collEnv()
	bad := collEnv()
	bad.latency = 2 * time.Millisecond
	bad.bwBps = 5e6
	nodes := []int{0, 1, 2, 3}
	g := allreduceCost(good, nodes, 1e6, 1)
	b := allreduceCost(bad, nodes, 1e6, 1)
	if b < g*5 {
		t.Fatalf("degraded network barely hurts collectives: %v -> %v", g, b)
	}
}

func TestCollectivesCostAggregates(t *testing.T) {
	// n allreduces per iteration cost n times one, rounded to a Duration
	// before the sum: the comm phase of a shape with no P2P is exactly that.
	shape := &Shape{Name: "coll", Ranks: 8, Iterations: 1, RefFreqGHz: 4.6, CollectivesPerIter: 3, CollectiveBytes: 8}
	j := makeJob(t, shape, []int{0, 1, 2, 3}, 2)
	if got, want := j.commSecPerIter(collEnv()), (3 * cost(4, 8)).Seconds(); got != want {
		t.Fatalf("3 allreduces cost %gs, want %gs", got, want)
	}
}
