package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.total")
	c.Inc()
	c.Add(4)
	if got := r.Counter("a.total").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("a.level")
	g.Set(2.5)
	if got := r.Gauge("a.level").Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 1, 10, 100)
	for _, v := range []float64{0.5, 1, 7, 50, 1000} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 1058.5 {
		t.Fatalf("sum = %g", s.Sum)
	}
	// buckets: <=1: {0.5, 1}, <=10: {7}, <=100: {50}, +Inf: {1000}
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	// Re-registration with different bounds keeps the original.
	if h2 := r.Histogram("lat", 7); h2 != h {
		t.Fatal("second registration replaced the histogram")
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(3)
	r.Emit(time.Unix(0, 0), "k", "d")
	if got := r.Events(); got != nil {
		t.Fatalf("nil registry events = %v", got)
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	if r.Render() != "" {
		t.Fatalf("nil registry render = %q", r.Render())
	}
}

func TestRenderDeterministicAndSorted(t *testing.T) {
	build := func(order []string) string {
		r := NewRegistry()
		for _, name := range order {
			r.Counter(name).Add(7)
		}
		r.Gauge("g.b").Set(2)
		r.Gauge("g.a").Set(1)
		r.Histogram("h.x", 1, 2).Observe(1.5)
		r.Emit(time.Unix(30, 0), "promotion", "centralmon/2")
		return r.Render()
	}
	a := build([]string{"c.z", "c.a", "c.m"})
	b := build([]string{"c.m", "c.z", "c.a"})
	if a != b {
		t.Fatalf("registration order changed render:\n%s\nvs\n%s", a, b)
	}
	wantOrder := []string{"counter c.a", "counter c.m", "counter c.z", "gauge g.a", "gauge g.b", "hist h.x", "event "}
	pos := -1
	for _, w := range wantOrder {
		i := strings.Index(a, w)
		if i < 0 || i < pos {
			t.Fatalf("render out of order (want %q after offset %d):\n%s", w, pos, a)
		}
		pos = i
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("n").Add(3)
	r.Histogram("h", 1).Observe(0.5)
	r.Emit(time.Unix(10, 0).UTC(), "kind", "detail")
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["n"] != 3 || s.Histograms["h"].Count != 1 || len(s.Events) != 1 {
		t.Fatalf("round trip lost data: %+v", s)
	}
}

func TestRingEvictionAndLast(t *testing.T) {
	r := NewRing[int](3)
	for i := 1; i <= 5; i++ {
		r.Append(i)
	}
	if got := r.Items(); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("items = %v, want [3 4 5]", got)
	}
	if got := r.Last(2); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("last(2) = %v, want [4 5]", got)
	}
	if got := r.Last(99); len(got) != 3 {
		t.Fatalf("last(99) = %v", got)
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Fatalf("len=%d total=%d", r.Len(), r.Total())
	}
	var nilRing *Ring[int]
	nilRing.Append(1)
	if nilRing.Items() != nil || nilRing.Len() != 0 || nilRing.Total() != 0 {
		t.Fatal("nil ring not inert")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(float64(i))
				r.Emit(time.Unix(int64(i), 0), "e", "")
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
	if got := r.Histogram("h").Sum(); got != 8*999*1000/2 {
		t.Fatalf("hist sum = %g, want %d", got, 8*999*1000/2)
	}
	if got := len(r.Events()); got != defaultEventCap {
		t.Fatalf("events retained = %d, want %d", got, defaultEventCap)
	}
}

func TestEventLogBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < defaultEventCap+10; i++ {
		r.Emit(time.Unix(int64(i), 0), "tick", "")
	}
	evs := r.Events()
	if len(evs) != defaultEventCap {
		t.Fatalf("retained %d events, want %d", len(evs), defaultEventCap)
	}
	if evs[0].At.Unix() != 10 {
		t.Fatalf("oldest retained event at %v, want t=10", evs[0].At)
	}
}
