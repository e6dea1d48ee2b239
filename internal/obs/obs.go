// Package obs is the zero-dependency instrumentation layer: a registry of
// named atomic counters, gauges, fixed-bucket histograms, and a bounded
// event log that the monitor daemons, store, broker, and job queue record
// into at runtime. It exists so the running system can be asked "what
// happened and why" (via the broker's "metrics"/"decisions" wire actions
// and the chaos report) instead of being re-run under the chaos harness.
//
// Design constraints:
//
//   - Zero dependencies beyond the standard library.
//   - Nil-safe: every method works on a nil *Registry (recording becomes
//     a cheap no-op), so instrumented components never need nil checks.
//   - Deterministic output: Render and Snapshot order every name
//     lexicographically, and all recorded values are pure functions of
//     the operations performed — under the simtime scheduler two
//     same-seed runs render byte-identical text.
//   - Safe for concurrent use: counters and gauges are single atomics,
//     histograms use atomic bucket counts, the registry map is mutex-
//     guarded only on first registration.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-value-wins float64 measurement.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultLatencyBuckets are the histogram bounds used when none are given:
// log-spaced seconds from 1µs to 10min, suiting both real store/RPC
// latencies and virtual-time queue waits.
func DefaultLatencyBuckets() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60, 600}
}

// Histogram counts observations into fixed buckets. Bounds are upper
// bounds (inclusive); one implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is a histogram's point-in-time state, JSON-exportable.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"` // bucket upper bounds; last bucket is +Inf
	Counts []uint64  `json:"counts"` // len(Bounds)+1
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.Sum(),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Event is one entry of the registry's bounded event log.
type Event struct {
	At     time.Time `json:"at"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail,omitempty"`
}

// defaultEventCap bounds the registry's event log.
const defaultEventCap = 256

// Registry holds named instruments. The zero value is not usable; use
// NewRegistry. A nil *Registry is valid everywhere and records nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	events   *Ring[Event]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		events:   NewRing[Event](defaultEventCap),
	}
}

// Counter returns the named counter, registering it on first use. On a
// nil registry it returns a detached counter whose updates are discarded.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use. Nil-safe
// like Counter.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it with the given
// bucket bounds on first use (DefaultLatencyBuckets when empty). Later
// calls ignore bounds — the first registration wins. Nil-safe.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Emit appends an event to the bounded event log (oldest entries are
// evicted past capacity). Nil-safe.
func (r *Registry) Emit(at time.Time, kind, detail string) {
	if r == nil {
		return
	}
	r.events.Append(Event{At: at, Kind: kind, Detail: detail})
}

// Events returns the retained events, oldest first.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events.Items()
}

// Snapshot is the registry's full point-in-time state, JSON-exportable
// (the payload of the broker's "metrics" wire action).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Events     []Event                      `json:"events,omitempty"`
}

// Snapshot captures every instrument's current value. Nil-safe (returns
// an empty snapshot).
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = h.snapshot()
	}
	s.Events = r.Events()
	return s
}

// Render formats the registry deterministically: one line per instrument,
// names sorted lexicographically within each section, then the event log
// in order. Two registries that recorded the same operations render
// byte-identically regardless of goroutine interleaving of the reads.
func (r *Registry) Render() string {
	return r.Snapshot().Render()
}

// Render formats the snapshot deterministically (see Registry.Render).
func (s *Snapshot) Render() string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter %s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge %s %g\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "hist %s count=%d sum=%g", name, h.Count, h.Sum)
		for i, c := range h.Counts {
			if i < len(h.Bounds) {
				fmt.Fprintf(&b, " le%g=%d", h.Bounds[i], c)
			} else {
				fmt.Fprintf(&b, " le+Inf=%d", c)
			}
		}
		b.WriteByte('\n')
	}
	for _, e := range s.Events {
		fmt.Fprintf(&b, "event %s %s", e.At.UTC().Format(time.RFC3339), e.Kind)
		if e.Detail != "" {
			fmt.Fprintf(&b, " %s", e.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
