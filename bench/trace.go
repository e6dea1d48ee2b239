package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nlarm/internal/monitor"
	"nlarm/internal/simtime"
)

// span is one traced interval at a layer boundary. Times are
// nanoseconds since the tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// interval is a half-open [start, end) stretch of nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the part of parent that none of its children cover: the
// parent's length minus the union of the children clipped to it.
// Children may overlap each other (concurrent requests under one phase)
// and may stick out of the parent.
func selfTime(parent interval, kids []interval) int64 {
	total := parent.end - parent.start
	if total <= 0 {
		return 0
	}
	ks := make([]interval, 0, len(kids))
	for _, k := range kids {
		if k.start < parent.start {
			k.start = parent.start
		}
		if k.end > parent.end {
			k.end = parent.end
		}
		if k.end > k.start {
			ks = append(ks, k)
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].start < ks[j].start })
	covered, edge := int64(0), parent.start
	for _, k := range ks {
		if k.start > edge {
			edge = k.start
		}
		if k.end > edge {
			covered += k.end - edge
			edge = k.end
		}
	}
	return total - covered
}

// layerAgg accumulates every span of one family (the span name up to
// its first '/', so "nodestated/17" counts under "nodestated").
type layerAgg struct {
	count  int64
	busyNS int64 // sum of span lengths
	selfNS int64 // sum of span self times
	bytes  int64
}

// maxKeptSpans bounds the spans kept for the output file; the
// aggregates always cover every span.
const maxKeptSpans = 50_000

// tracer records spans in memory. Structured spans (scopes) are opened
// by single-threaded callers only — the scheduler's callbacks, the
// benchmark's phases, in-process requests — and become the parent of
// whatever is recorded while they are open; leaf spans (store
// operations, probes, concurrent client requests) attach to the open
// scope without changing it.
type tracer struct {
	epoch time.Time
	cur   atomic.Int64 // id of the innermost open scope, 0 for none

	mu      sync.Mutex
	nextID  int64
	spans   []span
	dropped int64
	agg     map[string]*layerAgg
	open    map[int64]*scope
}

// scope is an open structured span.
type scope struct {
	t      *tracer
	sp     span
	outer  int64
	kids   []interval
	closed bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), agg: make(map[string]*layerAgg), open: make(map[int64]*scope)}
}

func family(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// enter opens a scope named name; req tags the request it belongs to
// (0 for none). Call exit on the result from the same goroutine.
func (t *tracer) enter(name string, req int64) *scope {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.nextID++
	s := &scope{t: t, outer: t.cur.Load()}
	s.sp = span{ID: t.nextID, Parent: s.outer, Req: req, Name: name, Start: now}
	t.open[s.sp.ID] = s
	t.mu.Unlock()
	t.cur.Store(s.sp.ID)
	return s
}

// exit closes the scope and restores its parent as the current one.
func (s *scope) exit() {
	if s.closed {
		return
	}
	s.closed = true
	t := s.t
	s.sp.End = time.Since(t.epoch).Nanoseconds()
	t.cur.Store(s.outer)
	t.mu.Lock()
	delete(t.open, s.sp.ID)
	self := selfTime(interval{s.sp.Start, s.sp.End}, s.kids)
	t.finishLocked(s.sp, self, 0)
	t.mu.Unlock()
}

// record stores a finished leaf span that started at start and ends
// now, under the currently open scope.
func (t *tracer) record(name string, req int64, start time.Time, bytes int) {
	end := time.Since(t.epoch).Nanoseconds()
	st := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.nextID++
	sp := span{ID: t.nextID, Parent: t.cur.Load(), Req: req, Name: name, Start: st, End: end}
	t.finishLocked(sp, end-st, int64(bytes))
	t.mu.Unlock()
}

func (t *tracer) finishLocked(sp span, selfNS, bytes int64) {
	if p := t.open[sp.Parent]; p != nil {
		p.kids = append(p.kids, interval{sp.Start, sp.End})
	}
	a := t.agg[family(sp.Name)]
	if a == nil {
		a = &layerAgg{}
		t.agg[family(sp.Name)] = a
	}
	a.count++
	a.busyNS += sp.End - sp.Start
	a.selfNS += selfNS
	a.bytes += bytes
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
}

// total is the number of spans recorded so far.
func (t *tracer) total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextID
}

// layer returns a copy of one family's totals.
func (t *tracer) layer(fam string) layerAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[fam]; a != nil {
		return *a
	}
	return layerAgg{}
}

// writeSpans writes the kept spans as JSON lines, preceded by one header
// line saying how many were dropped.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans, dropped := t.spans, t.dropped
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]int64{"kept": int64(len(spans)), "dropped": dropped})
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(&spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span file %s: %w", path, err)
	}
	return nil
}

// tracedStore times every store operation the daemons and the broker
// make. It keeps the generation view, so the broker still takes its
// delta-refresh path through it.
type tracedStore struct {
	monitor.GenSource
	tr *tracer
}

func (s tracedStore) Put(key string, value []byte) error {
	t0 := time.Now()
	err := s.GenSource.Put(key, value)
	s.tr.record("store.put", 0, t0, len(value))
	return err
}

func (s tracedStore) Get(key string) ([]byte, error) {
	t0 := time.Now()
	v, err := s.GenSource.Get(key)
	s.tr.record("store.get", 0, t0, len(v))
	return v, err
}

func (s tracedStore) List(prefix string) ([]string, error) {
	t0 := time.Now()
	keys, err := s.GenSource.List(prefix)
	s.tr.record("store.list", 0, t0, 0)
	return keys, err
}

func (s tracedStore) Generations(prefixes ...string) map[string]uint64 {
	t0 := time.Now()
	g := s.GenSource.Generations(prefixes...)
	s.tr.record("store.generations", 0, t0, 0)
	return g
}

// tracedRuntime wraps every scheduled callback in a scope named after
// the activity (the daemon name, or "world.step").
type tracedRuntime struct {
	simtime.Runtime
	tr *tracer
}

func (r tracedRuntime) wrap(name string, fn func(time.Time)) func(time.Time) {
	return func(now time.Time) {
		s := r.tr.enter(name, 0)
		fn(now)
		s.exit()
	}
}

func (r tracedRuntime) Every(period time.Duration, name string, fn func(now time.Time)) simtime.CancelFunc {
	return r.Runtime.Every(period, name, r.wrap(name, fn))
}

func (r tracedRuntime) After(d time.Duration, name string, fn func(now time.Time)) simtime.CancelFunc {
	return r.Runtime.After(d, name, r.wrap(name, fn))
}

// tracedProber times the daemons' measurements of the simulated world,
// so the substrate's cost is not booked to the monitor.
type tracedProber struct {
	monitor.Prober
	tr *tracer
}

func (p tracedProber) Ping(id int) bool {
	t0 := time.Now()
	ok := p.Prober.Ping(id)
	p.tr.record("world.probe", 0, t0, 0)
	return ok
}

func (p tracedProber) SampleNode(id int) (monitor.NodeSample, error) {
	t0 := time.Now()
	s, err := p.Prober.SampleNode(id)
	p.tr.record("world.probe", 0, t0, 0)
	return s, err
}

func (p tracedProber) MeasureLatency(u, v int) (time.Duration, error) {
	t0 := time.Now()
	d, err := p.Prober.MeasureLatency(u, v)
	p.tr.record("world.probe", 0, t0, 0)
	return d, err
}

func (p tracedProber) MeasureBandwidth(u, v int) (float64, float64, error) {
	t0 := time.Now()
	a, pk, err := p.Prober.MeasureBandwidth(u, v)
	p.tr.record("world.probe", 0, t0, 0)
	return a, pk, err
}
