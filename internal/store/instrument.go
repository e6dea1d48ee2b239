package store

import (
	"errors"
	"time"

	"nlarm/internal/obs"
)

// InstrumentedStore wraps a Store and records per-operation counts,
// error counts, injected-fault sightings, and latency histograms into an
// obs.Registry. The clock is injected so virtual-time runs stay
// deterministic (every op observed inside one scheduler callback records
// a zero duration, and two same-seed runs render identical metrics).
//
// Registry names:
//
//	store.<op>.count    counter — attempts, including failed ones
//	store.<op>.errors   counter — attempts that returned an error
//	store.<op>.injected counter — errors carrying ErrInjected (FaultStore)
//	store.<op>.seconds  histogram — per-attempt latency
type InstrumentedStore struct {
	inner Store
	reg   *obs.Registry
	now   func() time.Time
}

// Instrument wraps inner with op metrics recorded into reg (nil reg is a
// valid no-op registry). now supplies timestamps; nil means time.Now.
func Instrument(inner Store, reg *obs.Registry, now func() time.Time) *InstrumentedStore {
	if now == nil {
		now = time.Now
	}
	return &InstrumentedStore{inner: inner, reg: reg, now: now}
}

func (s *InstrumentedStore) observe(op Op, start time.Time, err error) {
	name := "store." + string(op)
	s.reg.Counter(name + ".count").Inc()
	s.reg.Histogram(name + ".seconds").Observe(s.now().Sub(start).Seconds())
	if err == nil {
		return
	}
	s.reg.Counter(name + ".errors").Inc()
	if errors.Is(err, ErrInjected) {
		s.reg.Counter(name + ".injected").Inc()
	}
}

// Put implements Store.
func (s *InstrumentedStore) Put(key string, value []byte) error {
	start := s.now()
	err := s.inner.Put(key, value)
	s.observe(OpPut, start, err)
	return err
}

// Get implements Store.
func (s *InstrumentedStore) Get(key string) ([]byte, error) {
	start := s.now()
	v, err := s.inner.Get(key)
	if errors.Is(err, ErrNotFound) {
		// Missing keys are a normal outcome (a daemon that has not
		// published yet), not a store failure.
		s.reg.Counter("store.get.count").Inc()
		s.reg.Counter("store.get.notfound").Inc()
		s.reg.Histogram("store.get.seconds").Observe(s.now().Sub(start).Seconds())
		return v, err
	}
	s.observe(OpGet, start, err)
	return v, err
}

// List implements Store.
func (s *InstrumentedStore) List(prefix string) ([]string, error) {
	start := s.now()
	keys, err := s.inner.List(prefix)
	s.observe(OpList, start, err)
	return keys, err
}

// Delete implements Store.
func (s *InstrumentedStore) Delete(key string) error {
	start := s.now()
	err := s.inner.Delete(key)
	s.observe(OpDelete, start, err)
	return err
}

// SyncFaults copies the FaultStore's fault and op counters into reg as
// gauges (store.faults.<kind>, store.faults.total, store.ops.<op>), so a
// metrics snapshot carries the injector's exact accounting alongside the
// wrapper's own observations. Call it before rendering; gauges are
// last-value-wins, so repeated syncs are idempotent.
func SyncFaults(fs *FaultStore, reg *obs.Registry) {
	if fs == nil || reg == nil {
		return
	}
	for _, kind := range []string{FaultPutError, FaultTornWrite, FaultGetError,
		FaultStaleRead, FaultListError, FaultPartition} {
		reg.Gauge("store.faults." + kind).Set(float64(fs.FaultCount(kind)))
	}
	reg.Gauge("store.faults.total").Set(float64(fs.TotalFaults()))
	for _, op := range []Op{OpPut, OpGet, OpList, OpDelete} {
		reg.Gauge("store.ops." + string(op)).Set(float64(fs.OpCount(op)))
	}
}

// Compile-time check.
var _ Store = (*InstrumentedStore)(nil)
