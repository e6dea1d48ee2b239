// Package simtime provides virtual time for the cluster simulation.
//
// The reproduction runs the paper's two-day monitoring traces and all
// strong-scaling experiments in milliseconds of wall time by driving every
// periodic activity (monitor daemons, background-load steps, MPI job
// progress) from a deterministic discrete-event Scheduler. The same
// components run against wall-clock time through RealRuntime, a Scheduler
// driven by the wall clock, which is what the cmd/ daemons use.
package simtime

import (
	"fmt"
	"sync"
	"time"

	"nlarm/internal/heapq"
)

// Runtime is the time abstraction shared by the simulated and real modes.
// Components that need to act periodically depend on this interface only.
type Runtime interface {
	// Now returns the current (virtual or wall) time.
	Now() time.Time
	// Every schedules fn to run every period, first at Now()+period.
	// The returned CancelFunc stops future invocations.
	Every(period time.Duration, name string, fn func(now time.Time)) CancelFunc
	// After schedules fn to run once at Now()+d.
	After(d time.Duration, name string, fn func(now time.Time)) CancelFunc
}

// CancelFunc stops a scheduled activity. It is idempotent.
type CancelFunc func()

// event is a single scheduled callback.
type event struct {
	at     time.Time
	seq    uint64 // tie-break so equal-time events fire in schedule order
	name   string
	fn     func(now time.Time)
	period time.Duration // 0 for one-shot
	done   bool
}

// eventLess orders events by (at, seq), a strict total order.
func eventLess(a, b *event) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

// Scheduler is a deterministic discrete-event scheduler. It is safe for
// concurrent scheduling, but RunUntil/Step must be called from one
// goroutine at a time. Callbacks run synchronously inside Step.
type Scheduler struct {
	mu    sync.Mutex
	now   time.Time
	seq   uint64
	queue []*event // a heapq min-heap under eventLess
}

// NewScheduler returns a scheduler whose virtual clock starts at start.
func NewScheduler(start time.Time) *Scheduler {
	return &Scheduler{now: start}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// scheduleLocked makes an event and queues it with s.mu held. Callers
// that derive the target from the current clock (After, Every) hold the
// lock across the Now() read and the heap insert — with two separate
// lock acquisitions a concurrent Step could advance the clock in between
// and the event would be silently clamped to a later instant.
func (s *Scheduler) scheduleLocked(at time.Time, name string, fn func(time.Time), period time.Duration) *event {
	if at.Before(s.now) {
		at = s.now
	}
	e := &event{at: at, seq: s.seq, name: name, fn: fn, period: period}
	s.seq++
	s.queue = heapq.Push(s.queue, e, eventLess)
	return e
}

func (s *Scheduler) cancel(e *event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.done = true
}

// At schedules fn to run once at time at (clamped to Now if in the past).
func (s *Scheduler) At(at time.Time, name string, fn func(now time.Time)) CancelFunc {
	s.mu.Lock()
	e := s.scheduleLocked(at, name, fn, 0)
	s.mu.Unlock()
	return func() { s.cancel(e) }
}

// After schedules fn to run once after d (a non-positive d fires at the
// current instant, after events already queued there).
func (s *Scheduler) After(d time.Duration, name string, fn func(now time.Time)) CancelFunc {
	s.mu.Lock()
	e := s.scheduleLocked(s.now.Add(d), name, fn, 0)
	s.mu.Unlock()
	return func() { s.cancel(e) }
}

// Every schedules fn to run every period, first at Now()+period.
// It panics if period <= 0.
func (s *Scheduler) Every(period time.Duration, name string, fn func(now time.Time)) CancelFunc {
	if period <= 0 {
		panic(fmt.Sprintf("simtime: Every(%v) for %q: period must be positive", period, name))
	}
	s.mu.Lock()
	e := s.scheduleLocked(s.now.Add(period), name, fn, period)
	s.mu.Unlock()
	return func() { s.cancel(e) }
}

// Step fires the single earliest pending event, advancing the virtual clock
// to its timestamp. It reports whether an event was fired.
func (s *Scheduler) Step() bool {
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return false
		}
		var e *event
		e, s.queue = heapq.Pop(s.queue, eventLess)
		if e.done {
			s.mu.Unlock()
			continue
		}
		s.now = e.at
		now, fn := e.at, e.fn
		if e.period > 0 {
			// Re-push the same event object so the CancelFunc's done flag
			// keeps covering all future occurrences.
			e.at = e.at.Add(e.period)
			e.seq = s.seq
			s.seq++
			s.queue = heapq.Push(s.queue, e, eventLess)
		}
		s.mu.Unlock()
		fn(now)
		return true
	}
}

// RunUntil fires all events with timestamps <= deadline in order and then
// advances the clock to deadline. It returns the number of events fired.
func (s *Scheduler) RunUntil(deadline time.Time) int {
	fired := 0
	for {
		s.mu.Lock()
		// Discard cancelled events at the head before peeking: a cancelled
		// event inside the deadline must not make Step fire the next LIVE
		// event, which may lie beyond the deadline (Step skips cancelled
		// entries internally and would run past the horizon).
		if e := s.headLocked(); e == nil || e.at.After(deadline) {
			if s.now.Before(deadline) {
				s.now = deadline
			}
			s.mu.Unlock()
			return fired
		}
		s.mu.Unlock()
		if s.Step() {
			fired++
		}
	}
}

// headLocked discards the cancelled events at the head of the queue and
// returns the earliest live one, or nil. Callers hold s.mu.
func (s *Scheduler) headLocked() *event {
	for len(s.queue) > 0 && s.queue[0].done {
		_, s.queue = heapq.Pop(s.queue, eventLess)
	}
	if len(s.queue) == 0 {
		return nil
	}
	return s.queue[0]
}

// RunFor is RunUntil(Now()+d).
func (s *Scheduler) RunFor(d time.Duration) int {
	return s.RunUntil(s.Now().Add(d))
}

// Pending returns the number of live scheduled events.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.queue {
		if !e.done {
			n++
		}
	}
	return n
}

// Compile-time checks that both time sources satisfy Runtime.
var (
	_ Runtime = (*Scheduler)(nil)
	_ Runtime = (*RealRuntime)(nil)
)
