package simtime

import (
	"fmt"
	"sync"
	"time"
)

// RealRuntime implements Runtime against the wall clock: a Scheduler
// that one driver goroutine runs up to the wall clock whenever its
// earliest event is due, so the cmd/ daemons fire their events in the
// order every simulation does, one at a time, each with its event's
// instant. Between events the driver sleeps.
type RealRuntime struct {
	s    *Scheduler
	wake chan struct{} // an event was queued, perhaps before the driver's alarm
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewRealRuntime returns a wall-clock runtime with its driver running.
func NewRealRuntime() *RealRuntime {
	r := &RealRuntime{
		s:    NewScheduler(time.Now()),
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go r.drive()
	return r
}

// drive fires the events that are due, then sleeps until the next one
// is or a new one is queued.
func (r *RealRuntime) drive() {
	defer close(r.done)
	alarm := time.NewTimer(time.Hour)
	defer alarm.Stop()
	for {
		r.s.RunUntil(time.Now())
		wait := time.Hour
		r.s.mu.Lock()
		if e := r.s.headLocked(); e != nil {
			wait = time.Until(e.at)
		}
		r.s.mu.Unlock()
		alarm.Reset(wait)
		select {
		case <-alarm.C:
		case <-r.wake:
		case <-r.stop:
			return
		}
	}
}

// Now returns the wall-clock time.
func (r *RealRuntime) Now() time.Time { return time.Now() }

// Every runs fn on the driver every period, first at Now()+period, until
// cancelled.
func (r *RealRuntime) Every(period time.Duration, name string, fn func(now time.Time)) CancelFunc {
	if period <= 0 {
		panic(fmt.Sprintf("simtime: Every(%v) for %q: period must be positive", period, name))
	}
	return r.at(time.Now().Add(period), period, name, fn)
}

// After runs fn on the driver once at Now()+d unless cancelled.
func (r *RealRuntime) After(d time.Duration, name string, fn func(now time.Time)) CancelFunc {
	return r.at(time.Now().Add(d), 0, name, fn)
}

// at queues fn at the wall-clock instant at, repeating every period if
// that is positive, and wakes the driver.
func (r *RealRuntime) at(at time.Time, period time.Duration, name string, fn func(now time.Time)) CancelFunc {
	s := r.s
	s.mu.Lock()
	e := s.scheduleLocked(at, name, fn, period)
	s.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
	return func() { s.cancel(e) }
}

// Close stops the driver, after the event it is firing, so no event
// fires after Close returns. Callbacks must not call it.
func (r *RealRuntime) Close() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}
