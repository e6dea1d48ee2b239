// Package sim is the discrete-event simulation core: a deterministic
// event loop over the virtual clock (internal/simtime) plus a
// capacity-fidelity scenario runner that schedules job arrival, start,
// and finish events against a workload spec (internal/loadgen) — months
// of submitted traffic replayed in seconds of wall time, bit-for-bit
// reproducible from a seed. The harness's full-stack experiments advance
// the same scheduler, so the two can be cross-checked event-for-event.
package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"strconv"
	"time"

	"nlarm/internal/simtime"
)

// ErrPastEvent is returned when an event is scheduled before the
// loop's current virtual time. The underlying scheduler would clamp such
// an event to "now" — silently reordering it relative to the caller's
// intent — so the loop refuses instead.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// ErrDrained is returned when the loop runs out of events before a run
// condition is met.
var ErrDrained = errors.New("sim: event queue drained")

// Loop is a deterministic discrete-event loop on top of a
// simtime.Scheduler: a priority queue keyed by virtual time with stable
// same-instant tie-breaking (schedule order). On top of the raw
// scheduler it adds strict scheduling (past events are errors, not
// clamps), a fired-event log, and a running SHA-256 digest of that log
// for determinism checks. Drive it from one goroutine.
type Loop struct {
	sched *simtime.Scheduler
	start time.Time
	fired uint64
	last  time.Time
	hash  hash.Hash
	line  []byte    // reused log-line buffer (see record)
	logW  io.Writer // optional mirror of the event log
	err   error     // first log-write error
}

// NewLoop wraps sched. Events already pending on sched still fire; the
// loop only logs and digests events scheduled through it.
func NewLoop(sched *simtime.Scheduler) *Loop {
	now := sched.Now()
	return &Loop{sched: sched, start: now, last: now, hash: sha256.New()}
}

// SetLog mirrors the event log (one line per fired event: index, offset
// from loop start, name) to w. Pass nil to stop mirroring.
func (l *Loop) SetLog(w io.Writer) { l.logW = w }

// Now returns the current virtual time.
func (l *Loop) Now() time.Time { return l.sched.Now() }

// Scheduler exposes the underlying virtual clock, e.g. to hand to
// components that take a simtime.Runtime.
func (l *Loop) Scheduler() *simtime.Scheduler { return l.sched }

// record appends one fired event to the log and digest. The line is
// built with strconv into a reused buffer — byte-identical to the
// original fmt.Sprintf("%d %.9f %s\n", ...) formatting (both delegate
// to the same strconv conversions), without the four allocations per
// event that dominated million-job runs.
func (l *Loop) record(now time.Time, name string) {
	l.fired++
	l.last = now
	b := l.line[:0]
	b = strconv.AppendUint(b, l.fired, 10)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, now.Sub(l.start).Seconds(), 'f', 9, 64)
	b = append(b, ' ')
	b = append(b, name...)
	b = append(b, '\n')
	l.line = b
	l.hash.Write(b)
	if l.logW != nil {
		if _, err := l.logW.Write(b); err != nil && l.err == nil {
			l.err = err
		}
	}
}

// ScheduleAt schedules fn once at the instant at. Unlike the raw
// scheduler it returns ErrPastEvent when at is before the current
// virtual time instead of clamping.
func (l *Loop) ScheduleAt(at time.Time, name string, fn func(now time.Time)) (simtime.CancelFunc, error) {
	if now := l.sched.Now(); at.Before(now) {
		return nil, fmt.Errorf("%w: %q at %v, now %v", ErrPastEvent, name, at, now)
	}
	return l.sched.At(at, name, func(now time.Time) {
		l.record(now, name)
		fn(now)
	}), nil
}

// ScheduleAfter schedules fn once after d. A negative d is ErrPastEvent;
// zero is allowed and fires at the current instant after events already
// queued there.
func (l *Loop) ScheduleAfter(d time.Duration, name string, fn func(now time.Time)) (simtime.CancelFunc, error) {
	if d < 0 {
		return nil, fmt.Errorf("%w: %q after %v", ErrPastEvent, name, d)
	}
	return l.ScheduleAt(l.sched.Now().Add(d), name, fn)
}

// ScheduleEvery schedules fn every period, first at Now()+period. A
// non-positive period is an error.
func (l *Loop) ScheduleEvery(period time.Duration, name string, fn func(now time.Time)) (simtime.CancelFunc, error) {
	if period <= 0 {
		return nil, fmt.Errorf("sim: ScheduleEvery(%v) for %q: period must be positive", period, name)
	}
	return l.sched.Every(period, name, func(now time.Time) {
		l.record(now, name)
		fn(now)
	}), nil
}

// Step fires the single earliest pending event; it reports whether one
// fired.
func (l *Loop) Step() bool { return l.sched.Step() }

// RunUntil fires all events up to deadline in order and advances the
// clock to it, returning the number fired.
func (l *Loop) RunUntil(deadline time.Time) int { return l.sched.RunUntil(deadline) }

// RunUntilIdle fires events until the queue drains, erroring if more
// than maxEvents fire (a runaway guard for scenarios with self-renewing
// event chains; maxEvents <= 0 means no bound). It returns the number of
// events fired.
func (l *Loop) RunUntilIdle(maxEvents uint64) (uint64, error) {
	var n uint64
	for l.sched.Step() {
		n++
		if maxEvents > 0 && n > maxEvents {
			return n, fmt.Errorf("sim: RunUntilIdle exceeded %d events at %v", maxEvents, l.sched.Now())
		}
	}
	return n, nil
}

// EventsFired returns how many loop-scheduled events have fired.
func (l *Loop) EventsFired() uint64 { return l.fired }

// LastFired returns the virtual time of the most recent loop event (the
// loop start before any fired). Loop events fire in non-decreasing
// virtual time, so this is also the maximum over all fired events.
func (l *Loop) LastFired() time.Time { return l.last }

// Digest returns the hex SHA-256 of the fired-event log so far. Two
// same-seed runs must produce equal digests at every point.
func (l *Loop) Digest() string { return hex.EncodeToString(l.hash.Sum(nil)) }

// Err returns the first event-log write error, if any.
func (l *Loop) Err() error { return l.err }
