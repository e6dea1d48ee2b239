package simtime

import (
	"reflect"
	"testing"
	"time"

	"nlarm/internal/rng"
)

// instantPool draws the instants the order tests schedule at: the zero
// time, year 9999, instants outside UnixNano's 1678–2262 range, one
// before the zero time (clamped to the start), the same instant in UTC
// and in fixed zones, and random instants with neighbours 1–2 ns away.
func instantPool(r *rng.Rand) []time.Time {
	ist := time.FixedZone("IST", 5*3600+1800)
	west := time.FixedZone("", -(3*3600 + 15*60))
	t2020 := time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)
	last := time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC)
	pool := []time.Time{
		{}, time.Time{}.Add(1), last, last.In(ist), last.Add(-1), time.Date(9999, 1, 1, 0, 0, 0, 0, west),
		t2020, t2020.In(ist), t2020.In(west), time.Date(2020, 3, 2, 13, 30, 0, 0, ist), t2020.Add(1), t2020.Add(-1),
		time.Date(1600, 6, 1, 0, 0, 0, 5, time.UTC), time.Date(2300, 6, 1, 0, 0, 0, 5, ist),
		time.Date(-5, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	for i := 0; i < 24; i++ {
		t := time.Date(1+r.Intn(9999), time.Month(1+r.Intn(12)), 1+r.Intn(28), r.Intn(24), r.Intn(60), r.Intn(60),
			r.Intn(1e9), time.UTC)
		pool = append(pool, t, t.Add(time.Duration(1+r.Intn(2))), t.In(ist))
	}
	return pool
}

// refLess is the order the scheduler must keep: time.Time's own Before
// and Equal, then the schedule sequence.
func refLess(a, b time.Time, aseq, bseq uint64) bool {
	if !a.Equal(b) {
		return a.Before(b)
	}
	return aseq < bseq
}

// TestEventLessMatchesTime checks eventLess pair by pair: it agrees with
// refLess on every pair of pool instants, ties included.
func TestEventLessMatchesTime(t *testing.T) {
	pool := instantPool(rng.New(3))
	for i, a := range pool {
		for j, b := range pool {
			ea := &event{at: a, seq: uint64(i % 3)}
			eb := &event{at: b, seq: uint64(j % 3)}
			if got, want := eventLess(ea, eb), refLess(a, b, ea.seq, eb.seq); got != want {
				t.Fatalf("eventLess(%v #%d, %v #%d) = %v, want %v", a, ea.seq, b, eb.seq, got, want)
			}
		}
	}
}

// refEvent and refScheduler are a reference scheduler: a list scanned for
// the earliest live event under refLess, with Scheduler's clamping,
// sequence numbering and re-arming.
type refEvent struct {
	at     time.Time
	seq    uint64
	fn     func(time.Time)
	period time.Duration
	done   bool
}

type refScheduler struct {
	now    time.Time
	seq    uint64
	events []*refEvent
}

func (r *refScheduler) schedule(at time.Time, fn func(time.Time), period time.Duration) CancelFunc {
	if at.Before(r.now) {
		at = r.now
	}
	e := &refEvent{at: at, seq: r.seq, fn: fn, period: period}
	r.seq++
	r.events = append(r.events, e)
	return func() { e.done = true }
}

func (r *refScheduler) Now() time.Time { return r.now }

func (r *refScheduler) At(at time.Time, _ string, fn func(time.Time)) CancelFunc {
	return r.schedule(at, fn, 0)
}

func (r *refScheduler) After(d time.Duration, _ string, fn func(time.Time)) CancelFunc {
	return r.schedule(r.now.Add(d), fn, 0)
}

func (r *refScheduler) Every(d time.Duration, _ string, fn func(time.Time)) CancelFunc {
	return r.schedule(r.now.Add(d), fn, d)
}

func (r *refScheduler) head() *refEvent {
	var h *refEvent
	for _, e := range r.events {
		if !e.done && (h == nil || refLess(e.at, h.at, e.seq, h.seq)) {
			h = e
		}
	}
	return h
}

func (r *refScheduler) Step() bool {
	e := r.head()
	if e == nil {
		return false
	}
	r.now = e.at
	now := e.at
	if e.period > 0 {
		e.at = e.at.Add(e.period)
		e.seq = r.seq
		r.seq++
	} else {
		e.done = true
	}
	e.fn(now)
	return true
}

func (r *refScheduler) RunUntil(deadline time.Time) int {
	fired := 0
	for {
		if e := r.head(); e == nil || e.at.After(deadline) {
			if r.now.Before(deadline) {
				r.now = deadline
			}
			return fired
		}
		r.Step()
		fired++
	}
}

func (r *refScheduler) Pending() int {
	n := 0
	for _, e := range r.events {
		if !e.done {
			n++
		}
	}
	return n
}

// clock is what the order test drives: Scheduler, or the reference.
type clock interface {
	Now() time.Time
	At(time.Time, string, func(time.Time)) CancelFunc
	After(time.Duration, string, func(time.Time)) CancelFunc
	Every(time.Duration, string, func(time.Time)) CancelFunc
	Step() bool
	RunUntil(time.Time) int
	Pending() int
}

// orderLog is everything a schedule shows of the clock: each firing's
// event id and time, and each RunUntil's count, clock and pending events.
type orderLog struct {
	fired []fireRec
	runs  []runOutcome
}

type fireRec struct {
	id  int
	now time.Time
}

type runOutcome struct {
	fired, pending int
	now            time.Time
}

// runSchedule plays the seed's schedule on c. Phases each schedule a
// batch of events — At (twice as likely as the rest), After,
// self-cancelling Every, At cancelled at once, and cancels of earlier
// events — then run to a deadline drawn from the pool; some one-shot
// events schedule a child when they fire, at an offset that may be zero
// or negative. Every draw is made while
// scheduling, so both clocks see the same schedule.
func runSchedule(c clock, seed uint64) orderLog {
	r := rng.New(seed)
	pool := instantPool(r)
	var log orderLog
	var cancels []CancelFunc
	durations := []time.Duration{0, -time.Second, 1, time.Second, time.Hour}
	duration := func() time.Duration {
		if r.Intn(3) == 0 {
			return time.Duration(r.Intn(1e6)) * time.Second
		}
		return durations[r.Intn(len(durations))]
	}
	oneShot := func(id int) func(time.Time) {
		child, offset := -1, time.Duration(0)
		if r.Intn(4) == 0 {
			child, offset = len(cancels)+1_000_000, duration()
		}
		return func(now time.Time) {
			log.fired = append(log.fired, fireRec{id, now})
			if child >= 0 {
				c.At(now.Add(offset), "child", func(now time.Time) { log.fired = append(log.fired, fireRec{child, now}) })
			}
		}
	}
	for phase := 0; phase < 12; phase++ {
		for n := r.Intn(12); n > 0; n-- {
			id := len(cancels)
			var cancel CancelFunc
			switch r.Intn(6) {
			case 0:
				cancel = c.At(pool[r.Intn(len(pool))], "at", oneShot(id))
			case 1:
				c.At(pool[r.Intn(len(pool))], "at", oneShot(id))
			case 2:
				cancel = c.After(duration(), "after", oneShot(id))
			case 3:
				fires, limit := 0, 1+r.Intn(4)
				period := []time.Duration{1, time.Second, 90 * time.Minute}[r.Intn(3)]
				cancel = c.Every(period, "every", func(now time.Time) {
					log.fired = append(log.fired, fireRec{id, now})
					if fires++; fires == limit {
						cancels[id]()
					}
				})
			case 4:
				cancel = c.At(pool[r.Intn(len(pool))], "cancelled", oneShot(id))
				cancel()
			default:
				if id > 0 {
					if prev := cancels[r.Intn(id)]; prev != nil {
						prev()
					}
				}
			}
			cancels = append(cancels, cancel)
		}
		fired := c.RunUntil(pool[r.Intn(len(pool))])
		log.runs = append(log.runs, runOutcome{fired, c.Pending(), c.Now()})
	}
	for c.Step() {
	}
	log.runs = append(log.runs, runOutcome{-1, c.Pending(), c.Now()})
	return log
}

// TestSchedulerOrderMatchesReference fires random schedules through the
// Scheduler and the reference and requires the same firings, at the
// same time values, and the same clock after every RunUntil.
func TestSchedulerOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		got := runSchedule(NewScheduler(time.Time{}), seed)
		want := runSchedule(&refScheduler{}, seed)
		if len(want.fired) == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got.fired), len(want.fired)) {
				if got.fired[i] != want.fired[i] {
					t.Fatalf("seed %d: firing %d is %+v, want %+v", seed, i, got.fired[i], want.fired[i])
				}
			}
			t.Fatalf("seed %d: got %+v\nwant %+v", seed, got, want)
		}
	}
}
