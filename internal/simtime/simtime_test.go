package simtime

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nlarm/internal/rng"
)

var epoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler(epoch)
	var order []int
	s.At(epoch.Add(3*time.Second), "c", func(time.Time) { order = append(order, 3) })
	s.At(epoch.Add(1*time.Second), "a", func(time.Time) { order = append(order, 1) })
	s.At(epoch.Add(2*time.Second), "b", func(time.Time) { order = append(order, 2) })
	s.RunUntil(epoch.Add(10 * time.Second))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fired in order %v", order)
	}
}

func TestSchedulerSameTimestampFIFO(t *testing.T) {
	s := NewScheduler(epoch)
	var order []string
	at := epoch.Add(time.Second)
	s.At(at, "first", func(time.Time) { order = append(order, "first") })
	s.At(at, "second", func(time.Time) { order = append(order, "second") })
	s.RunUntil(at)
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("same-time events fired as %v", order)
	}
}

func TestSchedulerClockAdvancesToEvent(t *testing.T) {
	s := NewScheduler(epoch)
	var sawNow time.Time
	s.After(5*time.Second, "x", func(now time.Time) { sawNow = now })
	s.RunUntil(epoch.Add(time.Minute))
	want := epoch.Add(5 * time.Second)
	if !sawNow.Equal(want) {
		t.Fatalf("callback saw now=%v, want %v", sawNow, want)
	}
	if !s.Now().Equal(epoch.Add(time.Minute)) {
		t.Fatalf("RunUntil left clock at %v", s.Now())
	}
}

func TestSchedulerEvery(t *testing.T) {
	s := NewScheduler(epoch)
	count := 0
	s.Every(time.Second, "tick", func(time.Time) { count++ })
	s.RunUntil(epoch.Add(10 * time.Second))
	if count != 10 {
		t.Fatalf("10s of 1s ticks fired %d times", count)
	}
}

func TestSchedulerEveryCancelStopsFutureTicks(t *testing.T) {
	s := NewScheduler(epoch)
	count := 0
	var cancel CancelFunc
	cancel = s.Every(time.Second, "tick", func(time.Time) {
		count++
		if count == 3 {
			cancel()
		}
	})
	s.RunUntil(epoch.Add(time.Minute))
	if count != 3 {
		t.Fatalf("cancelled periodic fired %d times, want 3", count)
	}
}

func TestSchedulerCancelOneShot(t *testing.T) {
	s := NewScheduler(epoch)
	fired := false
	cancel := s.After(time.Second, "x", func(time.Time) { fired = true })
	cancel()
	cancel() // idempotent
	s.RunUntil(epoch.Add(time.Minute))
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulerEveryPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	NewScheduler(epoch).Every(0, "bad", func(time.Time) {})
}

func TestSchedulerPastEventClampedToNow(t *testing.T) {
	s := NewScheduler(epoch)
	fired := false
	s.At(epoch.Add(-time.Hour), "past", func(time.Time) { fired = true })
	s.Step()
	if !fired {
		t.Fatal("past-scheduled event did not fire")
	}
	if s.Now().Before(epoch) {
		t.Fatal("clock moved backwards")
	}
}

func TestSchedulerRunUntilReturnsCount(t *testing.T) {
	s := NewScheduler(epoch)
	for i := 1; i <= 5; i++ {
		s.After(time.Duration(i)*time.Second, "e", func(time.Time) {})
	}
	if n := s.RunUntil(epoch.Add(3 * time.Second)); n != 3 {
		t.Fatalf("RunUntil fired %d events, want 3", n)
	}
	if n := s.RunUntil(epoch.Add(10 * time.Second)); n != 2 {
		t.Fatalf("second RunUntil fired %d events, want 2", n)
	}
}

func TestSchedulerStepEmptyQueue(t *testing.T) {
	s := NewScheduler(epoch)
	if s.Step() {
		t.Fatal("Step on empty queue reported an event")
	}
}

func TestSchedulerPending(t *testing.T) {
	s := NewScheduler(epoch)
	c1 := s.After(time.Second, "a", func(time.Time) {})
	s.After(2*time.Second, "b", func(time.Time) {})
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	c1()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", got)
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(epoch)
	var fired []string
	s.After(time.Second, "outer", func(now time.Time) {
		fired = append(fired, "outer")
		s.After(time.Second, "inner", func(time.Time) {
			fired = append(fired, "inner")
		})
	})
	s.RunUntil(epoch.Add(5 * time.Second))
	if len(fired) != 2 || fired[1] != "inner" {
		t.Fatalf("nested scheduling fired %v", fired)
	}
}

func TestSchedulerConcurrentScheduling(t *testing.T) {
	s := NewScheduler(epoch)
	var wg sync.WaitGroup
	var count int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.After(time.Duration(i+1)*time.Millisecond, "c", func(time.Time) {
					atomic.AddInt64(&count, 1)
				})
			}
		}(g)
	}
	wg.Wait()
	s.RunUntil(epoch.Add(time.Second))
	if count != 800 {
		t.Fatalf("fired %d of 800 concurrent events", count)
	}
}

func TestRealRuntimeEveryAndCancel(t *testing.T) {
	rt := NewRealRuntime()
	defer rt.Close()
	var count int64
	cancel := rt.Every(5*time.Millisecond, "tick", func(time.Time) {
		atomic.AddInt64(&count, 1)
	})
	deadline := time.Now().Add(2 * time.Second)
	for atomic.LoadInt64(&count) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if atomic.LoadInt64(&count) < 3 {
		t.Fatal("real ticker did not fire")
	}
	cancel()
	settled := atomic.LoadInt64(&count)
	time.Sleep(30 * time.Millisecond)
	if late := atomic.LoadInt64(&count) - settled; late > 1 {
		t.Fatalf("%d ticks after cancel", late)
	}
}

func TestRealRuntimeAfter(t *testing.T) {
	rt := NewRealRuntime()
	defer rt.Close()
	done := make(chan struct{})
	rt.After(time.Millisecond, "once", func(time.Time) { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("After never fired")
	}
}

func TestRealRuntimeCloseStopsAll(t *testing.T) {
	rt := NewRealRuntime()
	var count int64
	rt.Every(time.Millisecond, "tick", func(time.Time) { atomic.AddInt64(&count, 1) })
	time.Sleep(10 * time.Millisecond)
	rt.Close()
	settled := atomic.LoadInt64(&count)
	time.Sleep(20 * time.Millisecond)
	if late := atomic.LoadInt64(&count) - settled; late > 1 {
		t.Fatalf("%d ticks after Close", late)
	}
	// Post-close registrations are inert.
	cancel := rt.Every(time.Millisecond, "dead", func(time.Time) { t.Error("fired after close") })
	cancel()
	time.Sleep(5 * time.Millisecond)
}

// TestRunUntilCancelledHeadRespectsDeadline is a regression test for the
// event-loop wiring (PR 7): with a cancelled event inside the deadline at
// the head of the queue, RunUntil used to peek the cancelled entry, call
// Step, and fire the next LIVE event even when it lay beyond the deadline
// — advancing the virtual clock past the requested horizon.
func TestRunUntilCancelledHeadRespectsDeadline(t *testing.T) {
	s := NewScheduler(epoch)
	cancel := s.At(epoch.Add(10*time.Second), "cancelled", func(time.Time) {
		t.Fatal("cancelled event fired")
	})
	lateFired := false
	s.At(epoch.Add(30*time.Second), "late", func(time.Time) { lateFired = true })
	cancel()
	if fired := s.RunUntil(epoch.Add(20 * time.Second)); fired != 0 {
		t.Fatalf("RunUntil fired %d events, want 0", fired)
	}
	if lateFired {
		t.Fatal("event beyond the deadline fired")
	}
	if want := epoch.Add(20 * time.Second); !s.Now().Equal(want) {
		t.Fatalf("clock at %v, want %v", s.Now(), want)
	}
	// The late event is still pending and fires once the horizon reaches it.
	s.RunUntil(epoch.Add(40 * time.Second))
	if !lateFired {
		t.Fatal("late event lost")
	}
}

// TestAfterZeroDurationFiresInScheduleOrder pins the zero-duration timer
// semantics the sim event loop relies on: an After(0) fires at the
// current instant but AFTER events already queued there, and a zero-delay
// event scheduled from inside a callback fires after every previously
// scheduled same-instant event (schedule order, never reordered).
func TestAfterZeroDurationFiresInScheduleOrder(t *testing.T) {
	s := NewScheduler(epoch)
	var order []string
	s.After(0, "a", func(time.Time) {
		order = append(order, "a")
		s.After(0, "nested", func(time.Time) { order = append(order, "nested") })
	})
	s.After(0, "b", func(time.Time) { order = append(order, "b") })
	s.After(-time.Second, "clamped", func(now time.Time) {
		if !now.Equal(epoch) {
			t.Fatalf("negative After fired at %v, want clamp to %v", now, epoch)
		}
		order = append(order, "clamped")
	})
	s.RunUntil(epoch)
	want := []string{"a", "b", "clamped", "nested"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if !s.Now().Equal(epoch) {
		t.Fatalf("zero-duration events moved the clock to %v", s.Now())
	}
}

// TestEveryCancelInsideCallback verifies that a periodic activity
// cancelling itself from its own callback stops immediately: the
// occurrence re-pushed before the callback ran must be dropped.
func TestEveryCancelInsideCallback(t *testing.T) {
	s := NewScheduler(epoch)
	fires := 0
	var cancel CancelFunc
	cancel = s.Every(time.Second, "self-stop", func(time.Time) {
		fires++
		if fires == 2 {
			cancel()
		}
	})
	s.RunUntil(epoch.Add(time.Minute))
	if fires != 2 {
		t.Fatalf("self-cancelled ticker fired %d times, want 2", fires)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("%d events still pending after self-cancel", got)
	}
}

// TestAfterSchedulesAtomically exercises the single-lock After path under
// the race detector: concurrent schedulers and a stepping driver must
// never deliver a callback with a now before the scheduler's start.
func TestAfterSchedulesAtomically(t *testing.T) {
	s := NewScheduler(epoch)
	var wg sync.WaitGroup
	var bad atomic.Int32
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.After(time.Duration(i)*time.Millisecond, "conc", func(now time.Time) {
					if now.Before(epoch) {
						bad.Add(1)
					}
				})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.Step()
		}
	}()
	wg.Wait()
	<-done
	s.RunUntil(epoch.Add(time.Second))
	if bad.Load() != 0 {
		t.Fatalf("%d callbacks saw a pre-start now", bad.Load())
	}
}

// firing is one line of the log randomSchedulerRun records.
type firing struct {
	at   time.Duration // offset from epoch
	name string
}

// randomSchedulerRun schedules a seeded burst of interleaved one-shot
// and periodic events (plain, spawning a child, self-cancelling after a
// few ticks, piling zero-delay events on their own instant), steps the
// queue dry and returns what fired, in order.
func randomSchedulerRun(t *testing.T, seed uint64) []firing {
	t.Helper()
	s := NewScheduler(epoch)
	var log []firing
	logged := func(name string, fn func()) func(time.Time) {
		return func(now time.Time) {
			log = append(log, firing{now.Sub(epoch), name})
			if fn != nil {
				fn()
			}
		}
	}
	r := rng.New(seed)
	for i := 0; i < 200; i++ {
		d := time.Duration(r.Intn(5000)) * time.Millisecond
		name := fmt.Sprintf("one-%d", i)
		switch i % 4 {
		case 0: // plain one-shot
			s.After(d, name, logged(name, nil))
		case 1: // one-shot that spawns a child event
			s.After(d, name, logged(name, func() {
				s.After(time.Duration(r.Intn(1000))*time.Millisecond, name+"-child", logged(name+"-child", nil))
			}))
		case 2: // periodic, cancelled after a few fires
			fires := 0
			var cancel CancelFunc
			cancel = s.Every(time.Duration(1+r.Intn(500))*time.Millisecond, name, logged(name, func() {
				if fires++; fires >= 3 {
					cancel()
				}
			}))
		default: // same-instant pile-up: zero-delay chains
			s.After(d, name, logged(name, func() {
				s.After(0, name+"-now", logged(name+"-now", nil))
			}))
		}
	}
	steps := 0
	for s.Step() {
		if steps++; steps > 100000 {
			t.Fatalf("queue did not drain within %d events", steps)
		}
	}
	if steps != len(log) {
		t.Fatalf("scheduler fired %d events, log has %d", steps, len(log))
	}
	return log
}

func TestSchedulerVirtualTimeNonDecreasing(t *testing.T) {
	log := randomSchedulerRun(t, 42)
	if len(log) < 200 {
		t.Fatalf("only %d events fired", len(log))
	}
	for i := 1; i < len(log); i++ {
		if log[i].at < log[i-1].at {
			t.Fatalf("event %d (%s): virtual time went backwards: %v after %v", i, log[i].name, log[i].at, log[i-1].at)
		}
	}
}

func TestSchedulerSameSeedIdenticalLogs(t *testing.T) {
	log1, log2 := randomSchedulerRun(t, 7), randomSchedulerRun(t, 7)
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("same-seed firing logs differ (%d vs %d events)", len(log1), len(log2))
	}
	if reflect.DeepEqual(log1, randomSchedulerRun(t, 8)) {
		t.Fatal("different seeds produced the same firing log")
	}
}
