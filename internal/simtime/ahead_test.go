package simtime

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// taskFunc is a Task that calls itself.
type taskFunc func()

func (f taskFunc) Run() { f() }

// ringFill is a world's fill as the run-ahead workers see it: it writes
// batches while its ring of ringFillBatches has a free one, then parks;
// its world frees the batches before the one it takes, queues a parked
// fill again once half the ring is free, and waits for the batch.
type ringFill struct {
	mu       sync.Mutex
	cond     sync.Cond
	filled   int
	released int
	running  bool
}

const ringFillBatches = 8

func (f *ringFill) Run() {
	f.mu.Lock()
	for f.filled < f.released+ringFillBatches {
		f.filled++
		f.cond.Signal()
	}
	f.running = false
	f.cond.Signal()
	f.mu.Unlock()
}

func (f *ringFill) take(t int) {
	f.mu.Lock()
	f.released = t
	if !f.running && 2*(t+ringFillBatches-f.filled) >= ringFillBatches {
		f.running = true
		f.mu.Unlock()
		Ahead(f)
		f.mu.Lock()
	}
	for f.filled <= t {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// TestRunAheadNeverDeadlocks queues world-like fills and matrix-like
// decodes on the run-ahead workers from many goroutines at once. A world
// keeps one fill queued or running, and waits for each batch it takes;
// more worlds than the queue holds make Ahead wait. A decoder waits for
// its decode once a worker has started it, and drops it and decodes
// inline while it is queued or when the queue is full. Run at -cpu 1,
// every task shares one worker, and every fill and every read must still
// end.
func TestRunAheadNeverDeadlocks(t *testing.T) {
	var wg sync.WaitGroup
	var taken, waited, inline atomic.Int64
	for range 80 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := &ringFill{running: true}
			f.cond.L = &f.mu
			Ahead(f)
			for batch := range 50 {
				f.take(batch)
				taken.Add(1)
			}
		}()
	}
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			type job struct {
				started bool
				done    chan struct{}
			}
			var mu sync.Mutex
			var held *job
			for range 200 {
				j := &job{done: make(chan struct{})}
				mu.Lock()
				held = j
				mu.Unlock()
				queued := TryAhead(taskFunc(func() {
					mu.Lock()
					if held != j {
						mu.Unlock()
						return
					}
					j.started = true
					mu.Unlock()
					close(j.done)
				}))
				runtime.Gosched() // as a reader comes some time after the put
				mu.Lock()
				if queued && j.started {
					mu.Unlock()
					<-j.done
					waited.Add(1)
					continue
				}
				held = nil
				mu.Unlock()
				inline.Add(1)
			}
		}()
	}
	ended := make(chan struct{})
	go func() {
		wg.Wait()
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(time.Minute):
		t.Fatalf("deadlock: %d batches taken, %d decodes waited for, %d inline", taken.Load(), waited.Load(), inline.Load())
	}
	t.Logf("%d batches taken, %d decodes waited for, %d inline", taken.Load(), waited.Load(), inline.Load())
}
