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

// TestRunAheadNeverDeadlocks queues world-like fills and matrix-like
// decodes on the run-ahead workers from many goroutines at once. A world
// keeps one fill queued or running and queues the next when it takes the
// last one's handover; more worlds than the queue holds make Ahead wait.
// A decoder waits for its decode once a worker has started it, and drops
// it and decodes inline while it is queued or when the queue is full.
// Run at -cpu 1, every task shares one worker, and every fill and every
// read must still end.
func TestRunAheadNeverDeadlocks(t *testing.T) {
	var wg sync.WaitGroup
	var fills, waited, inline atomic.Int64
	for range 80 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			handover := make(chan struct{}, 1)
			fill := taskFunc(func() { handover <- struct{}{} })
			Ahead(fill)
			for range 50 {
				<-handover
				fills.Add(1)
				Ahead(fill)
			}
			<-handover
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
		t.Fatalf("deadlock: %d fills taken, %d decodes waited for, %d inline", fills.Load(), waited.Load(), inline.Load())
	}
	t.Logf("%d fills taken, %d decodes waited for, %d inline", fills.Load(), waited.Load(), inline.Load())
}
