package simtime

import (
	"runtime"
	"sync"
)

// The run-ahead workers compute, off a loop's goroutine, what the loop
// reads later: a world's background frames, the decode of a published
// pair matrix. The process has one set of them, one per processor
// (GOMAXPROCS at the first task), started once and never stopped. A task
// keeps nothing of a worker, so whatever queued it is garbage once its
// tasks have ended, and nothing needs closing. A task must not wait for
// another task.
//
// aheadTasks is the workers' one queue. A world has at most one fill
// queued or running, and a monitor.DecodeAhead one live decode a key.
var (
	aheadTasks = make(chan Task, 64)
	startAhead sync.Once
)

// Task is work for the run-ahead workers. A task is its own state, so
// queueing one allocates nothing.
type Task interface{ Run() }

// aheadQueue starts the workers with the first task.
func aheadQueue() chan<- Task {
	startAhead.Do(func() {
		for range runtime.GOMAXPROCS(0) {
			go func() {
				for task := range aheadTasks {
					task.Run()
				}
			}()
		}
	})
	return aheadTasks
}

// Ahead queues task for the run-ahead workers, waiting while the queue
// is full.
func Ahead(task Task) { aheadQueue() <- task }

// TryAhead queues task for the run-ahead workers unless the queue is
// full, and reports whether it did.
func TryAhead(task Task) bool {
	select {
	case aheadQueue() <- task:
		return true
	default:
		return false
	}
}
