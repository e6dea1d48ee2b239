package sim

import (
	"nlarm/internal/loadgen"
	"nlarm/internal/trace"
)

// A scenario runs as three stages: a producer goroutine that owns the
// WorkloadGen, the event loop on the caller's goroutine, and a consumer
// goroutine that owns the JobTraceWriter and turns the loop's integer
// nanoseconds into the trace's seconds. The end stages share nothing
// with the loop but the batches, which they take and return in the
// loop's order, so moving them off it changes no byte; a handoff costs
// one channel operation per batchLen entries, not one per job.
const (
	batchLen = 256
	ringLen  = 4
)

// ring is one direction of the handoff: ringLen batches circulate from
// free to full and back. Both channels hold every batch, so a send never
// blocks and only a receive waits for the other side.
type ring[T any] struct{ free, full chan []T }

// newRing makes a run's channels and fills free with bufs, the batches
// a runScratch keeps across runs, making those it does not have yet.
func newRing[T any](bufs *[ringLen][]T) ring[T] {
	r := ring[T]{make(chan []T, ringLen), make(chan []T, ringLen)}
	for i := range bufs {
		if bufs[i] == nil {
			bufs[i] = make([]T, 0, batchLen)
		}
		r.free <- bufs[i][:0]
	}
	return r
}

// start launches the producer and the consumer. The producer fills free
// batches with arrivals in generator order until the generator runs dry
// or join closes its free channel, then closes its full channel. The
// consumer writes every record batch it is sent, in order, flushes when
// its full channel closes, and keeps the first error.
func (s *scenario) start(gen *loadgen.WorkloadGen, tw *trace.JobTraceWriter) {
	s.arrivals, s.records = newRing(&s.rs.arrBufs), newRing(&s.rs.recBufs)
	s.recBatch = <-s.records.free
	s.stages.Add(2)
	go func(r ring[loadgen.Arrival]) {
		defer s.stages.Done()
		defer close(r.full)
		for b := range r.free {
			for b = b[:0]; len(b) < batchLen; {
				a, ok := gen.Next()
				if !ok {
					break
				}
				b = append(b, a)
			}
			if len(b) > 0 {
				r.full <- b
			}
			if len(b) < batchLen {
				return // the generator ran dry
			}
		}
	}(s.arrivals)
	go func(r ring[simJob]) {
		defer s.stages.Done()
		for b := range r.full {
			for i := range b {
				if err := tw.Write(b[i].record()); err != nil && s.writeErr == nil {
					s.writeErr = err
				}
			}
			r.free <- b[:0]
		}
		if s.writeErr == nil {
			s.writeErr = tw.Flush()
		}
	}(s.records)
}

// nextArrival takes the next arrival off the producer's batches; false
// once the generator has run dry.
func (s *scenario) nextArrival() (loadgen.Arrival, bool) {
	if s.arrNext == len(s.arrBatch) {
		if s.arrBatch != nil {
			s.arrivals.free <- s.arrBatch
		}
		b, ok := <-s.arrivals.full
		if !ok {
			s.arrBatch = nil
			return loadgen.Arrival{}, false
		}
		s.arrBatch, s.arrNext = b, 0
	}
	s.arrNext++
	return s.arrBatch[s.arrNext-1], true
}

// emit hands a copy of j, recorded or rejected, to the consumer, a batch
// at a time.
func (s *scenario) emit(j *simJob) {
	if len(s.recBatch) == batchLen {
		s.records.full <- s.recBatch
		s.recBatch = <-s.records.free
	}
	s.recBatch = append(s.recBatch, *j)
}

// join ends both stages on every way out of a run and waits for them:
// the producer is stopped and drained, the last record batch goes to the
// consumer, which writes and flushes it. It returns the writer's first
// error. Once it returns, no goroutine holds a batch, so the next run on
// the same runScratch may refill them.
func (s *scenario) join() error {
	close(s.arrivals.free)
	for range s.arrivals.full {
	}
	if len(s.recBatch) > 0 {
		s.records.full <- s.recBatch
	}
	close(s.records.full)
	s.stages.Wait()
	return s.writeErr
}
