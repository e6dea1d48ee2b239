package monitor

import (
	"bytes"
	"sync"

	"nlarm/internal/metrics"
)

// DecodeAhead is the store the monitor daemons publish through and the
// brokers read from when both share a process. It passes every call to
// its GenSource and decodes each new pair-matrix generation once, on the
// decode worker, before a broker's refresh needs it.
//
// The bytes are the contract. A put to a matrix key that succeeds, after
// some reader has read that key since the previous put, copies the bytes
// and queues their decode (the list, PairMap, FoldPairs) on the worker.
// A reader still Gets the key once, as without the layer, and takes the
// worker's map only when the bytes it read equal the bytes decoded.
// Decoding is a pure function of the bytes, so a failed or torn put, a
// stale read or a generation that moved meanwhile can only make the
// reader decode inline, as it would without the layer. A reader waits
// only for a decode that is running; it drops one still queued and
// decodes inline.
type DecodeAhead struct {
	GenSource

	mu     sync.Mutex
	lat    aheadSlot[metrics.PairLatency]
	bw     aheadSlot[metrics.PairBandwidth]
	closed bool
	stats  aheadStats
	// pending counts the decodes handed to the worker that it has not
	// yet taken off its queue and ended; drained is signalled when it
	// reaches 0, which Close waits for.
	pending int
	drained sync.Cond
	// observe, when set (by tests), sees every decode the worker ends.
	observe func(key string, b []byte, m any, fold uint64)
}

// aheadSlot is DecodeAhead's state for one matrix key.
type aheadSlot[T metrics.PairRecord] struct {
	key  string
	read bool // a reader read the key since its last put
	n    int  // the last decoded map's length: the next decode's list hint
	job  *aheadJob[T]
}

// aheadStats counts how reads of the matrix keys were served: from a
// finished decode, after waiting for a running one, or inline; and the
// decodes the worker ran.
type aheadStats struct{ hits, waits, misses, decodes int }

// jobState is where an aheadJob is: queued, running, done, or dropped
// before it ran.
type jobState uint8

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
	jobDropped
)

// aheadJob is one generation's decode. b is a copy of the put's bytes;
// m, fold and err are decodeMatrix's, set once the state is jobDone and
// done is closed.
type aheadJob[T metrics.PairRecord] struct {
	a     *DecodeAhead
	key   string
	b     []byte
	hint  int
	state jobState
	done  chan struct{}
	m     map[metrics.PairKey]T
	fold  uint64
	err   error
}

// decodeTasks queues the decodes of every DecodeAhead in the process for
// the one decode worker, which the first NewDecodeAhead starts. A layer
// has at most one live decode a key, so 16 slots hold both keys' decodes
// of eight layers at once; a full queue drops the decode, and the reader
// then decodes inline.
var (
	decodeTasks     = make(chan interface{ run() }, 16)
	startDecodeTask sync.Once
)

// NewDecodeAhead wraps src. Close it once its writers have stopped.
func NewDecodeAhead(src GenSource) *DecodeAhead {
	startDecodeTask.Do(func() {
		go func() {
			for t := range decodeTasks {
				t.run()
			}
		}()
	})
	a := &DecodeAhead{
		GenSource: src,
		lat:       aheadSlot[metrics.PairLatency]{key: KeyLatencyMatrix},
		bw:        aheadSlot[metrics.PairBandwidth]{key: KeyBandwidthMatrix},
	}
	a.drained.L = &a.mu
	return a
}

// Put implements store.Store: it writes through, then queues the decode
// of a matrix key's new bytes if the put succeeded and the key was read
// since its last put.
func (a *DecodeAhead) Put(key string, value []byte) error {
	err := a.GenSource.Put(key, value)
	switch key {
	case KeyLatencyMatrix:
		putAhead(a, &a.lat, value, err)
	case KeyBandwidthMatrix:
		putAhead(a, &a.bw, value, err)
	}
	return err
}

// Close drops the decodes still queued and waits until the worker holds
// none of a's. Later puts queue nothing; reads decode inline.
func (a *DecodeAhead) Close() {
	a.mu.Lock()
	a.closed = true
	a.lat.drop()
	a.bw.drop()
	for a.pending > 0 {
		a.drained.Wait()
	}
	a.mu.Unlock()
}

// drop forgets the slot's decode, and stops it from running if it is
// still queued. Callers hold a.mu.
func (s *aheadSlot[T]) drop() {
	if s.job != nil && s.job.state == jobQueued {
		s.job.state = jobDropped
	}
	s.job = nil
}

// putAhead records a put of s's key: whatever was decoded before is of
// an older generation, and these bytes are decoded ahead only when the
// put succeeded and a reader read the key since the put before.
func putAhead[T metrics.PairRecord](a *DecodeAhead, s *aheadSlot[T], value []byte, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s.drop()
	read := s.read
	s.read = false
	if err != nil || !read || a.closed {
		return
	}
	j := &aheadJob[T]{a: a, key: s.key, b: bytes.Clone(value), hint: s.n, done: make(chan struct{})}
	select {
	case decodeTasks <- j:
		s.job = j
		a.pending++
	default:
	}
}

// run is the worker's decode of j, unless j was dropped while queued.
func (j *aheadJob[T]) run() {
	a := j.a
	a.mu.Lock()
	if j.state != jobQueued {
		a.endLocked()
		a.mu.Unlock()
		return
	}
	j.state = jobRunning
	a.mu.Unlock()
	m, fold, err := decodeMatrix[T](j.key, j.b, j.hint)
	if a.observe != nil {
		a.observe(j.key, j.b, m, fold)
	}
	a.mu.Lock()
	j.m, j.fold, j.err, j.state = m, fold, err, jobDone
	close(j.done)
	if err == nil {
		slotOf[T](a).n = len(m)
	}
	a.stats.decodes++
	a.endLocked()
	a.mu.Unlock()
}

// endLocked counts one of a's decodes off the worker. Callers hold a.mu.
func (a *DecodeAhead) endLocked() {
	if a.pending--; a.pending == 0 {
		a.drained.Broadcast()
	}
}

// slotOf is a's slot for T's matrix.
func slotOf[T metrics.PairRecord](a *DecodeAhead) *aheadSlot[T] {
	if s, ok := any(&a.lat).(*aheadSlot[T]); ok {
		return s
	}
	return any(&a.bw).(*aheadSlot[T])
}

// decodeRead is decodeMatrix(key, b, hint) for bytes b a reader read
// from a: the worker's result when it decoded these very bytes, or an
// inline decode sized from the key's last decode.
func decodeRead[T metrics.PairRecord](a *DecodeAhead, key string, b []byte, hint int) (map[metrics.PairKey]T, uint64, error) {
	s := slotOf[T](a)
	a.mu.Lock()
	s.read = true
	if j := s.job; j != nil && bytes.Equal(j.b, b) {
		if j.state == jobQueued {
			s.drop()
		} else {
			if j.state == jobRunning {
				a.stats.waits++
			} else {
				a.stats.hits++
			}
			a.mu.Unlock()
			<-j.done
			return j.m, j.fold, j.err
		}
	}
	a.stats.misses++
	hint = max(hint, s.n)
	a.mu.Unlock()
	m, fold, err := decodeMatrix[T](key, b, hint)
	if err == nil {
		a.mu.Lock()
		s.n = len(m)
		a.mu.Unlock()
	}
	return m, fold, err
}
