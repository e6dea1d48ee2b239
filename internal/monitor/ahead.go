package monitor

import (
	"bytes"
	"sync"

	"nlarm/internal/metrics"
	"nlarm/internal/simtime"
)

// DecodeAhead is the store the monitor daemons publish through and the
// brokers read from when both share a process. It passes every call to
// its GenSource and decodes each new pair-matrix generation once, on the
// run-ahead workers (simtime.TryAhead), before a broker's refresh needs
// it. Like a world, it owns nothing that needs closing.
//
// The bytes are the contract. A put to a matrix key that succeeds, after
// some reader has read that key since the previous put, copies the bytes
// and queues their decode (the list, PairMap, FoldPairs) on the workers.
// A reader still Gets the key once, as without the layer, and takes the
// workers' map only when the bytes it read equal the bytes decoded.
// Decoding is a pure function of the bytes, so a failed or torn put, a
// stale read or a generation that moved meanwhile can only make the
// reader decode inline, as it would without the layer. A reader waits
// only for a decode that has started; it drops one still queued and
// decodes inline.
type DecodeAhead struct {
	GenSource

	mu    sync.Mutex
	lat   aheadSlot[metrics.PairLatency]
	bw    aheadSlot[metrics.PairBandwidth]
	stats aheadStats
	// observe, when set (by tests), sees every decode a worker ends.
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
// decodes queued on the workers, and of those the ones they ran and the
// ones they skipped.
type aheadStats struct{ hits, waits, misses, queued, decodes, skips int }

// aheadJob is one generation's decode for s. b is a copy of the put's
// bytes; m, fold and err are decodeMatrix's, set before done is closed.
type aheadJob[T metrics.PairRecord] struct {
	a       *DecodeAhead
	s       *aheadSlot[T]
	b       []byte
	hint    int
	started bool
	done    chan struct{}
	m       map[metrics.PairKey]T
	fold    uint64
	err     error
}

// NewDecodeAhead wraps src.
func NewDecodeAhead(src GenSource) *DecodeAhead {
	return &DecodeAhead{
		GenSource: src,
		lat:       aheadSlot[metrics.PairLatency]{key: KeyLatencyMatrix},
		bw:        aheadSlot[metrics.PairBandwidth]{key: KeyBandwidthMatrix},
	}
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

// putAhead records a put of s's key: whatever was decoded before is of
// an older generation, and these bytes are decoded ahead only when the
// put succeeded and a reader read the key since the put before. A full
// queue decodes nothing ahead.
func putAhead[T metrics.PairRecord](a *DecodeAhead, s *aheadSlot[T], value []byte, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	read := s.read
	s.read, s.job = false, nil
	if err != nil || !read {
		return
	}
	j := &aheadJob[T]{a: a, s: s, b: bytes.Clone(value), hint: s.n, done: make(chan struct{})}
	if simtime.TryAhead(j) {
		s.job = j
		a.stats.queued++
	}
}

// Run is a worker's decode of j, which it skips when j's slot no longer
// holds j: a later put or a reader dropped it.
func (j *aheadJob[T]) Run() {
	a, s := j.a, j.s
	a.mu.Lock()
	if s.job != j {
		a.stats.skips++
		a.mu.Unlock()
		return
	}
	j.started = true
	a.mu.Unlock()
	m, fold, err := decodeMatrix[T](s.key, j.b, j.hint)
	if a.observe != nil {
		a.observe(s.key, j.b, m, fold)
	}
	a.mu.Lock()
	j.m, j.fold, j.err = m, fold, err
	close(j.done)
	if err == nil {
		s.n = len(m)
	}
	a.stats.decodes++
	a.mu.Unlock()
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
		if j.started {
			select {
			case <-j.done:
				a.stats.hits++
			default:
				a.stats.waits++
			}
			a.mu.Unlock()
			<-j.done
			return j.m, j.fold, j.err
		}
		s.job = nil // still queued: the worker that takes it skips it
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
