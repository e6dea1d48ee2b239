package monitor

import (
	"runtime"

	"nlarm/internal/metrics"
)

// AheadCounts returns a's reads of the matrix keys served by a finished
// decode (hits), by a running one (waits) and inline (misses), and the
// decodes the run-ahead workers ran for it.
func AheadCounts(a *DecodeAhead) (hits, waits, misses, decodes int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats.hits, a.stats.waits, a.stats.misses, a.stats.decodes
}

// AheadHeld is the number of a's decodes the run-ahead workers have
// queued or are running.
func AheadHeld(a *DecodeAhead) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats.queued - a.stats.decodes - a.stats.skips
}

// AheadSettle waits until the run-ahead workers hold none of a's decodes.
func AheadSettle(a *DecodeAhead) {
	for AheadHeld(a) > 0 {
		runtime.Gosched()
	}
}

// ObserveDecodes makes f see every decode a worker ends for a, on the
// worker, before a reader can take it. Set it before anything is put.
func ObserveDecodes(a *DecodeAhead, f func(key string, b []byte, m any, fold uint64)) {
	a.observe = f
}

// DecodeInline is the inline decode of the matrix bytes b published under
// key.
func DecodeInline(key string, b []byte) (any, uint64, error) {
	if key == KeyLatencyMatrix {
		return decodeMatrix[metrics.PairLatency](key, b, 0)
	}
	return decodeMatrix[metrics.PairBandwidth](key, b, 0)
}
