package monitor

import "nlarm/internal/metrics"

// AheadCounts returns a's reads of the matrix keys served by a finished
// decode (hits), by a running one (waits) and inline (misses), and the
// decodes its worker ran.
func AheadCounts(a *DecodeAhead) (hits, waits, misses, decodes int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats.hits, a.stats.waits, a.stats.misses, a.stats.decodes
}

// AheadPending is the number of a's decodes queued or running.
func AheadPending(a *DecodeAhead) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pending
}

// ObserveDecodes makes f see every decode a's worker ends, on the
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
