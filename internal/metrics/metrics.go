// Package metrics defines the data types exchanged between the resource
// monitoring daemons and the node allocator: per-node attribute snapshots
// (Table 1 of the paper) and pairwise network measurements. These are the
// only inputs the allocator ever sees — it never touches simulator ground
// truth — preserving the paper's information boundary (the allocator works
// from monitoring data that is seconds to minutes stale).
package metrics

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"time"

	"nlarm/internal/stats"
)

// NodeAttrs is one node's published state: static hardware attributes and
// the dynamic attributes with their 1/5/15-minute running means.
type NodeAttrs struct {
	NodeID    int       `json:"node_id"`
	Hostname  string    `json:"hostname"`
	Timestamp time.Time `json:"timestamp"`

	// Static attributes.
	Cores      int     `json:"cores"`
	FreqGHz    float64 `json:"freq_ghz"`
	TotalMemMB float64 `json:"total_mem_mb"`

	// Dynamic attributes (instantaneous latest sample).
	Users int `json:"users"`

	// Dynamic attributes with running means.
	CPULoad     stats.Windowed `json:"cpu_load"`
	CPUUtilPct  stats.Windowed `json:"cpu_util_pct"`
	FlowRateBps stats.Windowed `json:"flow_rate_bps"`
	AvailMemMB  stats.Windowed `json:"avail_mem_mb"`
}

// PairLatency is a published point-to-point latency measurement with the
// paper's 1- and 5-minute running means (§4: "We maintain average of last
// 1 and 5 minutes of P2P latency and use this in our algorithm").
type PairLatency struct {
	U         int           `json:"u"`
	V         int           `json:"v"`
	Timestamp time.Time     `json:"timestamp"`
	Last      time.Duration `json:"last"`
	Mean1     time.Duration `json:"mean1"`
	Mean5     time.Duration `json:"mean5"`
}

// PairBandwidth is a published point-to-point effective bandwidth
// measurement. Per §4 the allocator uses the instantaneous value.
type PairBandwidth struct {
	U         int       `json:"u"`
	V         int       `json:"v"`
	Timestamp time.Time `json:"timestamp"`
	// AvailBps is the measured effective bandwidth in bytes/sec.
	AvailBps float64 `json:"avail_bps"`
	// PeakBps is the zero-load bottleneck capacity, used to compute the
	// "complement of available bandwidth".
	PeakBps float64 `json:"peak_bps"`
}

// Snapshot is the consolidated monitoring view the allocator consumes.
//
// Ownership: a Snapshot handed out by monitor.SnapshotCache.Refresh,
// monitor.ReadSnapshot or the broker is immutable. Its maps and slices
// are shared — with the cache's own state, the broker's last-good view,
// cached cost models and every concurrent request — so nobody writes
// through them; whoever needs a variant copies the struct header and
// only the part it changes (the broker's degraded serve builds a new
// Livehosts list, alloc.ReservingPolicy.Charged a new Nodes map and
// Livehosts list; both share the n² matrices). Only the builder of a
// private snapshot that was never handed out may mutate it in place, as
// the policy-fidelity simulator does with its own.
type Snapshot struct {
	Taken     time.Time                 `json:"taken"`
	Livehosts []int                     `json:"livehosts"`
	Nodes     map[int]NodeAttrs         `json:"nodes"`
	Latency   map[PairKey]PairLatency   `json:"-"`
	Bandwidth map[PairKey]PairBandwidth `json:"-"`
	// Degraded marks a snapshot that is NOT a fresh, complete store
	// read: the broker sets it when it serves its last-good copy because
	// the current read failed or aged past the staleness bound, and the
	// snapshot readers set it when a matrix read fails mid-assembly.
	// Consumers can surface it; Fingerprint ignores it (content identity
	// is about the monitoring data, not how it was obtained).
	Degraded bool `json:"degraded,omitempty"`
	// DegradedReasons lists why the snapshot is degraded (one entry per
	// failed read). Excluded from Fingerprint like Degraded.
	DegradedReasons []string `json:"degraded_reasons,omitempty"`
}

// PairKey identifies an unordered node pair; U < V always.
type PairKey struct {
	U, V int
}

// Pair returns the canonical key for nodes a and b.
func Pair(a, b int) PairKey {
	if a > b {
		a, b = b, a
	}
	return PairKey{U: a, V: b}
}

// LatencyOf returns the 1-minute-mean latency between a and b, falling
// back to the last sample, and ok=false when the pair was never measured.
func (s *Snapshot) LatencyOf(a, b int) (time.Duration, bool) {
	pl, ok := s.Latency[Pair(a, b)]
	if !ok {
		return 0, false
	}
	if pl.Mean1 > 0 {
		return pl.Mean1, true
	}
	return pl.Last, true
}

// BandwidthOf returns the instantaneous available bandwidth and peak
// capacity between a and b; ok=false when never measured.
func (s *Snapshot) BandwidthOf(a, b int) (avail, peak float64, ok bool) {
	pb, found := s.Bandwidth[Pair(a, b)]
	if !found {
		return 0, 0, false
	}
	return pb.AvailBps, pb.PeakBps, true
}

// Alive reports whether node id is in the livehosts list.
func (s *Snapshot) Alive(id int) bool {
	for _, h := range s.Livehosts {
		if h == id {
			return true
		}
	}
	return false
}

// Fingerprint returns a content hash of the monitoring data in the
// snapshot — node records, pairwise measurements, and the livehosts
// list — deliberately excluding Taken. Two snapshots read from an
// unchanged store at different wall-clock instants hash identically, so
// consumers (the broker's cost-model cache) can detect "nothing was
// republished" without comparing every record. Map entries are folded
// order-independently, so iteration order never changes the hash.
func (s *Snapshot) Fingerprint() uint64 {
	var accNodes uint64
	for id, na := range s.Nodes {
		accNodes += FingerprintNode(id, na) // commutative fold: map order independent
	}
	return CombineFingerprint(s.Livehosts, len(s.Nodes), len(s.Latency), len(s.Bandwidth),
		accNodes, FoldPairs(s.Latency), FoldPairs(s.Bandwidth))
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvFold hashes a fixed sequence of words FNV-style.
func fnvFold(words ...uint64) uint64 {
	e := uint64(fnvOffset64)
	for _, v := range words {
		e ^= v
		e *= fnvPrime64
	}
	return e
}

// FingerprintNode is one node record's contribution to the snapshot
// fingerprint's commutative node accumulator. Exposed so incremental
// maintainers (monitor.SnapshotCache) can add/subtract single entries
// and land on exactly the value Fingerprint computes from scratch.
func FingerprintNode(id int, na NodeAttrs) uint64 {
	return fnvFold(
		uint64(uint32(id)),
		uint64(na.Timestamp.UnixNano()),
		math.Float64bits(na.CPULoad.M1),
		math.Float64bits(na.FlowRateBps.M1),
		math.Float64bits(na.AvailMemMB.M1),
		uint64(uint32(na.Cores)),
	)
}

// PairRecord is what the two published pair matrices have in common:
// their records are keyed by an unordered node pair and each contributes
// one entry hash to its section of the snapshot fingerprint. PairMap,
// SortedPairs and FoldPairs are written once over it.
type PairRecord interface {
	PairLatency | PairBandwidth
	// Key returns the record's canonical pair.
	Key() PairKey
	// fingerprint is the record's contribution, stored under k, to its
	// section accumulator of the snapshot fingerprint.
	fingerprint(k PairKey) uint64
}

// Key returns the measured pair.
func (pl PairLatency) Key() PairKey { return Pair(pl.U, pl.V) }

// Key returns the measured pair.
func (pb PairBandwidth) Key() PairKey { return Pair(pb.U, pb.V) }

func (pl PairLatency) fingerprint(k PairKey) uint64 {
	return fnvFold(
		uint64(uint32(k.U))<<32^uint64(uint32(k.V)),
		uint64(pl.Timestamp.UnixNano()),
		uint64(pl.Mean1),
		uint64(pl.Last),
	)
}

func (pb PairBandwidth) fingerprint(k PairKey) uint64 {
	return fnvFold(
		uint64(uint32(k.U))<<32^uint64(uint32(k.V)),
		uint64(pb.Timestamp.UnixNano()),
		math.Float64bits(pb.AvailBps),
		math.Float64bits(pb.PeakBps),
	)
}

// PairMap keys a published pair list by pair; of two records for one
// pair the later wins.
func PairMap[T PairRecord](list []T) map[PairKey]T {
	m := make(map[PairKey]T, len(list))
	for _, p := range list {
		m[p.Key()] = p
	}
	return m
}

// SortedPairs lists a pair matrix ascending by (U, V), the order the
// daemons publish and the archive stores; nil when m is empty.
func SortedPairs[T PairRecord](m map[PairKey]T) []T {
	if len(m) == 0 {
		return nil
	}
	out := make([]T, 0, len(m))
	for _, p := range m {
		out = append(out, p)
	}
	slices.SortFunc(out, ComparePairs[T])
	return out
}

// ComparePairs orders pair records ascending by (U, V), the order
// SortedPairs lists them in.
func ComparePairs[T PairRecord](a, b T) int {
	ka, kb := a.Key(), b.Key()
	return cmp.Or(cmp.Compare(ka.U, kb.U), cmp.Compare(ka.V, kb.V))
}

// FoldPairs is a pair matrix's section accumulator of the snapshot
// fingerprint: the sum of its entry hashes, so map order never matters.
// Snapshot.Fingerprint and monitor.SnapshotCache both fold through it.
func FoldPairs[T PairRecord](m map[PairKey]T) uint64 {
	var acc uint64
	for k, p := range m {
		acc += p.fingerprint(k)
	}
	return acc
}

// CombineFingerprint folds the livehosts list, the three section sizes,
// and the three per-section accumulators (FingerprintNode's sum and the
// two FoldPairs) into the final snapshot fingerprint. Fingerprint
// is defined in terms of this function, so a cache that maintains the
// accumulators incrementally reproduces it bit for bit.
func CombineFingerprint(livehosts []int, nNodes, nLat, nBW int, accNodes, accLat, accBW uint64) uint64 {
	h := uint64(fnvOffset64)
	mix := func(v uint64) {
		h ^= v
		h *= fnvPrime64
	}
	mix(uint64(len(livehosts)))
	mix(uint64(nNodes))
	mix(uint64(nLat))
	mix(uint64(nBW))
	for i, id := range livehosts {
		mix(uint64(i)<<32 ^ uint64(uint32(id)))
	}
	mix(accNodes)
	mix(accLat)
	mix(accBW)
	return h
}

// Clone returns a deep copy of the snapshot (maps are copied; values are
// plain data). No production path calls it: under the ownership rule on
// Snapshot, variants copy only what they change. It remains for tests and
// the benchmark's cost-sheet row.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{
		Taken:           s.Taken,
		Degraded:        s.Degraded,
		DegradedReasons: append([]string(nil), s.DegradedReasons...),
		Livehosts:       append([]int(nil), s.Livehosts...),
		Nodes:           make(map[int]NodeAttrs, len(s.Nodes)),
		Latency:         make(map[PairKey]PairLatency, len(s.Latency)),
		Bandwidth:       make(map[PairKey]PairBandwidth, len(s.Bandwidth)),
	}
	maps.Copy(c.Nodes, s.Nodes)
	maps.Copy(c.Latency, s.Latency)
	maps.Copy(c.Bandwidth, s.Bandwidth)
	return c
}
