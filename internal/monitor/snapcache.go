package monitor

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/obs"
	"nlarm/internal/store"
)

// GenSource is the store capability SnapshotCache needs: plain reads
// plus per-key generation visibility. store.VersionedStore implements
// it; wrap any backend with store.Version to get one.
type GenSource interface {
	store.Store
	Generations(prefixes ...string) map[string]uint64
	Seq() uint64
}

// Refresh is the result of one SnapshotCache.Refresh call.
type Refresh struct {
	// Snap is the refreshed snapshot: immutable and shared with the cache
	// and other Refresh results (see the ownership rule on
	// metrics.Snapshot; the cache itself never mutates a published map).
	Snap *metrics.Snapshot
	// FP is the snapshot's content fingerprint, maintained incrementally
	// and bit-identical to Snap.Fingerprint().
	FP uint64
	// PrevFP is the fingerprint before this refresh (0 on the first).
	PrevFP uint64
	// Incremental reports that this refresh changed at most the dynamic
	// attributes of ChangedNodes: the monitored node set and both
	// matrices are content-identical to the PrevFP snapshot, so a cost
	// model built for PrevFP can be updated in place.
	Incremental bool
	// ChangedNodes lists the node IDs whose state was re-read (and kept)
	// by this refresh, ascending.
	ChangedNodes []int
	// KeysReread counts the store values this refresh re-read and
	// decoded; 0 means the store was untouched since the last refresh.
	KeysReread int
}

// SnapshotCache keeps the last consolidated monitoring snapshot decoded
// in memory together with the per-key store generations it was built
// from. Refresh re-reads only keys whose generation changed since —
// between the monitor's publish cadences that is nothing at all, and
// within one node-state cadence it is the node records, never the
// matrices — and maintains the snapshot's content fingerprint
// incrementally from per-entry hashes instead of rehashing the world.
//
// Failure semantics mirror ReadSnapshot: an unreadable livehosts
// list fails the refresh (and leaves the cache untouched, so the broker
// falls back to its last-good copy exactly as with full reads); a
// failed node read drops that node; a failed matrix read serves an
// empty matrix marked Degraded and keeps the matrix "dirty" so the next
// refresh retries it even if no new generation appeared.
type SnapshotCache struct {
	src GenSource
	reg *obs.Registry
	now func() time.Time

	mu      sync.Mutex
	valid   bool
	lastSeq uint64
	snap    *metrics.Snapshot
	fp      uint64
	gens    map[string]uint64

	// Incremental fingerprint state: per-node entry hashes and the node
	// section accumulator of metrics.CombineFingerprint (each matrix
	// keeps its own).
	nodeHash map[int]uint64
	accNodes uint64
	lat      matrixCache[metrics.PairLatency]
	bw       matrixCache[metrics.PairBandwidth]

	monitored []int // sorted livehosts∩nodes at the last refresh
	reasons   []string
}

// matrixCache is SnapshotCache's state for one published pair matrix.
type matrixCache[T metrics.PairRecord] struct {
	key   string
	m     map[metrics.PairKey]T
	acc   uint64 // metrics.FoldPairs(m)
	dirty bool   // the last read failed; retry on the next refresh
}

// refresh is the matrix half of a delta refresh, run once per matrix: it
// re-reads the matrix when the cache is cold, the last read failed, or
// the key's generation moved, appending a degraded reason on failure. It
// returns the values it re-read (0 or 1) and whether the content is still
// what the previous refresh served: a republish of the same values is,
// a failed read is not.
func (x *matrixCache[T]) refresh(c *SnapshotCache, gens map[string]uint64, reasons *[]string) (reread int, same bool) {
	if c.valid && !x.dirty && gens[x.key] == c.gens[x.key] {
		return 0, true
	}
	prev, n := x.acc, len(*reasons)
	x.m, x.acc = readMatrixObs[T](c.src, x.key, len(x.m), c.reg, reasons)
	x.dirty = len(*reasons) > n
	return 1, x.acc == prev && !x.dirty
}

// NewSnapshotCache builds a cache over src. reg may be nil; now is the
// clock used for the refresh-latency histogram (pass the runtime clock
// so virtual-time runs stay deterministic) and may also be nil.
func NewSnapshotCache(src GenSource, reg *obs.Registry, now func() time.Time) *SnapshotCache {
	if now == nil {
		now = time.Now
	}
	return &SnapshotCache{
		src:      src,
		reg:      reg,
		now:      now,
		gens:     make(map[string]uint64),
		nodeHash: make(map[int]uint64),
		lat:      matrixCache[metrics.PairLatency]{key: KeyLatencyMatrix},
		bw:       matrixCache[metrics.PairBandwidth]{key: KeyBandwidthMatrix},
	}
}

// Refresh brings the cached snapshot up to date with the store and
// returns it stamped with now as its Taken time. Concurrent callers
// serialize; each performs (or waits for) at most one store sweep.
func (c *SnapshotCache) Refresh(now time.Time) (Refresh, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t0 := c.now()
	seq := c.src.Seq()
	if c.valid && seq == c.lastSeq && !c.lat.dirty && !c.bw.dirty {
		c.reg.Counter("monitor.snapcache.refresh.unchanged").Inc()
		c.reg.Histogram("monitor.snapcache.refresh.seconds").Observe(c.now().Sub(t0).Seconds())
		return c.resultLocked(now, c.fp, 0, nil, true), nil
	}
	res, err := c.refreshLocked(now, seq)
	c.reg.Histogram("monitor.snapcache.refresh.seconds").Observe(c.now().Sub(t0).Seconds())
	if err != nil {
		c.reg.Counter("monitor.snapcache.refresh.errors").Inc()
		return Refresh{}, err
	}
	c.reg.Counter("monitor.snapcache.refresh.changed").Inc()
	c.reg.Counter("monitor.snapcache.keys.reread").Add(uint64(res.KeysReread))
	return res, nil
}

// resultLocked wraps the committed cache state for one caller. The
// struct copy gives each caller its own Taken/Degraded header over the
// shared (immutable) content maps.
func (c *SnapshotCache) resultLocked(now time.Time, prevFP uint64, reread int, changed []int, incremental bool) Refresh {
	s := *c.snap
	s.Taken = now
	s.Degraded = len(c.reasons) > 0
	s.DegradedReasons = c.reasons
	c.reg.Gauge("monitor.snapcache.stale").Set(boolGauge(c.lat.dirty || c.bw.dirty))
	c.reg.Gauge("monitor.snapcache.valid").Set(1)
	return Refresh{
		Snap:         &s,
		FP:           c.fp,
		PrevFP:       prevFP,
		Incremental:  incremental,
		ChangedNodes: changed,
		KeysReread:   reread,
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// refreshLocked is the delta sweep: compare the store's generation map
// against the cache's, re-read only what changed, and rebuild the
// fingerprint from the maintained accumulators.
func (c *SnapshotCache) refreshLocked(now time.Time, seq uint64) (Refresh, error) {
	gens := c.src.Generations(KeyLivehostsPrefix, KeyNodeStatePrefix, KeyLatencyMatrix, KeyBandwidthMatrix)
	prevFP := c.fp
	reread := 0

	// Livehosts: any generation movement under the prefix (including a
	// deleted key) re-reads the whole replicated list — it is a handful
	// of tiny records and the most-recent-wins merge needs all of them.
	hosts := []int(nil)
	lhChanged := !c.valid || prefixGensChanged(gens, c.gens, KeyLivehostsPrefix)
	if lhChanged {
		h, _, err := ReadLivehosts(c.src)
		if err != nil {
			// Abort without committing anything: the cache still holds the
			// previous consistent state and the caller sees the same error a
			// full ReadSnapshot would have produced.
			return Refresh{}, fmt.Errorf("monitor: snapshot: %w", err)
		}
		hosts = h
		for k := range gens {
			if strings.HasPrefix(k, KeyLivehostsPrefix) {
				reread++
			}
		}
	} else {
		hosts = c.snap.Livehosts
	}

	// Node state: re-read a node's record iff its generation moved, or a
	// record we should have is missing (a host newly in the list). Known
	// never-published keys (generation 0 on both sides) are skipped —
	// that is the delta win over a full read, which Gets every one.
	nodes := c.cachedNodes()
	nodesCloned := false
	ensureNodes := func() {
		if !nodesCloned {
			cp := make(map[int]metrics.NodeAttrs, len(nodes))
			for k, v := range nodes {
				cp[k] = v
			}
			nodes = cp
			nodesCloned = true
		}
	}
	dropNode := func(id int) {
		ensureNodes()
		delete(nodes, id)
		c.accNodes -= c.nodeHash[id]
		delete(c.nodeHash, id)
	}
	inHosts := make(map[int]bool, len(hosts))
	for _, id := range hosts {
		inHosts[id] = true
	}
	for id := range nodes {
		if !inHosts[id] {
			dropNode(id)
		}
	}
	var changed []int
	for _, id := range hosts {
		key := nodeStateKey(id)
		g, cg := gens[key], c.gens[key]
		_, have := nodes[id]
		if g == cg && (have || g == 0) {
			continue
		}
		reread++
		attrs, err := readNodeState(c.src, key)
		if err != nil {
			if !errors.Is(err, store.ErrNotFound) {
				c.reg.Counter("monitor.snapshot.nodestate.errors").Inc()
			}
			if have {
				dropNode(id)
			}
			continue
		}
		ensureNodes()
		nodes[id] = attrs
		h := metrics.FingerprintNode(id, attrs)
		c.accNodes += h - c.nodeHash[id]
		c.nodeHash[id] = h
		changed = append(changed, id)
	}
	slices.Sort(changed)

	var reasons []string
	latReread, latSame := c.lat.refresh(c, gens, &reasons)
	bwReread, bwSame := c.bw.refresh(c, gens, &reasons)
	reread += latReread + bwReread

	monitored := monitoredOf(hosts, nodes)
	// In-place cost-model updates are sound when the model's node set is
	// unchanged and the matrices are content-identical.
	incremental := c.valid && slices.Equal(monitored, c.monitored) && latSame && bwSame

	c.snap = &metrics.Snapshot{
		Taken:     now,
		Livehosts: hosts,
		Nodes:     nodes,
		Latency:   c.lat.m,
		Bandwidth: c.bw.m,
	}
	c.fp = metrics.CombineFingerprint(hosts, len(nodes), len(c.lat.m), len(c.bw.m), c.accNodes, c.lat.acc, c.bw.acc)
	c.gens = gens
	c.lastSeq = seq
	c.valid = true
	c.monitored = monitored
	c.reasons = reasons
	return c.resultLocked(now, prevFP, reread, changed, incremental), nil
}

// cachedNodes returns the cached node map, or an empty map when the
// cache has never refreshed.
func (c *SnapshotCache) cachedNodes() map[int]metrics.NodeAttrs {
	if c.snap == nil {
		return map[int]metrics.NodeAttrs{}
	}
	return c.snap.Nodes
}

// prefixGensChanged reports whether the generation maps differ for any
// key under prefix (added, removed, or moved).
func prefixGensChanged(cur, prev map[string]uint64, prefix string) bool {
	for k, g := range cur {
		if strings.HasPrefix(k, prefix) && prev[k] != g {
			return true
		}
	}
	for k := range prev {
		if strings.HasPrefix(k, prefix) {
			if _, ok := cur[k]; !ok {
				return true
			}
		}
	}
	return false
}

// monitoredOf is alloc.MonitoredLivehosts without the import cycle: the
// sorted host IDs that also have a node record.
func monitoredOf(hosts []int, nodes map[int]metrics.NodeAttrs) []int {
	out := make([]int, 0, len(hosts))
	for _, id := range hosts {
		if _, ok := nodes[id]; ok {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}
