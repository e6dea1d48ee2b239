package alloc

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"nlarm/internal/metrics"
)

// Defaults for the topology-sharded hierarchical cost model. They are
// deliberately conservative: sharding only replaces the exhaustive dense
// path at sizes where the dense O(n²) matrix is already the dominant
// cost, and the paper-scale clusters (60-256 nodes) keep their
// bit-for-bit behavior.
const (
	// DefaultShardThreshold is the node count at which the sharded model
	// replaces the exhaustive dense path when ShardOptions.Threshold is
	// left zero by a caller that still wants sharding (the broker's flag
	// default).
	DefaultShardThreshold = 512
	// DefaultMaxShardSize caps how many nodes one shard may hold; larger
	// plan groups (and hash buckets) are split into consecutive chunks.
	DefaultMaxShardSize = 64
	// DefaultShardTopK is how many top-ranked shards get dense candidate
	// generation per request.
	DefaultShardTopK = 4
	// maxBoundarySamples bounds how many measured cross-shard pairs feed
	// one shard-pair boundary aggregate (the rest carry no extra
	// information and would only slow construction on dense meshes).
	maxBoundarySamples = 64
)

// ShardPlan is a precomputed node partition — typically one group per
// topology switch (see topology.(*Topology).Shards) — that the sharded
// cost model uses instead of hash-bucketing. Plans are immutable after
// construction and safe to share across models and goroutines.
type ShardPlan struct {
	of     map[int]int
	source string
}

// NewShardPlan builds a plan from explicit node groups: group i becomes
// shard label i. source names the plan's origin ("topology", "cluster",
// ...) for diagnostics. Empty groups are skipped; a node listed twice
// keeps its first group.
func NewShardPlan(groups [][]int, source string) *ShardPlan {
	p := &ShardPlan{of: make(map[int]int), source: source}
	for label, g := range groups {
		for _, id := range g {
			if _, ok := p.of[id]; !ok {
				p.of[id] = label
			}
		}
	}
	return p
}

// ShardOptions configures the topology-sharded hierarchical cost model.
// The zero value disables sharding entirely: NewCostModelSharded with
// zero options is exactly NewCostModel.
type ShardOptions struct {
	// Plan maps nodes to shards (typically derived from the switch tree).
	// Nil falls back to deterministic hash-bucketing over node IDs — the
	// no-topology-attached case.
	Plan *ShardPlan
	// Threshold is the live-node count at or above which the sharded
	// model replaces the exhaustive dense path. Below it (or at 0,
	// meaning disabled) the dense path runs bit-for-bit.
	Threshold int
	// MaxShardSize caps shard size; 0 means DefaultMaxShardSize.
	MaxShardSize int
	// TopK is how many top-ranked shards run dense candidate generation;
	// 0 means DefaultShardTopK.
	TopK int
}

// withDefaults fills the zero knobs of an enabled option set.
func (o ShardOptions) withDefaults() ShardOptions {
	if o.MaxShardSize <= 0 {
		o.MaxShardSize = DefaultMaxShardSize
	}
	if o.TopK <= 0 {
		o.TopK = DefaultShardTopK
	}
	return o
}

// active reports whether these options shard a model of n live nodes.
func (o ShardOptions) active(n int) bool { return o.Threshold > 0 && n >= o.Threshold }

// fnvWords hashes a word sequence FNV-style — the fold metrics'
// fingerprints use, which metrics keeps unexported; hash-bucket shard
// assignment must not move if the fingerprint format ever does.
func fnvWords(words []uint64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, w := range words {
		h ^= w
		h *= prime
	}
	return h
}

// shardModel is the hierarchical network-load layer of a sharded
// CostModel: per-shard dense NL sub-matrices plus a small shard×shard
// aggregate, replacing the full n×n NLUnit matrix. It holds no Equation 1
// state, so UpdateNodes (dynamic-attribute deltas) shares it untouched.
type shardModel struct {
	source string
	// shards holds each shard's member dense indices, ascending; shardOf
	// and posOf invert the mapping (dense index → shard, position).
	shards  [][]int
	shardOf []int
	posOf   []int
	// sub[s] is shard s's flat size×size unit-scaled NL matrix (diagonal
	// zero), the exact analogue of CostModel.NLUnit restricted to s.
	sub [][]float64
	// agg is the flat S×S aggregate matrix: agg[s*S+s] is the mean
	// intra-shard NL of s, agg[s*S+t] the mean boundary NL between s and
	// t (sampled from measured cross pairs; unmeasured shard pairs are
	// priced at the worst observed value, like unmeasured node pairs in
	// the dense path).
	agg []float64
	// spills counts generated candidates that crossed shard boundaries
	// since the last TakeShardSpills (the broker drains it into obs).
	spills atomic.Uint64
}

// numShards returns the shard count.
func (sm *shardModel) numShards() int { return len(sm.shards) }

// buildShards partitions the model's dense indices 0..n-1 into shards:
// plan groups (split at maxSize, plan-label order, unplanned nodes in a
// trailing overflow group) when a plan is given, else deterministic
// hash buckets over node IDs. Every returned shard is non-empty and its
// members ascend.
func buildShards(ids []int, plan *ShardPlan, maxSize int) (shards [][]int, source string) {
	n := len(ids)
	var groups [][]int
	if plan != nil {
		source = plan.source
		byLabel := make(map[int][]int)
		var labels []int
		var overflow []int
		for i, id := range ids {
			label, ok := plan.of[id]
			if !ok {
				overflow = append(overflow, i)
				continue
			}
			if _, seen := byLabel[label]; !seen {
				labels = append(labels, label)
			}
			byLabel[label] = append(byLabel[label], i)
		}
		sort.Ints(labels)
		for _, label := range labels {
			groups = append(groups, byLabel[label])
		}
		if len(overflow) > 0 {
			groups = append(groups, overflow)
		}
	} else {
		source = "hash"
		buckets := (n + maxSize - 1) / maxSize
		if buckets < 1 {
			buckets = 1
		}
		byBucket := make([][]int, buckets)
		for i, id := range ids {
			b := int(fnvWords([]uint64{uint64(uint32(id))}) % uint64(buckets))
			byBucket[b] = append(byBucket[b], i)
		}
		for _, g := range byBucket {
			if len(g) > 0 {
				groups = append(groups, g)
			}
		}
	}
	// Split oversized groups into consecutive chunks so per-shard NL
	// matrices stay bounded at maxSize² regardless of the plan's shape.
	for _, g := range groups {
		for len(g) > maxSize {
			shards = append(shards, g[:maxSize:maxSize])
			g = g[maxSize:]
		}
		shards = append(shards, g)
	}
	return shards, source
}

// measuredPair is one measured pair: the canonical dense-index key
// (i<<32 | j, i<j) plus the latency seconds and complement-bandwidth
// captured while iterating the measurement maps, so pricing never has
// to resolve the pair through a map lookup again.
type measuredPair struct {
	key      uint64
	lat, cbw float64
}

// pairKV is one measurement keyed by packed canonical dense indices
// (i<<32 | j, i<j), the intermediate form for the sort-and-merge join
// of the latency and bandwidth maps.
type pairKV struct {
	key uint64
	val float64
}

// sortKVByKey sorts by key and dedupes, returning the (possibly
// shortened) slice. Both 32-bit key halves are dense node indices below
// n, so two stable counting-sort passes (low half, then high half)
// order the whole slice in O(len + n) — no comparisons. Duplicate keys
// cannot occur when the source map's keys are canonical, but if one
// ever appears the smaller value wins, which is independent of map
// iteration order.
func sortKVByKey(a []pairKV, n int) []pairKV {
	tmp := make([]pairKV, len(a))
	cnt := make([]int, n)
	scatter := func(src, dst []pairKV, shift uint) {
		clear(cnt)
		for _, e := range src {
			cnt[uint32(e.key>>shift)]++
		}
		total := 0
		for v := range cnt {
			cnt[v], total = total, total+cnt[v]
		}
		for _, e := range src {
			h := uint32(e.key >> shift)
			dst[cnt[h]] = e
			cnt[h]++
		}
	}
	scatter(a, tmp, 0)
	scatter(tmp, a, 32)
	out := a[:0]
	for _, e := range a {
		if len(out) > 0 && out[len(out)-1].key == e.key {
			if e.val < out[len(out)-1].val {
				out[len(out)-1] = e
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// measuredPairs is the one Equation 2 join: every pair among the model's
// nodes that has both a latency and a bandwidth measurement, sorted by
// packed dense-index key, with the latency seconds and the complement of
// available bandwidth against the nominal peak. It runs in O(measured +
// n) with no per-pair map lookups: each measurement map is iterated
// exactly once into a flat (packed key, value) array, both arrays are
// radix-sorted by key (keys are bounded by the node count, so sorting is
// not O(m log m)), and a linear merge joins latency with bandwidth.
// Re-resolving pairs through the 16-byte-key maps — or comparison-sorting
// them — dominated the whole model build in profiles. Sorting also keeps
// every later float accumulation independent of map iteration order. A
// snapshot with no usable pair at all is an error: the dense fill and
// the sharded build both price unmeasured pairs from the measured ones.
func measuredPairs(snap *metrics.Snapshot, m *CostModel) ([]measuredPair, error) {
	n := len(m.IDs)
	globalPeak := 0.0
	bw := make([]pairKV, 0, len(snap.Bandwidth))
	for k, pb := range snap.Bandwidth {
		i, ok := m.denseIndex(k.U)
		if !ok {
			continue
		}
		j, ok := m.denseIndex(k.V)
		if !ok {
			continue
		}
		// The "peak bandwidth" the paper complements against is the
		// network's nominal peak — one constant — so pairs rank by
		// available bandwidth; a pair's own bottleneck peak would make an
		// idle low-capacity path (a WAN link between clusters) look as
		// good as an idle local one. Take the best measured peak across
		// the model's pairs (max is order-independent).
		if pb.PeakBps > globalPeak {
			globalPeak = pb.PeakBps
		}
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		bw = append(bw, pairKV{uint64(i)<<32 | uint64(j), pb.AvailBps})
	}
	lt := make([]pairKV, 0, len(snap.Latency))
	for k, pl := range snap.Latency {
		i, ok := m.denseIndex(k.U)
		if !ok {
			continue
		}
		j, ok := m.denseIndex(k.V)
		if !ok {
			continue
		}
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		l := pl.Mean1 // LatencyOf's rule: 1-minute mean, else last sample
		if l <= 0 {
			l = pl.Last
		}
		lt = append(lt, pairKV{uint64(i)<<32 | uint64(j), l.Seconds()})
	}
	bw = sortKVByKey(bw, n)
	lt = sortKVByKey(lt, n)
	measured := make([]measuredPair, 0, min(len(bw), len(lt)))
	for bi, li := 0, 0; bi < len(bw) && li < len(lt); {
		switch {
		case bw[bi].key < lt[li].key:
			bi++
		case bw[bi].key > lt[li].key:
			li++
		default:
			c := globalPeak - bw[bi].val
			if c < 0 {
				c = 0
			}
			measured = append(measured, measuredPair{lt[li].key, lt[li].val, c})
			bi++
			li++
		}
	}
	if len(measured) == 0 {
		return nil, fmt.Errorf("alloc: no pairwise measurements available for %d nodes", n)
	}
	return measured, nil
}

// newShardModel builds the hierarchical NL layer for the given shard
// partition: per-shard sub-matrices whose entries equal the dense
// NLUnit values for the same pairs, and the shard×shard aggregate.
// Construction is O(Σ sᵢ² + measured pairs) — never O(n²) — and
// deterministic (measured pairs are sorted before any float
// accumulation). It fails like networkLoadsDense when the snapshot has
// no usable pairwise measurements at all.
func newShardModel(snap *metrics.Snapshot, m *CostModel, shards [][]int, source string) (*shardModel, error) {
	n := len(m.IDs)
	S := len(shards)
	sm := &shardModel{source: source, shards: shards,
		shardOf: make([]int, n), posOf: make([]int, n)}
	for s, members := range shards {
		for pos, i := range members {
			sm.shardOf[i] = s
			sm.posOf[i] = pos
		}
	}

	measured, err := measuredPairs(snap, m)
	if err != nil {
		return nil, err
	}

	// The dense path sum-normalizes each term over all n(n-1)/2 pairs,
	// pricing unmeasured pairs at the worst measured values. Those sums
	// are reproduced exactly from the measured pairs alone — sum =
	// measured + worst·(#unmeasured) — so every hierarchical NL value
	// below IS the dense NLUnit of the same pair, and the sharded greedy
	// ranks pairs identically to the dense greedy. (An earlier draft
	// normalized over the sampled collection instead, which skewed the
	// latency/bandwidth mix and reordered pairs relative to dense.)
	measLat, measCbw := 0.0, 0.0
	worstLat, worstCbw := 0.0, 0.0
	for _, p := range measured {
		measLat += p.lat
		measCbw += p.cbw
		if p.lat > worstLat {
			worstLat = p.lat
		}
		if p.cbw > worstCbw {
			worstCbw = p.cbw
		}
	}
	npairs := n * (n - 1) / 2
	unmeasured := float64(npairs - len(measured))
	latSum := measLat + worstLat*unmeasured
	cbwSum := measCbw + worstCbw*unmeasured
	// The dense NLUnit is the pair value rescaled to mean 1 over all
	// pairs (rescaleMeanPairDense). Each sum-normalized term totals
	// exactly 1 over the full pair set, so that mean has the closed form
	// (wL·1⟦latSum>0⟧ + wB·1⟦cbwSum>0⟧)/npairs — no O(n²) pass needed.
	meanV := 0.0
	if latSum > 0 {
		meanV += m.Weights.Latency
	}
	if cbwSum > 0 {
		meanV += m.Weights.Bandwidth
	}
	meanV /= float64(npairs)
	denseNL := func(lat, cbw float64) float64 {
		v := 0.0
		if latSum > 0 {
			v += m.Weights.Latency * lat / latSum
		}
		if cbwSum > 0 {
			v += m.Weights.Bandwidth * cbw / cbwSum
		}
		if meanV > 0 {
			v /= meanV
		}
		return v
	}
	worstVal := denseNL(worstLat, worstCbw)

	// Sub-matrices: every intra-shard pair starts at the worst observed
	// value (the dense path's price for a never-measured pair), then one
	// sweep over the sorted measured list overwrites the measured entries
	// and accumulates up to maxBoundarySamples boundary samples per shard
	// pair — no map lookups, no intermediate pair list.
	sm.sub = make([][]float64, S)
	for s, members := range shards {
		size := len(members)
		sub := make([]float64, size*size)
		for a := range sub {
			sub[a] = worstVal
		}
		for p := 0; p < size; p++ {
			sub[p*size+p] = 0
		}
		sm.sub[s] = sub
	}
	crossSum := make([]float64, S*S)
	crossCnt := make([]int, S*S)
	for _, p := range measured {
		i, j := int(p.key>>32), int(p.key&0xffffffff)
		si, sj := sm.shardOf[i], sm.shardOf[j]
		v := denseNL(p.lat, p.cbw)
		if si == sj {
			size := len(shards[si])
			a, b := sm.posOf[i], sm.posOf[j]
			sm.sub[si][a*size+b] = v
			sm.sub[si][b*size+a] = v
			continue
		}
		if si > sj {
			si, sj = sj, si
		}
		if crossCnt[si*S+sj] >= maxBoundarySamples {
			continue
		}
		crossSum[si*S+sj] += v
		crossCnt[si*S+sj]++
	}

	// Aggregates: mean intra NL on the diagonal (over all pairs, the
	// worst-filled unmeasured ones included), mean sampled boundary NL off
	// it; shard pairs with no measured boundary price at the worst
	// observed value (a never-measured link is assumed bad, not free).
	sm.agg = make([]float64, S*S)
	for s, members := range shards {
		size := len(members)
		if np := size * (size - 1) / 2; np > 0 {
			sum := 0.0
			sub := sm.sub[s]
			for a := 0; a < size; a++ {
				for b := a + 1; b < size; b++ {
					sum += sub[a*size+b]
				}
			}
			sm.agg[s*S+s] = sum / float64(np)
		}
		// else: single-node shard, no internal network cost (stays 0)
	}
	for sa := 0; sa < S; sa++ {
		for sb := sa + 1; sb < S; sb++ {
			v := worstVal
			if crossCnt[sa*S+sb] > 0 {
				v = crossSum[sa*S+sb] / float64(crossCnt[sa*S+sb])
			}
			sm.agg[sa*S+sb] = v
			sm.agg[sb*S+sa] = v
		}
	}
	return sm, nil
}

// pairNL prices the network load between dense indices i and j under the
// hierarchy: the exact sub-matrix entry when they share a shard, the
// shard-pair boundary aggregate otherwise.
func (sm *shardModel) pairNL(i, j int) float64 {
	si, sj := sm.shardOf[i], sm.shardOf[j]
	if si == sj {
		size := len(sm.shards[si])
		return sm.sub[si][sm.posOf[i]*size+sm.posOf[j]]
	}
	return sm.agg[si*sm.numShards()+sj]
}

// Sharded reports whether the model prices network load hierarchically
// (per-shard sub-matrices + aggregates) instead of via the full n×n
// matrix.
func (m *CostModel) Sharded() bool { return m.shard != nil }

// ShardInfo describes an active sharding layer: shard count and the
// partition's source ("topology"-style plan label or "hash"). Zero/empty
// on dense models.
func (m *CostModel) ShardInfo() (shards int, source string) {
	if m.shard == nil {
		return 0, ""
	}
	return m.shard.numShards(), m.shard.source
}

// TakeShardSpills drains and returns the count of candidates that
// crossed shard boundaries since the last call (0 on dense models). The
// broker surfaces it as an obs counter.
func (m *CostModel) TakeShardSpills() uint64 {
	if m.shard == nil {
		return 0
	}
	return m.shard.spills.Swap(0)
}

// NewCostModelSharded derives the cost model for snap like NewCostModel,
// but prices network load hierarchically — per-shard dense sub-matrices
// plus a shard×shard aggregate, O(Σ sᵢ² + measurements) instead of O(n²)
// — once the live-node count reaches opts.Threshold. Below the threshold
// (or with the zero options) it is exactly NewCostModel: the dense
// exhaustive path, bit for bit. The options are retained on the model so
// rebuilds (weight changes, reservation-charged snapshots) stay sharded.
// The bool is ignored, as in NewCostModel.
func NewCostModelSharded(snap *metrics.Snapshot, w Weights, _ bool, opts ShardOptions) *CostModel {
	ids := MonitoredLivehosts(snap)
	if !opts.active(len(ids)) {
		m := NewCostModel(snap, w, false)
		m.shardOpts = opts
		return m
	}
	eff := opts.withDefaults()
	m := newComputeModel(snap, ids, w)
	m.shardOpts = opts
	shards, source := buildShards(ids, eff.Plan, eff.MaxShardSize)
	m.shard, m.nlErr = newShardModel(snap, m, shards, source)
	return m
}

// NewLike builds a cost model for snap priced with weights w,
// preserving m's sharding options — the rebuild path modelFor and the
// reserving policy use so a charged or re-priced snapshot keeps the
// hierarchical representation.
func (m *CostModel) NewLike(snap *metrics.Snapshot, w Weights) *CostModel {
	return NewCostModelSharded(snap, w, false, m.shardOpts)
}

// shardScratch is one worker's reusable buffers for hierarchical
// candidate generation: the kernel scratch plus per-shard grouping
// state for the grouped network-cost accumulation.
type shardScratch struct {
	genScratch
	perShard  [][]int
	touched   []int
	inTouched []bool
}

// growShards sizes the grouping state for S shards.
func (sc *shardScratch) growShards(s int) {
	if len(sc.perShard) < s {
		sc.perShard = make([][]int, s)
		sc.touched = make([]int, 0, s)
		sc.inTouched = make([]bool, s)
	}
}

// allocateSharded is the two-level Algorithm 1 over a sharded model.
// Level 1 scouts every shard (Algorithm 1 confined to the shard's exact
// sub-matrix), ranks shards by their best local candidate's raw cost,
// and keeps the top-k; level 2
// runs the paper's per-start greedy generation over the union of the
// top-k shards' nodes, pricing pairs hierarchically (exact sub-matrix
// within a shard, boundary aggregate across), and spills into the
// remaining ranked shards only when the union cannot satisfy req.Procs.
// Algorithm 2 then scores the generated candidates exactly as the dense
// path does. The returned candidate list covers only the union's start
// nodes — the point of the hierarchy is not scoring one candidate per
// cluster node. set is the caller's reused buffer for the union.
func (p NetLoadAware) allocateSharded(m *CostModel, req Request, set *candSet) (Candidate, []Candidate, error) {
	sm := m.shard
	S := sm.numShards()
	caps := m.caps(req)

	// Members of every shard ordered by compute load: the spill fill
	// reads it (within one spill shard the boundary NL term is constant,
	// so the addition cost α·CL(u) + β·boundary(s,t) orders by CL).
	byCL := make([][]int, S)
	scoutWork := 0 // every member of a shard seeds a pass over its members
	for s, members := range sm.shards {
		order := append([]int(nil), members...)
		slices.SortFunc(order, byCostThenIdx(m.CLUnit))
		byCL[s] = order
		scoutWork += len(members) * len(members)
	}

	// Level 1: each shard is scouted by running Algorithm 1 confined to
	// its members over its exact sub-matrix, and ranked by the raw cost
	// of its best local candidate. Statistical aggregates (mean CL, mean
	// intra NL) rank poorly because the groups the paper's greedy builds
	// are small — a shard is exactly as good as the best sub-group it
	// contains, which the scout measures directly. Total scout work is
	// O(Σ sᵢ²), the same order as building the sub-matrices. The scouts
	// also accumulate each start's candidate costs, approximating the
	// normalization sums Algorithm 2 would see over all n dense starts.
	score := make([]float64, S)
	sumCs := make([]float64, S)
	sumNs := make([]float64, S)
	parallelFor(&genPool, S, scoutWork, func(sc *genScratch, s int) {
		score[s], sumCs[s], sumNs[s] = p.scoutShard(m, s, caps, req, sc)
	})
	sumC, sumN := 0.0, 0.0
	for s := 0; s < S; s++ { // shard order: deterministic accumulation
		sumC += sumCs[s]
		sumN += sumNs[s]
	}
	rank := sortIdxByCost(score)
	topK := m.shardOpts.withDefaults().TopK
	if topK > S {
		topK = S
	}
	// Level 2: the search universe is the union of the top-k shards'
	// members (rank order, ascending within a shard). A candidate can
	// mix nodes across the searched shards exactly like the dense path
	// mixes across the whole cluster, with pair costs priced through the
	// hierarchy. Shards outside the top-k only receive nodes via spill
	// (rank order, cheapest CL first within each).
	var union []int
	for k := 0; k < topK; k++ {
		union = append(union, sm.shards[rank[k]]...)
	}
	if len(union) == 0 {
		return Candidate{}, nil, fmt.Errorf("alloc: net-load-aware: no candidate produced")
	}
	spillShards := rank[topK:]
	set.build(m, union, caps, req.Alpha)
	candidates := make([]Candidate, len(union))
	parallelFor(&shardPool, len(union), len(union)*len(set.idx), func(sc *shardScratch, i int) {
		candidates[i] = p.generateSharded(m, union[i], set, caps, req, spillShards, byCL, sc)
	})

	// Score with the scout-estimated normalization sums: Algorithm 2
	// divides by the candidate set's total compute and network costs, and
	// the union's candidates are a biased (uniformly good) subset — their
	// own sums would skew the α/β mix relative to the dense path's
	// n-candidate set. The scouts' per-start candidates stand in for the
	// dense candidate set instead.
	bestIdx, err := scoreCandidatesNormed(candidates, req, sumC, sumN)
	if err != nil {
		return Candidate{}, nil, err
	}
	return candidates[bestIdx], candidates, nil
}

// scoutShard runs the paper's greedy generation confined to shard s —
// every member as a start, over the shard's positive-capacity members —
// and returns the raw Equation-4 group cost of its best local candidate
// (α·Σ CL + β·Σ intra-pair NL) plus the summed compute and network costs
// of every start's local candidate, the shard's contribution to the
// Algorithm 2 normalization estimate. When the shard's free capacity
// cannot cover the request, costs are extrapolated linearly to req.Procs
// so partially-covering shards stay comparable; a shard with no usable
// capacity scores +Inf and sorts last.
func (p NetLoadAware) scoutShard(m *CostModel, s int, caps []int, req Request, sc *genScratch) (best, sumC, sumN float64) {
	sm := m.shard
	members, sub := sm.shards[s], sm.sub[s]
	set := &sc.set
	set.build(m, members, caps, req.Alpha)
	best = math.Inf(1)
	if len(set.idx) == 0 {
		return best, 0, 0
	}
	// Seed and candidates share shard s, so both the addition costs and
	// the pairwise N_G read its sub-matrix rows directly; going through
	// selectFrom/pairCosts would re-resolve the shard of every pair
	// (measured about +5 % and +20 % on the 16×64 shape).
	size := len(members)
	sc.grow(set)
	addCost := sc.addCost[:len(set.idx)]
	for pv, v := range members {
		row := sub[pv*size : (pv+1)*size]
		for k, u := range set.idx {
			if u == v {
				addCost[k] = 0 // A_v(v) = 0
			} else {
				addCost[k] = set.alphaCL[k] + req.Beta*row[sm.posOf[u]]
			}
		}
		remaining := sc.take(sc.coverPrefix(addCost, set, req.Procs), set, req.Procs)
		c, nn := 0.0, 0.0
		for a, i := range sc.used {
			c += m.CLUnit[i]
			ri := sub[sm.posOf[i]*size : (sm.posOf[i]+1)*size]
			for _, j := range sc.used[a+1:] {
				nn += ri[sm.posOf[j]]
			}
		}
		if remaining > 0 {
			scale := float64(req.Procs) / float64(req.Procs-remaining)
			c *= scale
			nn *= scale
		}
		sumC += c
		sumN += nn
		if cost := req.Alpha*c + req.Beta*nn; cost < best {
			best = cost
		}
	}
	return best, sumC, sumN
}

// generateSharded builds the candidate sub-graph seeded at dense index v:
// the kernel's selection over set — the union of the searched (top-k)
// shards' members, pair costs priced through the hierarchy (exact
// sub-matrix within a shard, boundary aggregate across) — then
// rank-ordered spill into the unsearched shards when the union's
// capacity cannot cover the request, then the round-robin remainder.
// The candidate's NetworkCost prices same-shard pairs exactly and
// cross-shard pairs at the boundary aggregate, grouped per shard pair so
// cost accumulation is O(Σ kₛ² + S²) instead of O(k²).
func (p NetLoadAware) generateSharded(m *CostModel, v int, set *candSet, caps []int, req Request, spillShards []int, byCL [][]int, sc *shardScratch) Candidate {
	sm := m.shard
	remaining := sc.selectFrom(m, v, set, req)
	searched := len(sc.used)
	for _, t := range spillShards {
		sc.used, sc.counts, remaining = takeIdx(byCL[t], caps, remaining, sc.used, sc.counts)
	}
	spilled := len(sc.used) > searched
	roundRobin(sc.counts, remaining)
	if spilled {
		sm.spills.Add(1)
	}

	nodes, procs := indicesToAllocation(m.IDs, sc.used, sc.counts)
	cand := Candidate{Start: m.IDs[v], Nodes: nodes, Procs: procs, Spill: spilled}
	for _, i := range sc.used {
		cand.ComputeCost += m.CLUnit[i]
	}

	// Grouped network cost: selected indices bucketed per shard (buckets
	// keep selection order; touched shards sort ascending so float
	// accumulation is deterministic).
	S := sm.numShards()
	sc.growShards(S)
	touched := sc.touched[:0]
	for _, i := range sc.used {
		t := sm.shardOf[i]
		if !sc.inTouched[t] {
			sc.inTouched[t] = true
			touched = append(touched, t)
		}
		sc.perShard[t] = append(sc.perShard[t], i)
	}
	sort.Ints(touched)
	for a := 0; a < len(touched); a++ {
		ta := touched[a]
		ga := sc.perShard[ta]
		sizeA := len(sm.shards[ta])
		for x := 0; x < len(ga); x++ {
			for y := x + 1; y < len(ga); y++ {
				cand.NetworkCost += sm.sub[ta][sm.posOf[ga[x]]*sizeA+sm.posOf[ga[y]]]
			}
		}
		for b := a + 1; b < len(touched); b++ {
			tb := touched[b]
			cand.NetworkCost += float64(len(ga)*len(sc.perShard[tb])) * sm.agg[ta*S+tb]
		}
	}
	for _, t := range touched {
		sc.perShard[t] = sc.perShard[t][:0]
		sc.inTouched[t] = false
	}
	sc.touched = touched[:0]
	return cand
}
