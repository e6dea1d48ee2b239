package alloc

import "slices"

// This file is Algorithm 1's greedy step, written once: build the
// start-independent candSet, fill the seed's addition costs and their
// span, then coverPrefix → take → roundRobin. The dense broker path
// (generate), the simulator's constrained path (generateConstrained) and
// the sharded union pass (generateSharded) price their costs through
// selectFrom; the shard scout fills them from its own sub-matrix row
// with fillRow, the dense fill's loop. What stays with a
// caller is only what is its own: the sharded spill continuation between
// take and roundRobin, materialising a Candidate, and its N_G
// accumulation order (pairwise or grouped per shard).

// candSet is the start-independent half of an Algorithm 1 call: the
// positive-capacity candidates in the caller's order (ascending dense
// index on dense models; rank-then-ascending for the sharded union),
// addressed by position. Zero-capacity nodes can never be selected, so they are
// dropped here once instead of being costed, heaped and popped on every
// seed. That cannot change a selection: ties break by position and the
// survivors keep their relative order, so they pop in the same order.
type candSet struct {
	idx  []int // dense model index of each position
	caps []int // rank capacity of each position, always > 0
	// alphaCL is α·CLUnit per position: the half of every addition cost
	// that does not depend on the seed, priced once per set.
	alphaCL []float64
	// alphaPos is whether every alphaCL is > 0 (a NaN makes it false):
	// one of selectFrom's seed-alone conditions.
	alphaPos bool
	maxCap   int // largest capacity; 0 exactly when the set is empty
	total    int // summed capacity
}

// reserve presizes the set's buffers for n positions.
func (set *candSet) reserve(n int) {
	if cap(set.idx) < n {
		set.idx = make([]int, 0, n)
		set.caps = make([]int, 0, n)
		set.alphaCL = make([]float64, 0, n)
	}
}

// build fills the set from universe (dense indices in the caller's
// order; nil means every model node) under the dense-indexed capacities
// caps. Buffers are reused across calls and sized to the universe up
// front: an append-grown set showed up as +6.5 % allocs/op on the
// broker's 60-node warm path.
func (set *candSet) build(m *CostModel, universe, caps []int, alpha float64) {
	n := len(universe)
	if universe == nil {
		n = len(caps)
	}
	set.reserve(n)
	set.idx, set.caps, set.alphaCL, set.maxCap, set.total = set.idx[:0], set.caps[:0], set.alphaCL[:0], 0, 0
	set.alphaPos = true
	for k := 0; k < n; k++ {
		u := k
		if universe != nil {
			u = universe[k]
		}
		c := caps[u]
		if c <= 0 {
			continue
		}
		a := alpha * m.CLUnit[u]
		set.idx = append(set.idx, u)
		set.caps = append(set.caps, c)
		set.alphaCL = append(set.alphaCL, a)
		set.alphaPos = set.alphaPos && a > 0
		set.total += c
		if c > set.maxCap {
			set.maxCap = c
		}
	}
}

// genScratch is one worker's reusable kernel buffers: the addition-cost
// vector, the selection heap, each position's histogram bucket and the
// prefix, the used/counts output, and the scout's shard-local position
// of each set position. Reusing them leaves a Candidate's own (escaping)
// Nodes slice and Procs map as the hot path's only per-candidate
// allocations. set is for callers that build one candSet per scratch
// (the scout per shard, the constrained path per call); the broker paths
// share one set across their workers instead.
type genScratch struct {
	addCost []float64
	heap    []int
	bucket  []int32
	sel     []int
	used    []int
	counts  []int
	local   []int
	set     candSet
}

// grow sizes the scratch for set's whole universe (the capacity build
// presized), not its current length, so a reused set that refills longer
// — the simulator's free-node set — never regrows it.
func (sc *genScratch) grow(set *candSet) {
	if n := cap(set.idx); cap(sc.addCost) < n {
		sc.addCost = make([]float64, n)
		sc.heap = make([]int, n)
		sc.bucket = make([]int32, n)
		sc.sel = make([]int, n)
		sc.used = make([]int, 0, n)
		sc.counts = make([]int, 0, n)
		sc.local = make([]int, n)
	}
}

// boundedHeapSquare picks coverPrefix's strategy from what the call
// already knows. At the set's mean capacity a covering prefix is about
// expect = ⌈procs·f / total⌉ of the f candidates long. The bounded
// max-heap pays per kept position and the histogram cut per candidate,
// so the prefix where they cross grows with f but more slowly:
// BenchmarkCoverPrefix puts it at 6–8 of 60, 12–16 of 256 and 16–24 of
// 1024 positions, which boundedHeapSquare·expect² ≤ f follows and no
// ratio f/expect does (DESIGN.md §7 has the table).
const boundedHeapSquare = 2

// coverPrefix returns the minimal covering prefix of the ascending
// (addCost, position) order over set: the fewest leading positions
// whose capacities sum to procs, or every position, in order, when the
// whole set cannot cover. The order is the strict total order of
// lessIdx, so both strategies below return the same positions in the
// same order. sp is the span of the costs the fill saw, which only the
// sorted strategy reads. The result aliases the scratch.
func (sc *genScratch) coverPrefix(addCost []float64, set *candSet, procs int, sp costSpan) []int {
	switch {
	case len(set.idx) == 0:
		return nil
	case set.sorted(procs):
		return sc.coverSorted(addCost, set.caps, procs, sp)
	}
	return sc.coverBounded(addCost, set, procs)
}

// sorted reports whether coverPrefix orders set for procs by its sorted
// strategy, the one that reads the fill's span; the fills track the
// span only then (on the simulator's short prefixes the tracking cost
// more than 5 % of a constrained decision).
func (set *candSet) sorted(procs int) bool {
	f := len(set.idx)
	if f == 0 {
		return false // no capacity at all; total is 0, so do not divide by it
	}
	expect := min((procs*f+set.total-1)/set.total, f)
	return boundedHeapSquare*expect*expect > f
}

// coverBounded is coverPrefix for a short prefix.
func (sc *genScratch) coverBounded(addCost []float64, set *candSet, procs int) []int {
	f := len(addCost)
	if set.maxCap >= procs {
		// The first position of the order is the (cost, position) minimum;
		// when it alone covers the request — the common case of small jobs
		// — it is the whole prefix and no ordering work is needed.
		best := 0
		for s := 1; s < f; s++ {
			if addCost[s] < addCost[best] {
				best = s
			}
		}
		if set.caps[best] >= procs {
			return append(sc.sel[:0], best)
		}
	}
	// Short prefix: one scan with a bounded max-heap. Keep a position only
	// while it beats the kept maximum or the kept set does not cover yet,
	// and evict the maximum while coverage survives without it. Most
	// positions cost one comparison against the heap root instead of
	// taking part in a full heapify. That comparison reads a cached root
	// cost and no position: s comes after every kept position, so it
	// loses a cost tie, and lessIdx(s, root) is c < rootCost.
	h := sc.heap[:0]
	total, rootCost := 0, 0.0
	for s, c := range addCost {
		if total >= procs && !(c < rootCost) {
			continue
		}
		h = append(h, s)
		siftUpMaxIdx(h, len(h)-1, addCost)
		total += set.caps[s]
		for len(h) > 1 && total-set.caps[h[0]] >= procs {
			total -= set.caps[h[0]]
			_, h = popMaxIdx(h, addCost)
		}
		rootCost = addCost[h[0]]
	}
	// Drain the max-heap back to front to recover ascending order.
	sel := sc.sel[:len(h)]
	for k := len(sel) - 1; k >= 0; k-- {
		sel[k], h = popMaxIdx(h, addCost)
	}
	return sel
}

// sortRun is the longest run orderRun sorts by insertion, and the
// longest set coverSorted orders as one bucket.
const sortRun = 16

// coverSorted is coverPrefix for a long prefix. One histogram over the
// fill's span, a bucket per position, counts the positions and sums the
// capacities of each bucket, and cuts at the first bucket whose running
// capacity reaches procs (or at the last, when the set cannot cover).
// bucket is monotone in cost, so the positions at or below the cut are a
// prefix of the (cost, position) order that covers procs, whole ties
// included. A counting sort places just those into sc.sel, in position
// order within a bucket, and orderRun finishes each bucket; the cut
// bucket is walked until capacity covers procs. The counts and sums
// borrow sc.used and sc.counts, which take overwrites. Where the span
// gives no scale, or the set is short, one bucket holds everything: no
// index is ever converted from NaN or Inf.
func (sc *genScratch) coverSorted(cost []float64, caps []int, procs int, sp costSpan) []int {
	f := len(cost)
	sel := sc.sel[:f]
	lo, scale, ok := sp.scale(f)
	if !ok || f <= sortRun {
		for s := range sel {
			sel[s] = s
		}
		orderRun(sel, cost)
		total := 0
		for k, s := range sel {
			if total += caps[s]; total >= procs {
				return sel[:k+1]
			}
		}
		return sel
	}
	top := f - 1
	bkt, count, capSum := sc.bucket[:f], sc.used[:f], sc.counts[:f]
	clear(count)
	clear(capSum)
	for s, c := range cost {
		b := bucket(c, lo, scale, top)
		bkt[s] = int32(b)
		count[b]++
		capSum[b] += caps[s]
	}
	cut, below := 0, 0 // below: the capacity of the buckets before the cut
	for cut < top && below+capSum[cut] < procs {
		below += capSum[cut]
		cut++
	}
	kept := 0
	for b := 0; b <= cut; b++ {
		count[b], kept = kept, kept+count[b]
	}
	for b := cut + 1; b <= top; b++ {
		count[b] = kept // past the cut every position lands on one spare slot
	}
	for s, b := range bkt { // in position order, which insertion then finds sorted
		k := count[b]
		sel[k] = s
		step := 0
		if int(b) <= cut {
			step = 1
		}
		count[b] = k + step
	}
	start := 0
	for _, end := range count[:cut] { // count[b] is now the end of bucket b
		if end-start > 1 {
			orderRun(sel[start:end], cost)
		}
		start = end
	}
	end := count[cut]
	orderRun(sel[start:end], cost)
	total := below
	for k := start; k < end; k++ {
		if total += caps[sel[k]]; total >= procs {
			return sel[:k+1]
		}
	}
	return sel[:end]
}

// take assigns procs over the selected positions in order, each taking
// up to its capacity, leaves the selection as dense indices in
// sc.used/sc.counts, and returns the processes still uncovered (the
// caller spills or round-robins them).
func (sc *genScratch) take(sel []int, set *candSet, procs int) (remaining int) {
	sc.used, sc.counts, remaining = takeIdx(sel, set.caps, procs, sc.used[:0], sc.counts[:0])
	for k, s := range sc.used {
		sc.used[k] = set.idx[s]
	}
	return remaining
}

// selectFrom is the greedy step seeded at dense index v: price every
// position's addition cost A_v(u) = α·CL(u) + β·NL(v,u), A_v(v) = 0,
// from the dense NLUnit row or through the shard hierarchy, and take the
// minimal covering prefix. The selection is left in sc.used/sc.counts;
// the return is the uncovered remainder.
//
// Seed-alone step: when the seed is in the set with capacity for the
// whole request, every α·CLUnit in the set is > 0, β ≥ 0 and the dense
// NL matrix is finite and non-negative, every other position's addition
// cost is > 0 = A_v(v), so the minimal covering prefix is the seed
// alone. That answer is found in O(log f) by binary search (dense sets
// ascend in dense index) instead of pricing f costs and scanning them.
// Where any condition fails, the scan below runs.
func (sc *genScratch) selectFrom(m *CostModel, v int, set *candSet, req Request) (remaining int) {
	sc.grow(set)
	if m.nlNonNeg && set.alphaPos && req.Beta >= 0 && set.maxCap >= req.Procs {
		if s, ok := slices.BinarySearch(set.idx, v); ok && set.caps[s] >= req.Procs {
			return sc.take(append(sc.sel[:0], s), set, req.Procs)
		}
	}
	sp := sc.fill(m, v, set, req.Beta, set.sorted(req.Procs))
	return sc.take(sc.coverPrefix(sc.addCost[:len(set.idx)], set, req.Procs, sp), set, req.Procs)
}

// fill prices seed v's addition costs over set into sc.addCost and, if
// track, returns their span. On a sharded model the seed's shard, its
// sub-matrix row and its aggregate row are resolved once, so a position
// costs one shard lookup and one of two reads: the same NL values
// pairNL returns, without resolving the seed again per position.
func (sc *genScratch) fill(m *CostModel, v int, set *candSet, beta float64, track bool) costSpan {
	addCost := sc.addCost[:len(set.idx)]
	if m.NLUnit != nil {
		n := m.Len()
		return fillRow(addCost, set.alphaCL, beta, m.NLUnit[v*n:(v+1)*n], set.idx, v, track)
	}
	sm := m.shard
	sv, pv := sm.shardOf[v], sm.posOf[v]
	size, S := len(sm.shards[sv]), sm.numShards()
	subRow, aggRow := sm.sub[sv][pv*size:(pv+1)*size], sm.agg[sv*S:(sv+1)*S]
	sp := emptySpan
	for s, u := range set.idx {
		if u == v {
			addCost[s] = 0
			continue
		}
		var nl float64
		if t := sm.shardOf[u]; t == sv {
			nl = subRow[sm.posOf[u]]
		} else {
			nl = aggRow[t]
		}
		c := set.alphaCL[s] + beta*nl
		addCost[s] = c
		if track {
			sp.see(c)
		}
	}
	return sp
}

// fillRow prices one seed's addition costs from its NL row:
// addCost[k] = alphaCL[k] + β·row[at[k]], and 0 where at[k] is the
// seed's own entry. If track, it returns the span of every cost but the
// seed's (else the empty span). The dense fill indexes the row by dense
// index, the scout by shard-local position.
func fillRow(addCost, alphaCL []float64, beta float64, row []float64, at []int, seed int, track bool) costSpan {
	sp := emptySpan
	for k, p := range at {
		if p == seed {
			addCost[k] = 0
			continue
		}
		c := alphaCL[k] + beta*row[p]
		addCost[k] = c
		if track {
			sp.see(c)
		}
	}
	return sp
}

// pairCosts returns C_G = Σ CLUnit and N_G = Σ NL over all pairs of the
// selection, both accumulated in selection order (float sums are
// order-sensitive and the determinism digests depend on this order).
func (m *CostModel) pairCosts(used []int) (cG, nG float64) {
	for _, i := range used {
		cG += m.CLUnit[i]
	}
	if m.NLUnit != nil {
		n := m.Len()
		for a, i := range used {
			for _, j := range used[a+1:] {
				nG += m.NLUnit[i*n+j]
			}
		}
	} else {
		for a, i := range used {
			for _, j := range used[a+1:] {
				nG += m.shard.pairNL(i, j)
			}
		}
	}
	return cG, nG
}
