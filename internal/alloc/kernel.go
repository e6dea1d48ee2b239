package alloc

// This file is Algorithm 1's greedy step, written once: build the
// start-independent candSet, fill the seed's addition costs, then
// coverPrefix → take → roundRobin. The dense broker path (generate), the
// simulator's constrained path (generateConstrained) and the sharded
// union pass (generateSharded) price their costs through selectFrom; the
// shard scout fills them from its own sub-matrix row. What stays with a
// caller is only what is its own: the sharded spill continuation between
// take and roundRobin, materialising a Candidate, and its N_G
// accumulation order (pairwise or grouped per shard).

// candSet is the start-independent half of an Algorithm 1 call: the
// positive-capacity candidates in the caller's order (ascending dense
// index; rank-then-ascending for the sharded union), addressed by
// position. Zero-capacity nodes can never be selected, so they are
// dropped here once instead of being costed, heaped and popped on every
// seed. That cannot change a selection: ties break by position and the
// survivors keep their relative order, so they pop in the same order.
type candSet struct {
	idx  []int // dense model index of each position
	caps []int // rank capacity of each position, always > 0
	// alphaCL is α·CLUnit per position: the half of every addition cost
	// that does not depend on the seed, priced once per set.
	alphaCL []float64
	maxCap  int // largest capacity; 0 exactly when the set is empty
	total   int // summed capacity
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
	if cap(set.idx) < n {
		set.idx = make([]int, 0, n)
		set.caps = make([]int, 0, n)
		set.alphaCL = make([]float64, 0, n)
	}
	set.idx, set.caps, set.alphaCL, set.maxCap, set.total = set.idx[:0], set.caps[:0], set.alphaCL[:0], 0, 0
	for k := 0; k < n; k++ {
		u := k
		if universe != nil {
			u = universe[k]
		}
		c := caps[u]
		if c <= 0 {
			continue
		}
		set.idx = append(set.idx, u)
		set.caps = append(set.caps, c)
		set.alphaCL = append(set.alphaCL, alpha*m.CLUnit[u])
		set.total += c
		if c > set.maxCap {
			set.maxCap = c
		}
	}
}

// genScratch is one worker's reusable kernel buffers: the addition-cost
// vector, the selection heap and prefix, and the used/counts output.
// Reusing them leaves a Candidate's own (escaping) Nodes slice and Procs
// map as the hot path's only per-candidate allocations. set is for
// callers that build one candSet per scratch (the scout per shard, the
// constrained path per call); the broker paths share one set across
// their workers instead.
type genScratch struct {
	addCost []float64
	heap    []int
	sel     []int
	used    []int
	counts  []int
	set     candSet
}

// grow sizes the scratch for set's whole universe (the capacity build
// presized), not its current length, so a reused set that refills longer
// — the simulator's free-node set — never regrows it.
func (sc *genScratch) grow(set *candSet) {
	if n := cap(set.idx); cap(sc.addCost) < n {
		sc.addCost = make([]float64, n)
		sc.heap = make([]int, n)
		sc.sel = make([]int, n)
		sc.used = make([]int, 0, n)
		sc.counts = make([]int, 0, n)
	}
}

// boundedHeapRatio picks coverPrefix's strategy from what the call
// already knows. At the set's mean capacity a covering prefix is about
// expect = ⌈procs·f / total⌉ of the f candidates long; the bounded
// max-heap wins when that is a small share of f and heapify-and-pop when
// it is not, crossing over between f/8 (f = 64) and f/18 (f = 1024) on
// the kernel alone. Neither strategy can serve every caller: measured
// alg-only on prebuilt models, bounded-everywhere costs +33 % on the
// 16×64 sharded shape and +50 % on the 60-node paper shape,
// heapify-everywhere +22 % on the 1024-node simulator policy run, and a
// capacity-weighted quickselect is worse than both.
const boundedHeapRatio = 16

// coverPrefix returns the minimal covering prefix of the ascending
// (addCost, position) order over set: the fewest leading positions
// whose capacities sum to procs, or every position, in order, when the
// whole set cannot cover. The order is the strict total order of
// lessIdx, so both strategies below return the same positions in the
// same order. The result aliases the scratch.
func (sc *genScratch) coverPrefix(addCost []float64, set *candSet, procs int) []int {
	f := len(set.idx)
	if f == 0 {
		return nil // no capacity at all; total is 0, so do not divide by it
	}
	if expect := (procs*f + set.total - 1) / set.total; boundedHeapRatio*expect > f {
		// Long prefix: heapify all f positions and pop ascending until the
		// popped capacity covers the request.
		h := sc.heap[:f]
		for s := range h {
			h[s] = s
		}
		heapifyIdx(h, addCost)
		sel := sc.sel[:0]
		for total := 0; total < procs && len(h) > 0; {
			var s int
			s, h = popIdx(h, addCost)
			sel = append(sel, s)
			total += set.caps[s]
		}
		return sel
	}
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
	// taking part in a full heapify.
	h := sc.heap[:0]
	total := 0
	for s := range addCost {
		if total >= procs && !lessIdx(addCost, s, h[0]) {
			continue
		}
		h = append(h, s)
		siftUpMaxIdx(h, len(h)-1, addCost)
		total += set.caps[s]
		for len(h) > 1 && total-set.caps[h[0]] >= procs {
			total -= set.caps[h[0]]
			_, h = popMaxIdx(h, addCost)
		}
	}
	// Drain the max-heap back to front to recover ascending order.
	sel := sc.sel[:len(h)]
	for k := len(sel) - 1; k >= 0; k-- {
		sel[k], h = popMaxIdx(h, addCost)
	}
	return sel
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
func (sc *genScratch) selectFrom(m *CostModel, v int, set *candSet, req Request) (remaining int) {
	sc.grow(set)
	addCost := sc.addCost[:len(set.idx)]
	if m.NLUnit != nil {
		n := m.Len()
		nlRow := m.NLUnit[v*n : (v+1)*n]
		for s, u := range set.idx {
			if u == v {
				addCost[s] = 0
			} else {
				addCost[s] = set.alphaCL[s] + req.Beta*nlRow[u]
			}
		}
	} else {
		for s, u := range set.idx {
			if u == v {
				addCost[s] = 0
			} else {
				addCost[s] = set.alphaCL[s] + req.Beta*m.shard.pairNL(v, u)
			}
		}
	}
	return sc.take(sc.coverPrefix(addCost, set, req.Procs), set, req.Procs)
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
