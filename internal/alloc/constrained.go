package alloc

import "fmt"

// ConstrainedAlloc is AllocateConstrained's answer, expressed in dense
// model indices so high-rate callers (the policy-fidelity simulator)
// never touch node-ID maps on the hot path.
type ConstrainedAlloc struct {
	// Start is the winning seed's dense index (v in Algorithm 1).
	Start int
	// Nodes are the selected dense indices in addition order; Counts[k]
	// ranks are placed on Nodes[k]. Both alias the scratch and are valid
	// only until the next AllocateConstrained call with the same scratch
	// — callers copy what they keep.
	Nodes  []int
	Counts []int
	// ComputeCost is C_G = Σ CLUnit over the selection; NetworkCost is
	// N_G = Σ pairwise NLUnit over the selection; TotalLoad is Equation 4
	// after normalization across the generated candidates.
	ComputeCost float64
	NetworkCost float64
	TotalLoad   float64
}

// AllocScratch owns the reusable buffers of one AllocateConstrained
// caller (one simulation run or sweep worker). The zero value is ready;
// buffers grow to the model size on first use and are reused afterwards,
// so steady-state decisions allocate nothing.
type AllocScratch struct {
	gen       genScratch
	costs     []float64 // C_G, N_G and T_G per seed, one backing array
	allStarts []int
	// kept holds every seed's selection, back to back: nodes and counts,
	// seed s's in [keptEnd[s-1], keptEnd[s]) (from 0 for s = 0).
	keptNodes, keptCounts, keptEnd []int
}

// costBufs returns the C_G, N_G and T_G slices for k candidates, one
// backing array reused across calls.
func (sc *AllocScratch) costBufs(k int) (costC, costN, total []float64) {
	if cap(sc.costs) < 3*k {
		sc.costs = make([]float64, 3*k)
	}
	return sc.costs[:k], sc.costs[k : 2*k], sc.costs[2*k : 3*k]
}

// AllocateConstrained runs Algorithms 1-2 over a prebuilt cost model
// with caller-supplied per-node capacities and a bounded start set: the
// seam the policy-fidelity simulator drives per scheduling decision.
//
// caps[i] is the rank capacity of dense index i (0 excludes the node —
// e.g. busy under exclusive allocation), replacing the model's own
// Equation 3 estimate. starts lists the dense indices to seed Algorithm
// 1 at; empty means every node (the paper's exhaustive sweep — on dense
// models then bit-identical in selection and costs to
// AllocateExplainModel's winner). With a k-bounded start set, Algorithm
// 2's normalization runs over those k candidates only, so the result is
// the paper's heuristic restricted to k seeds.
//
// The model must already be priced with the request's weights
// (errWeights otherwise). Results are written
// into sc's reused buffers (see ConstrainedAlloc); the call allocates
// nothing in steady state.
func (p NetLoadAware) AllocateConstrained(m *CostModel, req Request, caps []int, starts []int, sc *AllocScratch) (ConstrainedAlloc, error) {
	return p.AllocateConstrainedFree(m, req, caps, nil, starts, sc)
}

// AllocateConstrainedFree is AllocateConstrained over a free list the
// caller already holds: free lists, in ascending order, every dense
// index whose capacity is positive (others it lists are skipped), so the
// candidate set is built in O(|free|) instead of O(n). nil means every
// node. The answer is AllocateConstrained's, bit for bit.
func (p NetLoadAware) AllocateConstrainedFree(m *CostModel, req Request, caps, free, starts []int, sc *AllocScratch) (ConstrainedAlloc, error) {
	req, err := req.Validate()
	if err != nil {
		return ConstrainedAlloc{}, err
	}
	if !m.matches(req) {
		return ConstrainedAlloc{}, errWeights
	}
	n := m.Len()
	if n == 0 {
		return ConstrainedAlloc{}, fmt.Errorf("alloc: net-load-aware: no live monitored nodes")
	}
	if err := m.CLErr(); err != nil {
		return ConstrainedAlloc{}, err
	}
	if err := m.NLErr(); err != nil {
		return ConstrainedAlloc{}, err
	}
	if len(caps) != n {
		return ConstrainedAlloc{}, fmt.Errorf("alloc: constrained allocate: %d capacities for %d nodes", len(caps), n)
	}
	// The start-independent half of the call — a mostly-busy cluster
	// prices only its free nodes per seed. Presized to n, so a free list
	// that grows between calls never regrows the scratch.
	set := &sc.gen.set
	set.reserve(n)
	set.build(m, free, caps, req.Alpha)
	if len(starts) == 0 {
		if cap(sc.allStarts) < n {
			sc.allStarts = make([]int, n)
		}
		starts = sc.allStarts[:n]
		for i := range starts {
			starts[i] = i
		}
	}
	costC, costN, total := sc.costBufs(len(starts))

	// Algorithm 1: one greedy sub-graph per seed, its C_G and N_G, and its
	// selection kept so the winner needs no second generation.
	sc.keptNodes, sc.keptCounts, sc.keptEnd = sc.keptNodes[:0], sc.keptCounts[:0], sc.keptEnd[:0]
	sumC, sumN := 0.0, 0.0
	for s, v := range starts {
		if v < 0 || v >= n {
			return ConstrainedAlloc{}, fmt.Errorf("alloc: constrained allocate: start index %d outside [0,%d)", v, n)
		}
		costC[s], costN[s] = p.generateConstrained(m, v, set, req, &sc.gen)
		sumC += costC[s]
		sumN += costN[s]
		sc.keptNodes = append(sc.keptNodes, sc.gen.used...)
		sc.keptCounts = append(sc.keptCounts, sc.gen.counts...)
		sc.keptEnd = append(sc.keptEnd, len(sc.keptNodes))
	}

	// Algorithm 2 over the seeded candidates: with all starts the winner
	// matches the exhaustive path.
	best, err := scoreCosts(costC, costN, total, req, sumC, sumN)
	if err != nil {
		return ConstrainedAlloc{}, err
	}
	lo, hi := 0, sc.keptEnd[best]
	if best > 0 {
		lo = sc.keptEnd[best-1]
	}
	if lo == hi {
		return ConstrainedAlloc{}, fmt.Errorf("alloc: constrained allocate: no capacity for %d procs", req.Procs)
	}
	return ConstrainedAlloc{
		Start:       starts[best],
		Nodes:       sc.keptNodes[lo:hi:hi],
		Counts:      sc.keptCounts[lo:hi:hi],
		ComputeCost: costC[best],
		NetworkCost: costN[best],
		TotalLoad:   total[best],
	}, nil
}

// generateConstrained is Algorithm 1 seeded at dense index v over a
// prebuilt candidate set, on dense and sharded models alike: the
// kernel's selection, the round-robin remainder, and the pairwise costs.
// The selection is left in sc.used/sc.counts; the returns are C_G and
// N_G.
func (p NetLoadAware) generateConstrained(m *CostModel, v int, set *candSet, req Request, sc *genScratch) (cG, nG float64) {
	roundRobin(sc.counts, sc.selectFrom(m, v, set, req))
	return m.pairCosts(sc.used)
}
