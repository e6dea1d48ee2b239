package alloc

import (
	"fmt"
	"math"

	"nlarm/internal/rng"
)

// NetLoadAware is the paper's contribution: the network and load-aware
// allocation heuristic. For every live node v it greedily grows a
// candidate sub-graph seeded at v by repeatedly adding the node u with
// the smallest addition cost A_v(u) = α·CL(u) + β·NL(v,u) until the
// requested process count is covered (Algorithm 1), then selects the
// candidate with the minimum total cost T_G = α·C_G,norm + β·N_G,norm
// (Algorithm 2, Equation 4).
type NetLoadAware struct{}

// Name implements Policy.
func (NetLoadAware) Name() string { return "net-load-aware" }

// Candidate is one generated sub-graph with its raw total costs, exposed
// for analysis and tests.
type Candidate struct {
	// Start is the seed node (v in Algorithm 1).
	Start int
	// Nodes are the selected nodes in addition order.
	Nodes []int
	// Procs maps node ID to assigned process count.
	Procs map[int]int
	// ComputeCost is C_G = Σ CL_u over the sub-graph's nodes.
	ComputeCost float64
	// NetworkCost is N_G = Σ NL(x,y) over all node pairs of the sub-graph.
	NetworkCost float64
	// TotalLoad is T_G after cross-candidate normalization.
	TotalLoad float64
	// Spill marks a hierarchically generated candidate that could not be
	// satisfied inside its seed shard and crossed shard boundaries
	// (always false on the exhaustive dense path).
	Spill bool `json:",omitempty"`
}

// AllocateModel implements Policy: the heuristic over a prebuilt
// cost model (the broker's cached Equation 1/2 evaluation), winner only.
func (p NetLoadAware) AllocateModel(m *CostModel, req Request, r *rng.Rand) (Allocation, error) {
	best, _, err := p.allocate(m, req, false)
	if err != nil {
		return Allocation{}, err
	}
	return Allocation{
		Policy:    p.Name(),
		Nodes:     best.Nodes,
		Procs:     best.Procs,
		TotalLoad: best.TotalLoad,
	}, nil
}

// AllocateExplainModel runs the full heuristic and additionally returns
// every candidate sub-graph with its costs (used by the analysis
// experiment of Figure 7, the broker's explain and counterfactual paths,
// and tests).
func (p NetLoadAware) AllocateExplainModel(m *CostModel, req Request) (Candidate, []Candidate, error) {
	return p.allocate(m, req, true)
}

// allocate runs Algorithms 1-2 over a prebuilt cost model. Candidate
// generation (Algorithm 1, one independent greedy sub-graph per start
// node) fans out across a bounded worker pool; every worker writes its
// candidate's C_G and N_G into a pre-assigned slot and the scoring pass
// (Algorithm 2) runs sequentially over them, so results are
// bit-identical to the sequential path.
//
// Without explain only the costs are kept and the winner is generated a
// second time to materialise it: one more greedy pass instead of a
// Candidate, a Nodes slice and a Procs map for each of the |V|-1
// candidates the caller drops. (AllocateConstrained keeps each seed's
// selection instead.) The candidate set, the cost slices and every
// kernel scratch come from pools.
func (p NetLoadAware) allocate(m *CostModel, req Request, explain bool) (Candidate, []Candidate, error) {
	req, err := req.Validate()
	if err != nil {
		return Candidate{}, nil, err
	}
	if !m.matches(req) {
		return Candidate{}, nil, errWeights
	}
	n := m.Len()
	if n == 0 {
		return Candidate{}, nil, fmt.Errorf("alloc: net-load-aware: no live monitored nodes")
	}
	if err := m.CLErr(); err != nil {
		return Candidate{}, nil, err
	}
	if err := m.NLErr(); err != nil {
		return Candidate{}, nil, err
	}
	sc := allocPool.Get().(*AllocScratch)
	defer allocPool.Put(sc)
	if m.Sharded() {
		return p.allocateSharded(m, req, sc, explain)
	}
	set := &sc.gen.set
	set.build(m, nil, m.caps(req), req.Alpha)
	costC, costN, total := sc.costBufs(n)
	var candidates []Candidate
	if explain {
		candidates = make([]Candidate, n)
	}
	parallelFor(&genPool, n, n*len(set.idx), func(w *genScratch, v int) {
		if explain {
			candidates[v] = p.generate(m, v, set, req, w)
			costC[v], costN[v] = candidates[v].ComputeCost, candidates[v].NetworkCost
		} else {
			costC[v], costN[v] = p.generateConstrained(m, v, set, req, w)
		}
	})
	sumC, sumN := 0.0, 0.0
	for v := range costC {
		sumC += costC[v]
		sumN += costN[v]
	}
	bestIdx, err := scoreCosts(costC, costN, total, req, sumC, sumN)
	if err != nil {
		return Candidate{}, nil, err
	}
	if explain {
		for v := range candidates {
			candidates[v].TotalLoad = total[v]
		}
		return candidates[bestIdx], candidates, nil
	}
	best := p.generate(m, bestIdx, set, req, &sc.gen)
	best.TotalLoad = total[bestIdx]
	return best, nil, nil
}

// scoreCosts is Algorithm 2 over parallel C_G/N_G slices: it writes
// T_G = α·C_G/sumC + β·N_G/sumN (Equation 4; a zero sum drops its term)
// into total and returns the index of the minimum. Comparison is strict
// <, so the first of equal candidates wins.
func scoreCosts(costC, costN, total []float64, req Request, sumC, sumN float64) (int, error) {
	bestIdx := -1
	minTotal := math.Inf(1)
	for i := range total {
		cNorm, nNorm := 0.0, 0.0
		if sumC > 0 {
			cNorm = costC[i] / sumC
		}
		if sumN > 0 {
			nNorm = costN[i] / sumN
		}
		total[i] = req.Alpha*cNorm + req.Beta*nNorm
		if total[i] < minTotal {
			minTotal = total[i]
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return 0, fmt.Errorf("alloc: net-load-aware: no candidate produced")
	}
	return bestIdx, nil
}

// generate builds the candidate sub-graph seeded at dense index v
// (Algorithm 1): generateConstrained's selection and costs, as a
// Candidate in node IDs.
func (p NetLoadAware) generate(m *CostModel, v int, set *candSet, req Request, sc *genScratch) Candidate {
	c := Candidate{Start: m.IDs[v]}
	c.ComputeCost, c.NetworkCost = p.generateConstrained(m, v, set, req, sc)
	c.Nodes, c.Procs = indicesToAllocation(m.IDs, sc.used, sc.counts)
	return c
}
