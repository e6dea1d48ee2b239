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
// candidate into a pre-assigned slice slot and the scoring pass
// (Algorithm 2) runs sequentially over the slice, so results are
// bit-identical to the sequential path.
//
// Without explain the dense path keeps only each candidate's costs and
// generates the winner a second time to materialise it, as
// AllocateConstrained does: one more greedy pass instead of a Nodes
// slice and a Procs map for each of the |V|-1 candidates the caller
// drops (two thirds of what a warm broker allocate allocated). Same
// costs into the same scoring, so the winner is the explain path's.
func (p NetLoadAware) allocate(m *CostModel, req Request, explain bool) (Candidate, []Candidate, error) {
	req, err := req.Validate()
	if err != nil {
		return Candidate{}, nil, err
	}
	m = modelFor(m, req)
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
	if m.Sharded() {
		return p.allocateSharded(m, req)
	}
	// Algorithm 1, once per start node: |V| candidates over one shared
	// candidate set. Each worker owns one scratch buffer set, reused
	// across all its start nodes.
	var set candSet
	set.build(m, nil, m.caps(req), req.Alpha)
	candidates := make([]Candidate, n)
	parallelFor(n, n*len(set.idx), func(sc *genScratch, v int) {
		candidates[v] = p.generate(m, v, &set, req, sc, explain)
	})

	bestIdx, err := scoreCandidates(candidates, req)
	if err != nil {
		return Candidate{}, nil, err
	}
	if !explain {
		best := p.generate(m, bestIdx, &set, req, new(genScratch), true)
		best.TotalLoad = candidates[bestIdx].TotalLoad
		return best, nil, nil
	}
	return candidates[bestIdx], candidates, nil
}

// scoreCandidates is Algorithm 2: normalize C_G and N_G across the
// generated candidates and return the index of the minimum-T_G one.
func scoreCandidates(candidates []Candidate, req Request) (int, error) {
	sumC, sumN := 0.0, 0.0
	for i := range candidates {
		sumC += candidates[i].ComputeCost
		sumN += candidates[i].NetworkCost
	}
	return scoreCandidatesNormed(candidates, req, sumC, sumN)
}

// scoreCandidatesNormed is Algorithm 2 with caller-supplied normalization
// sums: the sharded path passes scout-estimated totals over all n starts
// so its biased (uniformly good) candidate subset is scored on the same
// scale the dense path would use. Every candidate's TotalLoad is set.
func scoreCandidatesNormed(candidates []Candidate, req Request, sumC, sumN float64) (int, error) {
	k := len(candidates)
	buf := make([]float64, 3*k)
	costC, costN, total := buf[:k], buf[k:2*k], buf[2*k:]
	for i := range candidates {
		costC[i], costN[i] = candidates[i].ComputeCost, candidates[i].NetworkCost
	}
	bestIdx, err := scoreCosts(costC, costN, total, req, sumC, sumN)
	for i := range candidates {
		candidates[i].TotalLoad = total[i]
	}
	return bestIdx, err
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
// Candidate. materialise fills in the selection as node IDs; without it
// the candidate carries its costs only.
func (p NetLoadAware) generate(m *CostModel, v int, set *candSet, req Request, sc *genScratch, materialise bool) Candidate {
	c := Candidate{Start: m.IDs[v]}
	c.ComputeCost, c.NetworkCost = p.generateConstrained(m, v, set, req, sc)
	if materialise {
		c.Nodes, c.Procs = indicesToAllocation(m.IDs, sc.used, sc.counts)
	}
	return c
}
