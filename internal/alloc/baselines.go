package alloc

import (
	"fmt"

	"nlarm/internal/rng"
)

// The three baselines need only the model's universe (ids, ascending),
// Equation 3 capacities and — load-aware alone — Equation 1 costs; none
// reads the network half, so a model whose NLErr is set still serves
// them.

// Random allocation "randomly selects the required number of nodes from
// active nodes" (§5).
type Random struct{}

// Name implements Policy.
func (Random) Name() string { return "random" }

// AllocateModel implements Policy: a shuffle of the model's index set,
// filled to Equation 3 capacities.
func (Random) AllocateModel(m *CostModel, req Request, r *rng.Rand) (Allocation, error) {
	req, err := req.Validate()
	if err != nil {
		return Allocation{}, err
	}
	if m.Len() == 0 {
		return Allocation{}, fmt.Errorf("alloc: random: no live monitored nodes")
	}
	order := make([]int, m.Len())
	for i := range order {
		order[i] = i
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	used, counts := fillIdx(order, m.caps(req), req.Procs)
	nodes, procs := indicesToAllocation(m.IDs, used, counts)
	return Allocation{Policy: "random", Nodes: nodes, Procs: procs}, nil
}

// Sequential allocation "first selects a random node and adds neighboring
// nodes (topologically) as required" (§5) — users picking consecutive
// hostnames. Node IDs order the cluster by physical proximity, so
// consecutive IDs are topological neighbours; the scan wraps around.
type Sequential struct{}

// Name implements Policy.
func (Sequential) Name() string { return "sequential" }

// AllocateModel implements Policy: a walk over the model's ids from a
// random start, wrapping — ids ascend, so a wrapped position scan is
// exactly the topological neighbour walk.
func (Sequential) AllocateModel(m *CostModel, req Request, r *rng.Rand) (Allocation, error) {
	req, err := req.Validate()
	if err != nil {
		return Allocation{}, err
	}
	n := m.Len()
	if n == 0 {
		return Allocation{}, fmt.Errorf("alloc: sequential: no live monitored nodes")
	}
	start := r.Intn(n)
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		order = append(order, (start+i)%n)
	}
	used, counts := fillIdx(order, m.caps(req), req.Procs)
	nodes, procs := indicesToAllocation(m.IDs, used, counts)
	return Allocation{Policy: "sequential", Nodes: nodes, Procs: procs}, nil
}

// LoadAware allocation "selects the group of nodes with minimal load"
// (§5): nodes sorted by compute load (Equation 1), network state ignored.
type LoadAware struct{}

// Name implements Policy.
func (LoadAware) Name() string { return "load-aware" }

// AllocateModel implements Policy: a fill in ascending order of the
// model's raw Equation 1 costs, network state ignored; TotalLoad is the
// chosen nodes' summed cost in selection order.
func (LoadAware) AllocateModel(m *CostModel, req Request, r *rng.Rand) (Allocation, error) {
	req, err := req.Validate()
	if err != nil {
		return Allocation{}, err
	}
	m = modelFor(m, req)
	if m.Len() == 0 {
		return Allocation{}, fmt.Errorf("alloc: load-aware: no live monitored nodes")
	}
	if err := m.CLErr(); err != nil {
		return Allocation{}, err
	}
	used, counts := fillIdx(sortIdxByCost(m.CL), m.caps(req), req.Procs)
	nodes, procs := indicesToAllocation(m.IDs, used, counts)
	total := 0.0
	for _, i := range used {
		total += m.CL[i]
	}
	return Allocation{Policy: "load-aware", Nodes: nodes, Procs: procs, TotalLoad: total}, nil
}

// indicesToAllocation maps a fill over positions of ids back to node IDs.
func indicesToAllocation(ids, used, counts []int) ([]int, map[int]int) {
	var nodes []int
	if len(used) > 0 {
		nodes = make([]int, len(used))
	}
	procs := make(map[int]int, len(used))
	for k, i := range used {
		nodes[k] = ids[i]
		procs[ids[i]] = counts[k]
	}
	return nodes, procs
}
