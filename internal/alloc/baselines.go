package alloc

import (
	"fmt"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
)

// The three baselines need only the universe (ids, ascending), Equation
// 3 capacities and — load-aware alone — Equation 1 costs. Allocate reads
// those off the snapshot and AllocateModel off a prebuilt model; neither
// prices the network (random placement must not pay for an n² mesh), and
// both share one body per policy so their results are identical.

// snapCaps evaluates Equation 3 for every id straight off the snapshot.
func snapCaps(snap *metrics.Snapshot, ids []int, req Request) []int {
	caps := make([]int, len(ids))
	for i, id := range ids {
		caps[i] = EffectiveProcs(snap.Nodes[id], req.PPN)
	}
	return caps
}

// Random allocation "randomly selects the required number of nodes from
// active nodes" (§5).
type Random struct{}

// Name implements Policy.
func (Random) Name() string { return "random" }

// Allocate implements Policy.
func (p Random) Allocate(snap *metrics.Snapshot, req Request, r *rng.Rand) (Allocation, error) {
	req, err := req.Validate()
	if err != nil {
		return Allocation{}, err
	}
	ids := MonitoredLivehosts(snap)
	return p.allocate(ids, snapCaps(snap, ids, req), req, r)
}

// AllocateModel implements ModelPolicy. Random selection needs only the
// model's index set and capacities — the dense view costs nothing here,
// but sharing it keeps the broker's dispatch uniform.
func (p Random) AllocateModel(m *CostModel, req Request, r *rng.Rand) (Allocation, error) {
	req, err := req.Validate()
	if err != nil {
		return Allocation{}, err
	}
	return p.allocate(m.IDs, m.caps(req), req, r)
}

func (Random) allocate(ids, caps []int, req Request, r *rng.Rand) (Allocation, error) {
	if len(ids) == 0 {
		return Allocation{}, fmt.Errorf("alloc: random: no live monitored nodes")
	}
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	used, counts := fillIdx(order, caps, req.Procs)
	nodes, procs := indicesToAllocation(ids, used, counts)
	return Allocation{Policy: "random", Nodes: nodes, Procs: procs}, nil
}

// Sequential allocation "first selects a random node and adds neighboring
// nodes (topologically) as required" (§5) — users picking consecutive
// hostnames. Node IDs order the cluster by physical proximity, so
// consecutive IDs are topological neighbours; the scan wraps around.
type Sequential struct{}

// Name implements Policy.
func (Sequential) Name() string { return "sequential" }

// Allocate implements Policy.
func (p Sequential) Allocate(snap *metrics.Snapshot, req Request, r *rng.Rand) (Allocation, error) {
	req, err := req.Validate()
	if err != nil {
		return Allocation{}, err
	}
	ids := MonitoredLivehosts(snap)
	return p.allocate(ids, snapCaps(snap, ids, req), req, r)
}

// AllocateModel implements ModelPolicy.
func (p Sequential) AllocateModel(m *CostModel, req Request, r *rng.Rand) (Allocation, error) {
	req, err := req.Validate()
	if err != nil {
		return Allocation{}, err
	}
	return p.allocate(m.IDs, m.caps(req), req, r)
}

// allocate walks ids from a random start, wrapping: ids ascend, so a
// wrapped position scan is exactly the topological neighbour walk.
func (Sequential) allocate(ids, caps []int, req Request, r *rng.Rand) (Allocation, error) {
	n := len(ids)
	if n == 0 {
		return Allocation{}, fmt.Errorf("alloc: sequential: no live monitored nodes")
	}
	start := r.Intn(n)
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		order = append(order, (start+i)%n)
	}
	used, counts := fillIdx(order, caps, req.Procs)
	nodes, procs := indicesToAllocation(ids, used, counts)
	return Allocation{Policy: "sequential", Nodes: nodes, Procs: procs}, nil
}

// LoadAware allocation "selects the group of nodes with minimal load"
// (§5): nodes sorted by compute load (Equation 1), network state ignored.
type LoadAware struct{}

// Name implements Policy.
func (LoadAware) Name() string { return "load-aware" }

// Allocate implements Policy.
func (p LoadAware) Allocate(snap *metrics.Snapshot, req Request, r *rng.Rand) (Allocation, error) {
	req, err := req.Validate()
	if err != nil {
		return Allocation{}, err
	}
	ids := MonitoredLivehosts(snap)
	if len(ids) == 0 {
		return Allocation{}, fmt.Errorf("alloc: load-aware: no live monitored nodes")
	}
	cl, err := computeLoadsDense(snap, ids, req.Weights, req.UseForecast)
	if err != nil {
		return Allocation{}, err
	}
	return p.allocate(ids, cl, snapCaps(snap, ids, req), req), nil
}

// AllocateModel implements ModelPolicy: nodes ordered by the model's raw
// Equation 1 costs, network state ignored.
func (p LoadAware) AllocateModel(m *CostModel, req Request, r *rng.Rand) (Allocation, error) {
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
	return p.allocate(m.IDs, m.CL, m.caps(req), req), nil
}

// allocate fills in ascending raw Equation 1 cost; TotalLoad is the
// chosen nodes' summed cost in selection order.
func (LoadAware) allocate(ids []int, cl []float64, caps []int, req Request) Allocation {
	used, counts := fillIdx(sortIdxByCost(cl), caps, req.Procs)
	nodes, procs := indicesToAllocation(ids, used, counts)
	total := 0.0
	for _, i := range used {
		total += cl[i]
	}
	return Allocation{Policy: "load-aware", Nodes: nodes, Procs: procs, TotalLoad: total}
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
