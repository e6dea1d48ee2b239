package alloc

import (
	"fmt"
	"slices"
	"sort"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
)

// GroupedNetLoadAware is the paper's scaling adaptation (§3.3.2: "our
// solution may need to be adapted for larger scale by grouping the nodes
// based on cluster topology and calculating inter-group bandwidth/latency
// so that P2P bandwidth/latency calculation requires less amount of
// communication") and the seed of its multi-cluster future work (§6).
//
// Nodes are partitioned into groups (typically by switch, or by cluster
// in a multi-cluster deployment). Candidate generation runs over groups
// using aggregated group compute loads and inter-group network loads —
// O(G² log G) instead of O(V² log V) — and the selected groups are then
// filled with their least-loaded nodes.
type GroupedNetLoadAware struct {
	// GroupOf maps a node ID to its group ID. Required. Typically
	// topology.SwitchOf or a cluster index.
	GroupOf func(node int) int
}

// Name implements Policy.
func (GroupedNetLoadAware) Name() string { return "grouped-net-load-aware" }

// groupInfo aggregates a group's members (as dense model indices) and
// costs.
type groupInfo struct {
	id       int
	members  []int // dense indices, sorted by compute load ascending
	capacity int
	// meanCL is the group's mean per-node compute load.
	meanCL float64
	// intraNL is the mean network load between the group's own pairs.
	intraNL float64
}

// AllocateModel implements Policy: the grouped heuristic over the
// dense indexed view — group aggregation, inter-group network loads, and
// candidate scoring all read the model's flat slices.
func (p GroupedNetLoadAware) AllocateModel(m *CostModel, req Request, r *rng.Rand) (Allocation, error) {
	if p.GroupOf == nil {
		return Allocation{}, fmt.Errorf("alloc: grouped: GroupOf is required")
	}
	req, err := req.Validate()
	if err != nil {
		return Allocation{}, err
	}
	m = modelFor(m, req)
	n := m.Len()
	if n == 0 {
		return Allocation{}, fmt.Errorf("alloc: grouped: no live monitored nodes")
	}
	if err := m.CLErr(); err != nil {
		return Allocation{}, err
	}
	if err := m.NLErr(); err != nil {
		return Allocation{}, err
	}
	if m.Sharded() {
		// The grouped heuristic defines its own aggregation over the dense
		// n×n matrix; a hierarchical model carries no NLUnit, so rebuild
		// densely (this policy is the paper's §3.3.2 sketch, kept for
		// comparison — the sharded allocator is its production successor).
		m = NewCostModel(m.Snap, req.Weights, req.UseForecast)
		if err := m.NLErr(); err != nil {
			return Allocation{}, err
		}
	}
	caps := m.caps(req)

	// Partition into groups (members are dense indices; index order is
	// node-ID order, so first-seen group order matches the map path).
	byGroup := make(map[int]*groupInfo)
	var groupIDs []int
	for i := 0; i < n; i++ {
		g := p.GroupOf(m.IDs[i])
		gi, ok := byGroup[g]
		if !ok {
			gi = &groupInfo{id: g}
			byGroup[g] = gi
			groupIDs = append(groupIDs, g)
		}
		gi.members = append(gi.members, i)
		gi.capacity += caps[i]
	}
	sort.Ints(groupIDs)
	for _, g := range groupIDs {
		gi := byGroup[g]
		slices.SortFunc(gi.members, byCostThenIdx(m.CLUnit))
		sum := 0.0
		for _, i := range gi.members {
			sum += m.CLUnit[i]
		}
		gi.meanCL = sum / float64(len(gi.members))
		gi.intraNL = m.meanPairNL(gi.members, gi.members, true)
	}

	// Inter-group network loads: the mean NL over cross pairs — the
	// paper's "inter-group bandwidth/latency".
	interNL := make(map[metrics.PairKey]float64, len(groupIDs)*(len(groupIDs)-1)/2)
	for i := 0; i < len(groupIDs); i++ {
		for j := i + 1; j < len(groupIDs); j++ {
			a, b := byGroup[groupIDs[i]], byGroup[groupIDs[j]]
			interNL[metrics.Pair(groupIDs[i], groupIDs[j])] = m.meanPairNL(a.members, b.members, false)
		}
	}

	// Candidate generation over groups (Algorithm 1 at group granularity).
	type groupCandidate struct {
		start  int
		groups []int
		total  float64
	}
	var best *groupCandidate
	var bestAlloc Allocation
	for _, start := range groupIDs {
		addCost := make(map[int]float64, len(groupIDs))
		for _, g := range groupIDs {
			if g == start {
				addCost[g] = 0
				continue
			}
			addCost[g] = req.Alpha*byGroup[g].meanCL + req.Beta*interNL[metrics.Pair(start, g)]
		}
		order := sortByCost(groupIDs, addCost)
		var chosen []int
		capacitySum := 0
		for _, g := range order {
			chosen = append(chosen, g)
			capacitySum += byGroup[g].capacity
			if capacitySum >= req.Procs {
				break
			}
		}
		// Score the candidate: α·(mean member CL) + β·(mean of intra- and
		// inter-group NL across the chosen groups).
		clSum, nodes := 0.0, 0
		netSum, netTerms := 0.0, 0
		for i, g := range chosen {
			gi := byGroup[g]
			clSum += gi.meanCL * float64(len(gi.members))
			nodes += len(gi.members)
			netSum += gi.intraNL
			netTerms++
			for j := i + 1; j < len(chosen); j++ {
				netSum += interNL[metrics.Pair(g, chosen[j])]
				netTerms++
			}
		}
		total := req.Alpha*clSum/float64(nodes) + req.Beta*netSum/float64(netTerms)
		if best == nil || total < best.total {
			cand := groupCandidate{start: start, groups: chosen, total: total}
			a, ok := p.fillGroups(m, chosen, byGroup, caps, req.Procs)
			if !ok {
				continue
			}
			best = &cand
			bestAlloc = a
		}
	}
	if best == nil {
		return Allocation{}, fmt.Errorf("alloc: grouped: no feasible candidate")
	}
	bestAlloc.Policy = p.Name()
	bestAlloc.TotalLoad = best.total
	return bestAlloc, nil
}

// fillGroups takes the chosen groups in order and assigns processes to
// their least-loaded nodes first, spilling round-robin if capacity runs
// short.
func (p GroupedNetLoadAware) fillGroups(m *CostModel, groups []int, byGroup map[int]*groupInfo, caps []int, procs int) (Allocation, bool) {
	var order []int
	for _, g := range groups {
		order = append(order, byGroup[g].members...)
	}
	used, counts := fillIdx(order, caps, procs)
	if len(used) == 0 {
		return Allocation{}, false
	}
	total := 0
	for _, v := range counts {
		total += v
	}
	if total < procs {
		return Allocation{}, false
	}
	nodes, assigned := indicesToAllocation(m.IDs, used, counts)
	return Allocation{Nodes: nodes, Procs: assigned}, true
}

// meanPairNL averages the model's NLUnit over pairs drawn from a×b (as
// dense indices); when same is true a and b are the same set and only
// distinct unordered pairs count.
func (m *CostModel) meanPairNL(a, b []int, same bool) float64 {
	width := len(m.IDs)
	sum, n := 0.0, 0
	if same {
		for i := 0; i < len(a); i++ {
			for j := i + 1; j < len(a); j++ {
				sum += m.NLUnit[a[i]*width+a[j]]
				n++
			}
		}
	} else {
		for _, x := range a {
			for _, y := range b {
				sum += m.NLUnit[x*width+y]
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
