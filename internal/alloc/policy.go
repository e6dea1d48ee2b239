package alloc

import (
	"fmt"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
)

// Request is a user's resource request: n processes, an optional
// processes-per-node override, the compute/communication balance (α, β of
// Equation 4, α+β=1), and the attribute weights.
type Request struct {
	// Procs is the total number of MPI processes (n).
	Procs int
	// PPN, when > 0, fixes the processes placed on every selected node,
	// overriding the effective-processor-count estimate (Equation 3).
	PPN int
	// Alpha weights compute load; set high for compute-bound jobs.
	Alpha float64
	// Beta weights network load; set high for communication-bound jobs.
	Beta float64
	// Weights are the attribute weights; zero value means PaperWeights.
	Weights Weights
}

// Validate checks the request and fills defaulted fields, returning the
// effective request.
func (r Request) Validate() (Request, error) {
	if r.Procs <= 0 {
		return r, fmt.Errorf("alloc: request for %d processes", r.Procs)
	}
	if r.PPN < 0 {
		return r, fmt.Errorf("alloc: negative ppn %d", r.PPN)
	}
	if r.Alpha == 0 && r.Beta == 0 {
		r.Alpha, r.Beta = 0.5, 0.5
	}
	// Written so that NaN fails too: NaN < 0 is false. Algorithm 1's
	// seed-alone step relies on β ≥ 0 holding for every valid request.
	if !(r.Alpha >= 0) || !(r.Beta >= 0) {
		return r, fmt.Errorf("alloc: negative or NaN α/β (%g, %g)", r.Alpha, r.Beta)
	}
	if sum := r.Alpha + r.Beta; sum < 0.999 || sum > 1.001 {
		return r, fmt.Errorf("alloc: α+β must be 1, got %g", sum)
	}
	if r.Weights == (Weights{}) {
		r.Weights = PaperWeights()
	}
	return r, nil
}

// Allocation is a policy's answer: the selected nodes and the process
// count assigned to each.
type Allocation struct {
	// Policy is the name of the policy that produced the allocation.
	Policy string
	// Nodes are the selected nodes in assignment order.
	Nodes []int
	// Procs maps node ID to the number of processes placed there.
	Procs map[int]int
	// TotalLoad is the policy's internal cost of the chosen group
	// (comparable only within one policy's candidates; diagnostic).
	TotalLoad float64
}

// TotalProcs returns the number of processes assigned.
func (a Allocation) TotalProcs() int {
	total := 0
	for _, p := range a.Procs {
		total += p
	}
	return total
}

// RankNodes expands the allocation into a per-rank node list (block
// assignment in node order), ready for mpisim.Placement.
func (a Allocation) RankNodes() []int {
	var out []int
	for _, n := range a.Nodes {
		for i := 0; i < a.Procs[n]; i++ {
			out = append(out, n)
		}
	}
	return out
}

// Policy selects a group of nodes for a request from a priced monitoring
// view: the CostModel carries the universe, Equation 3's inputs and the
// Equation 1/2 costs, and a policy reads only the parts it needs (random
// and sequential never look at a cost, so a model whose network half
// failed still serves them). Implementations must not mutate the model
// or its snapshot. The random stream carries all policy randomness so
// experiments are reproducible.
type Policy interface {
	Name() string
	AllocateModel(m *CostModel, req Request, r *rng.Rand) (Allocation, error)
}

// Allocate runs p on a snapshot nobody has priced yet: validate the
// request, build the dense cost model under its weights, allocate from
// it. Callers that allocate repeatedly against one
// snapshot (the broker, the simulator) keep the model and call
// AllocateModel themselves.
func Allocate(p Policy, snap *metrics.Snapshot, req Request, r *rng.Rand) (Allocation, error) {
	req, err := req.Validate()
	if err != nil {
		return Allocation{}, err
	}
	return p.AllocateModel(NewCostModel(snap, req.Weights, false), req, r)
}

// PaperPolicies returns the four policies of the paper's evaluation
// section in its presentation order — the set the broker registers, the
// experiments compare and the tables list.
func PaperPolicies() []Policy {
	return []Policy{Random{}, Sequential{}, LoadAware{}, NetLoadAware{}}
}

// Compile-time check for the one shipped policy PaperPolicies leaves out.
var _ Policy = (*ReservingPolicy)(nil)
