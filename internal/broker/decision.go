package broker

import (
	"time"

	"nlarm/internal/alloc"
)

// NodeContribution is one chosen node's share of the decision's cost: its
// unit-mean Equation 1 compute cost and the sum of its unit-mean
// Equation 2 network costs against the other chosen nodes.
type NodeContribution struct {
	Node  int     `json:"node"`
	Procs int     `json:"procs"`
	CL    float64 `json:"cl"`
	NL    float64 `json:"nl"`
}

// CounterfactualCandidate is one rejected Algorithm 1 sub-graph retained
// in a decision record for regret analysis: the placement the broker
// considered and turned down, with the CL/NL sums it was priced at when
// the decision was made. Retention is opt-in (Config.CounterfactualK)
// and bounded to the k cheapest rejected candidates per decision.
type CounterfactualCandidate struct {
	// Start is the candidate's seed node (v in Algorithm 1).
	Start int `json:"start"`
	// Nodes are the candidate's selected nodes in addition order.
	Nodes []int `json:"nodes"`
	// ComputeCost is C_G = Σ CL over the candidate's nodes; NetworkCost
	// is N_G = Σ NL over its pairs (each pair once) — the same raw
	// Equation 1/2 sums the winner's ComputeCost/NetworkCost report, so
	// re-scoring chosen-vs-rejected under any α/β is a plain weighted sum.
	ComputeCost float64 `json:"cl"`
	NetworkCost float64 `json:"nl"`
	// TotalLoad is the candidate's Equation 4 score after Algorithm 2's
	// cross-candidate normalization at decision time.
	TotalLoad float64 `json:"total_load"`
	// Spill marks a hierarchically generated candidate that crossed shard
	// boundaries.
	Spill bool `json:"spill,omitempty"`
}

// DecisionRecord is the structured trace of one Allocate call — the
// machine-readable answer to "why did the broker pick these nodes". The
// broker retains the most recent records in a bounded ring served by the
// "decisions" wire action.
type DecisionRecord struct {
	// Seq numbers decisions from 1 in arrival order.
	Seq uint64 `json:"seq"`
	// At is the broker clock when the request arrived.
	At time.Time `json:"at"`

	// Request shape.
	Policy string  `json:"policy"`
	Procs  int     `json:"procs"`
	PPN    int     `json:"ppn,omitempty"`
	Alpha  float64 `json:"alpha,omitempty"`
	Beta   float64 `json:"beta,omitempty"`
	Forced bool    `json:"forced,omitempty"`

	// Outcome.
	Recommendation Recommendation `json:"recommendation,omitempty"`
	Error          string         `json:"error,omitempty"`
	Degraded       bool           `json:"degraded,omitempty"`
	DegradedReason string         `json:"degraded_reason,omitempty"`
	SnapshotAge    time.Duration  `json:"snapshot_age,omitempty"`
	ClusterLoad    float64        `json:"cluster_load_per_core,omitempty"`
	FreeProcs      int            `json:"free_procs,omitempty"`
	EarliestStart  time.Time      `json:"earliest_start,omitempty"`

	// How the answer was produced.
	Candidates int  `json:"candidates,omitempty"` // sub-graphs considered (model policies: one per live node)
	CacheHit   bool `json:"cache_hit,omitempty"`  // cost model served from the broker cache

	// The chosen group and its cost breakdown.
	Nodes         []int              `json:"nodes,omitempty"`
	Contributions []NodeContribution `json:"contributions,omitempty"`
	ComputeCost   float64            `json:"compute_cost,omitempty"` // Σ CL over chosen nodes
	NetworkCost   float64            `json:"network_cost,omitempty"` // Σ NL over chosen pairs
	TotalLoad     float64            `json:"total_load,omitempty"`   // policy-internal T_G of the winner

	// Counterfactuals holds the top-k rejected candidates with their
	// decision-time pricing (net-load-aware policy only, opt-in via
	// Config.CounterfactualK; omitted entirely at k=0 so existing decision
	// consumers and goldens see byte-identical records).
	Counterfactuals []CounterfactualCandidate `json:"counterfactuals,omitempty"`
}

// contributions derives per-node CL/NL shares for the chosen allocation
// from the priced cost model. Each pair's NL is charged to both of its
// endpoints, so NetworkCost (each pair once) is half the column sum.
// A nil model or a model whose CL/NL construction failed yields partial
// data — exactly what was actually priced.
func contributions(m *alloc.CostModel, a alloc.Allocation) (contribs []NodeContribution, computeCost, networkCost float64) {
	if len(a.Nodes) == 0 {
		return nil, 0, 0
	}
	contribs = make([]NodeContribution, 0, len(a.Nodes))
	idx := make([]int, len(a.Nodes))
	for i, node := range a.Nodes {
		idx[i] = -1
		if m != nil {
			if j, ok := m.IndexOf(node); ok {
				idx[i] = j
			}
		}
	}
	priceNL := m != nil && m.NLErr() == nil
	for i, node := range a.Nodes {
		c := NodeContribution{Node: node, Procs: a.Procs[node]}
		if j := idx[i]; j >= 0 {
			if j < len(m.CLUnit) {
				c.CL = m.CLUnit[j]
				computeCost += c.CL
			}
			if priceNL {
				// PairNLUnit dispatches on the model's representation —
				// flat matrix on dense models, the hierarchical shard
				// layer above the shard threshold — so sharded decisions
				// price their network cost instead of reporting zero.
				for k, other := range idx {
					if k == i || other < 0 {
						continue
					}
					c.NL += m.PairNLUnit(j, other)
				}
				networkCost += c.NL
			}
		}
		contribs = append(contribs, c)
	}
	return contribs, computeCost, networkCost / 2
}

// recordDecision appends one decision to the ring and bumps the outcome
// counters. Seq assignment and the ring append happen under one lock:
// batched allocates can finish decisions concurrently with single-request
// callers, and a Seq drawn outside the append's critical section could
// land in the ring out of Seq order.
func (b *Broker) recordDecision(rec DecisionRecord) {
	b.decMu.Lock()
	b.decSeq++
	rec.Seq = b.decSeq
	b.decisions.Append(rec)
	b.decMu.Unlock()
	b.obs.Counter("broker.allocate.total").Inc()
	switch {
	case rec.Error != "":
		b.obs.Counter("broker.allocate.errors").Inc()
	case rec.Recommendation == RecommendWait:
		b.obs.Counter("broker.allocate.wait").Inc()
	default:
		b.obs.Counter("broker.allocate.ok").Inc()
	}
	if rec.Degraded {
		b.obs.Counter("broker.allocate.degraded").Inc()
	}
}

// Decisions returns the most recent min(limit, retained) decision
// records, oldest first. limit <= 0 means all retained records.
func (b *Broker) Decisions(limit int) []DecisionRecord {
	if limit <= 0 {
		return b.decisions.Items()
	}
	return b.decisions.Last(limit)
}
