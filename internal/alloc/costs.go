// Package alloc implements the paper's node-allocation policies: the
// network-and-load-aware heuristic (Algorithms 1 and 2) and the three
// baselines it is evaluated against (random, sequential, load-aware).
//
// All policies consume only the monitoring snapshot (metrics.Snapshot) —
// never simulator ground truth — and are deterministic given a snapshot,
// a request, and a random stream.
package alloc

import (
	"math"
	"sort"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/stats"
)

// Weights are the relative attribute weights of Equation 1 (compute load)
// and Equation 2 (network load). The compute-load weights should sum to 1,
// as should Latency+Bandwidth.
type Weights struct {
	// Equation 1 attribute weights (Table 1).
	CPULoad  float64 // minimize
	CPUUtil  float64 // minimize
	FlowRate float64 // minimize ("node bandwidth" in §5's weight list)
	AvailMem float64 // maximize (the paper weights "used memory"; available
	// memory with a maximize criterion is the same attribute)
	Cores    float64 // maximize
	Freq     float64 // maximize
	TotalMem float64 // maximize
	Users    float64 // minimize

	// Equation 2 weights.
	Latency   float64 // w_lt
	Bandwidth float64 // w_bw
}

// PaperWeights returns the exact weight values of §5: 0.3 CPU load,
// 0.2 CPU utilization, 0.2 node bandwidth (data-flow rate), 0.1 memory,
// 0.1 logical core count, 0.05 CPU clock, 0.05 total memory, and
// w_lt = 0.25, w_bw = 0.75.
func PaperWeights() Weights {
	return Weights{
		CPULoad:   0.3,
		CPUUtil:   0.2,
		FlowRate:  0.2,
		AvailMem:  0.1,
		Cores:     0.1,
		Freq:      0.05,
		TotalMem:  0.05,
		Users:     0,
		Latency:   0.25,
		Bandwidth: 0.75,
	}
}

// windowAvg collapses the 1/5/15-minute running means into the single
// attribute value used in the decision matrix (Table 1 lists the three
// windows as one attribute; we use their mean so both short spikes and
// sustained load register).
func windowAvg(w stats.Windowed) float64 {
	return (w.M1 + w.M5 + w.M15) / 3
}

// EffectiveProcs evaluates Equation 3 verbatim:
//
//	pc_v = coreCount_v − ⌈Load_v⌉ % coreCount_v
//
// where Load_v is the node's 1-minute average CPU load. The modulo makes
// the formula wrap for loads exceeding the core count — we keep the
// paper's exact arithmetic (it conveniently never yields less than one
// slot). When ppn > 0 the user's processes-per-node override wins. A
// node publishing a non-positive core count is treated as having one
// slot instead of dividing by zero.
func EffectiveProcs(na metrics.NodeAttrs, ppn int) int {
	return effProcs(na.Cores, na.CPULoad.M1, ppn)
}

// NodeFreeSlots returns the node's idle process slots:
//
//	max(0, coreCount_v − ⌈Load_v⌉)
//
// Unlike Equation 3 (EffectiveProcs) it does not wrap at the core count:
// a saturated node contributes zero slots instead of looking freshly
// empty. That makes it the right reading for aggregate free-capacity
// accounting (the job queue's backfill admission and the broker's
// Response.FreeProcs), where Equation 3's wrap would report a fully
// busy cluster as fully idle. A non-positive published core count is
// treated as one core, like effProcs.
func NodeFreeSlots(na metrics.NodeAttrs) int {
	cores := na.Cores
	if cores <= 0 {
		cores = 1
	}
	load := int(math.Ceil(na.CPULoad.M1))
	if load < 0 {
		load = 0
	}
	if load >= cores {
		return 0
	}
	return cores - load
}

// FreeSlots sums NodeFreeSlots over the snapshot's monitored livehosts —
// the cluster's aggregate free capacity estimate.
func FreeSlots(snap *metrics.Snapshot) int {
	total := 0
	for _, id := range snap.Livehosts {
		if na, ok := snap.Nodes[id]; ok {
			total += NodeFreeSlots(na)
		}
	}
	return total
}

// MonitoredLivehosts returns the snapshot's live nodes that also have
// published node state, sorted by ID — the universe every policy draws
// from.
func MonitoredLivehosts(snap *metrics.Snapshot) []int {
	var ids []int
	for _, id := range snap.Livehosts {
		if _, ok := snap.Nodes[id]; ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// StaleAfter reports whether the snapshot's node data is older than
// maxAge relative to the snapshot time (diagnostic guard for callers that
// want to refuse to allocate from a dead monitor).
func StaleAfter(snap *metrics.Snapshot, maxAge time.Duration) bool {
	for _, id := range snap.Livehosts {
		if na, ok := snap.Nodes[id]; ok {
			if snap.Taken.Sub(na.Timestamp) <= maxAge {
				return false
			}
		}
	}
	return true
}
