package alloc

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/stats"
)

// CostModel is the dense, index-contiguous view of one snapshot's
// Equation 1/2 costs. Live monitored node IDs are remapped once to
// 0..n-1 (index order == ascending ID order), compute loads live in a
// plain []float64 and network loads in a flat n×n matrix, so the
// allocation hot path (Algorithms 1-2 over every start node) runs on
// cache-friendly slices instead of hashing map keys per lookup.
//
// The model is immutable after construction and safe to share across
// goroutines and across back-to-back allocations against the same
// snapshot (the broker caches one per snapshot generation).
//
// CL/NL construction can fail independently (e.g. a snapshot with no
// pairwise measurements still supports the random and sequential
// policies, which never price the network). Failures are recorded per
// metric and surfaced by the policies that need that metric.
type CostModel struct {
	// Snap is the snapshot the model was derived from.
	Snap *metrics.Snapshot
	// Weights records the pricing input the model was built with.
	Weights Weights
	// Taken mirrors Snap.Taken for cache bookkeeping.
	Taken time.Time

	// IDs maps index -> node ID, ascending (MonitoredLivehosts order).
	IDs []int
	idx map[int]int

	// CL holds raw Equation 1 costs by index; CLUnit is the mean-1
	// rescaled copy used by Algorithm 1 (see rescaleMeanDense).
	CL     []float64
	CLUnit []float64
	// NLUnit holds Equation 2 costs as a flat n×n symmetric matrix
	// (NLUnit[i*n+j]; diagonal zero), rescaled to mean 1 over its pairs.
	NLUnit []float64

	// Cores and LoadM1 are the dense inputs of Equation 3 so capacity
	// evaluation needs no snapshot map lookups.
	Cores  []int
	LoadM1 []float64

	// attrRows retains each node's raw Equation 1 attribute vector (the
	// SAW input matrix, index order) so UpdateNodes can replace k rows
	// and re-normalize without touching the snapshot's other n-k nodes.
	attrRows [][]float64

	// rowArena is scratch retained on models that serve as ChargeRanksAt
	// destinations, so repeated charges reuse one row arena instead of
	// allocating per call.
	rowArena []float64

	// colSums/colMaxs cache the raw per-column sums and maxima of
	// attrRows (numAttrCols wide, nil until first needed), reduced by
	// cacheColStats and consumed by ChargeRanksAt: charging k rows then
	// shifts the cached stats by the k deltas instead of re-reducing all n
	// rows.
	colSums []float64
	colMaxs []float64

	// shardOpts and shard carry the optional hierarchical network-load
	// layer (see NewCostModelSharded). A nil shard means the dense n×n
	// matrix above is authoritative; a non-nil shard means NLUnit is nil
	// and network load is priced per shard.
	shardOpts ShardOptions
	shard     *shardModel

	clErr error
	nlErr error
}

// NewCostModel derives the dense cost model from snap: the ID->index
// remap, Equation 1 costs over all live monitored nodes, Equation 2
// costs over all pairs, and their mean-1 rescaled copies. Construction
// itself never fails; metric-specific failures are reported by CLErr and
// NLErr so policies that do not need the failing metric keep working.
//
// The third argument is ignored: Equation 1 reads only the published
// running means. It remains because the benchmark module passes it by
// position, and goes when that module's call sites drop it.
func NewCostModel(snap *metrics.Snapshot, w Weights, _ bool) *CostModel {
	m := newComputeModel(snap, MonitoredLivehosts(snap), w)
	m.NLUnit, m.nlErr = networkLoadsDense(snap, m)
	if m.nlErr == nil {
		rescaleMeanPairDense(m.NLUnit, len(m.IDs))
	}
	return m
}

// newComputeModel builds the half of the model the dense and sharded
// constructors share: the ID->index remap, Equation 3's inputs, and
// Equation 1 costs with their mean-1 rescaled copy. The caller adds its
// network half.
func newComputeModel(snap *metrics.Snapshot, ids []int, w Weights) *CostModel {
	n := len(ids)
	m := &CostModel{
		Snap:    snap,
		Weights: w,
		Taken:   snap.Taken,
		IDs:     ids,
		idx:     make(map[int]int, n),
		Cores:   make([]int, n),
		LoadM1:  make([]float64, n),
	}
	for i, id := range ids {
		m.idx[id] = i
		na := snap.Nodes[id]
		m.Cores[i] = na.Cores
		m.LoadM1[i] = na.CPULoad.M1
	}
	m.attrRows, m.clErr = attrMatrix(snap, ids)
	if m.clErr == nil {
		m.CL, m.clErr = sawFromRows(w, m.attrRows)
	}
	if m.clErr == nil && n > 0 {
		m.CLUnit = append([]float64(nil), m.CL...)
		rescaleMeanDense(m.CLUnit)
	}
	return m
}

// Len returns the number of live monitored nodes in the model.
func (m *CostModel) Len() int { return len(m.IDs) }

// IndexOf returns the dense index of node id.
func (m *CostModel) IndexOf(id int) (int, bool) {
	i, ok := m.idx[id]
	return i, ok
}

// CLErr reports whether Equation 1 costs are available.
func (m *CostModel) CLErr() error { return m.clErr }

// NLErr reports whether Equation 2 costs are available.
func (m *CostModel) NLErr() error { return m.nlErr }

// effProcs is Equation 3 on dense inputs; see EffectiveProcs. A node
// publishing a non-positive core count is treated as having one slot
// (the paper's formula would divide by zero).
func effProcs(cores int, loadM1 float64, ppn int) int {
	if ppn > 0 {
		return ppn
	}
	if cores <= 0 {
		return 1
	}
	load := int(math.Ceil(loadM1))
	if load < 0 {
		load = 0
	}
	return cores - load%cores
}

// caps evaluates Equation 3 for every node under the request.
func (m *CostModel) caps(req Request) []int {
	caps := make([]int, len(m.IDs))
	for i := range caps {
		caps[i] = effProcs(m.Cores[i], m.LoadM1[i], req.PPN)
	}
	return caps
}

// matches reports whether the model was priced with the request's
// weights (guard against stale cache handoffs).
func (m *CostModel) matches(req Request) bool {
	return m.Weights == req.Weights
}

// modelFor returns m when it matches the validated request, otherwise
// rebuilds from the model's snapshot with m's sharding options preserved
// (callers hand the broker's cached model straight through; a mismatch
// means the cache key was wrong).
func modelFor(m *CostModel, req Request) *CostModel {
	if m.matches(req) {
		return m
	}
	return m.NewLike(m.Snap, req.Weights)
}

// sawAttrs is the fixed Equation 1 attribute schema under weights w.
func sawAttrs(w Weights) []stats.Attribute {
	return []stats.Attribute{
		{Name: "cpu_load", Weight: w.CPULoad, Criterion: stats.Minimize},
		{Name: "cpu_util", Weight: w.CPUUtil, Criterion: stats.Minimize},
		{Name: "flow_rate", Weight: w.FlowRate, Criterion: stats.Minimize},
		{Name: "avail_mem", Weight: w.AvailMem, Criterion: stats.Maximize},
		{Name: "cores", Weight: w.Cores, Criterion: stats.Maximize},
		{Name: "freq", Weight: w.Freq, Criterion: stats.Maximize},
		{Name: "total_mem", Weight: w.TotalMem, Criterion: stats.Maximize},
		{Name: "users", Weight: w.Users, Criterion: stats.Minimize},
	}
}

// Attribute-row geometry of the sawAttrs schema: the column count and
// the two columns reservation charging mutates (see ChargeRanksAt).
const (
	numAttrCols    = 8
	attrColCPULoad = 0
	attrColCPUUtil = 1
)

// attrRow is one node's raw Equation 1 attribute vector in sawAttrs
// column order.
func attrRow(na metrics.NodeAttrs) []float64 {
	row := make([]float64, numAttrCols)
	attrRowInto(na, row)
	return row
}

// attrRowInto fills a numAttrCols-wide row with na's raw Equation 1
// attribute vector — attrRow without the allocation. The dynamic
// attributes are priced at the mean of the three running means NodeStateD
// publishes, and at nothing else.
func attrRowInto(na metrics.NodeAttrs, row []float64) {
	row[0] = windowAvg(na.CPULoad)
	row[1] = windowAvg(na.CPUUtilPct)
	row[2] = windowAvg(na.FlowRateBps)
	row[3] = windowAvg(na.AvailMemMB)
	row[4] = float64(na.Cores)
	row[5] = na.FreqGHz
	row[6] = na.TotalMemMB
	row[7] = float64(na.Users)
}

// attrMatrix builds the SAW input matrix for ids (in the given order).
func attrMatrix(snap *metrics.Snapshot, ids []int) ([][]float64, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	matrix := make([][]float64, 0, len(ids))
	for _, id := range ids {
		na, ok := snap.Nodes[id]
		if !ok {
			return nil, fmt.Errorf("alloc: node %d has no published state", id)
		}
		matrix = append(matrix, attrRow(na))
	}
	return matrix, nil
}

// sawFromRows runs the SAW scoring over a prebuilt attribute matrix.
func sawFromRows(w Weights, rows [][]float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	costs, err := stats.SAWCosts(sawAttrs(w), rows)
	if err != nil {
		return nil, fmt.Errorf("alloc: compute loads: %w", err)
	}
	return costs, nil
}

// UpdateNodes derives the cost model for snap from m when snap differs
// from m's snapshot only in the dynamic attributes of the given node
// IDs: the network layer (NLUnit or the shard hierarchy, built from the
// unchanged matrices) is shared, the changed nodes' attribute rows are
// replaced, and the Equation 1 SAW scoring re-runs over the retained
// rows — an O(n·k + n·attrs) update instead of the O(n²) full rebuild,
// with bit-identical results because SAW normalization always
// re-accumulates every row in index order.
//
// ok=false means the precondition does not hold (different monitored
// node set, a changed ID the model does not know, a model built without
// usable CL data, or matrices that are not content-identical is the
// caller's responsibility) and the caller must rebuild from scratch.
func (m *CostModel) UpdateNodes(snap *metrics.Snapshot, changed []int) (*CostModel, bool) {
	if m.clErr != nil || m.attrRows == nil {
		return nil, false
	}
	ids := MonitoredLivehosts(snap)
	if !slices.Equal(ids, m.IDs) {
		return nil, false
	}
	u := &CostModel{}
	m.shareForUpdate(u)
	u.Snap, u.Taken = snap, snap.Taken
	for _, id := range changed {
		i, ok := m.idx[id]
		if !ok {
			return nil, false
		}
		na, ok := snap.Nodes[id]
		if !ok {
			return nil, false
		}
		u.Cores[i] = na.Cores
		u.LoadM1[i] = na.CPULoad.M1
		u.attrRows[i] = attrRow(na)
	}
	u.CL, u.clErr = sawFromRows(m.Weights, u.attrRows)
	if u.clErr == nil && len(ids) > 0 {
		u.CLUnit = append([]float64(nil), u.CL...)
		rescaleMeanDense(u.CLUnit)
	}
	return u, u.clErr == nil
}

// shareForUpdate points dst at m's immutable parts (IDs, index, the
// network layer) and refills its mutable buffers (Cores, LoadM1,
// attrRows) from m, reusing dst's backing arrays — the setup of
// UpdateNodes' fresh copy and of ChargeRanksAt's scratch-reusing
// destination.
func (m *CostModel) shareForUpdate(dst *CostModel) {
	dst.Snap = m.Snap
	dst.Weights = m.Weights
	dst.Taken = m.Snap.Taken
	dst.IDs = m.IDs
	dst.idx = m.idx
	dst.NLUnit = m.NLUnit
	dst.nlErr = m.nlErr
	dst.shardOpts = m.shardOpts
	dst.shard = m.shard
	dst.clErr = nil
	dst.Cores = append(dst.Cores[:0], m.Cores...)
	dst.LoadM1 = append(dst.LoadM1[:0], m.LoadM1...)
	dst.attrRows = append(dst.attrRows[:0], m.attrRows...)
}

// cacheColStats (re)reduces attrRows into the colSums/colMaxs cache.
// The model must have at least one row.
func (m *CostModel) cacheColStats() {
	if cap(m.colSums) < numAttrCols {
		m.colSums = make([]float64, numAttrCols)
		m.colMaxs = make([]float64, numAttrCols)
	}
	m.colSums, m.colMaxs = m.colSums[:numAttrCols], m.colMaxs[:numAttrCols]
	copy(m.colSums, m.attrRows[0])
	copy(m.colMaxs, m.attrRows[0])
	for _, row := range m.attrRows[1:] {
		for c, v := range row {
			m.colSums[c] += v
			if v > m.colMaxs[c] {
				m.colMaxs[c] = v
			}
		}
	}
}

// denseIndex resolves a node ID to its dense index, shortcutting the
// map lookup on the identity layouts simulation models use (IDs[i]==i).
func (m *CostModel) denseIndex(id int) (int, bool) {
	if id >= 0 && id < len(m.IDs) && m.IDs[id] == id {
		return id, true
	}
	i, ok := m.idx[id]
	return i, ok
}

// RefreshAttrs is the in-place, deferred-pricing sibling of UpdateNodes:
// it folds the changed nodes' published attributes into the model's own
// rows and re-reduces the cached column stats, but skips the Equation 1
// re-score, so CL/CLUnit keep their previous (now stale) values. It
// exists for callers that price every row they read through
// ChargeRanksAt — which scores from the attribute rows and column stats,
// never from the model's own CL — making the skipped re-score
// unobservable; the policy-fidelity simulator refreshes this way at the
// monitor cadence. snap must describe the same monitored set as the
// model, and any model previously derived from m via ChargeRanksAt must
// be re-derived afterwards, not reused.
func (m *CostModel) RefreshAttrs(snap *metrics.Snapshot, changed []int) bool {
	if m.clErr != nil || m.attrRows == nil {
		return false
	}
	m.Snap = snap
	m.Taken = snap.Taken
	for _, id := range changed {
		i, ok := m.denseIndex(id)
		if !ok {
			return false
		}
		na, ok := snap.Nodes[id]
		if !ok {
			return false
		}
		m.Cores[i] = na.Cores
		m.LoadM1[i] = na.CPULoad.M1
		attrRowInto(na, m.attrRows[i])
	}
	if len(m.IDs) > 0 {
		// Full re-reduction, not an incremental shift: finished jobs move
		// rows down, so cached maxima cannot be maintained monotonically.
		m.cacheColStats()
	}
	return true
}

// ChargeRanksAt derives from m a model with busy-waiting MPI ranks
// charged onto the given nodes' published attributes — no snapshot copy
// and no model rebuild, just k replaced rows and an Equation 1 re-score.
// The rule is ChargeRanks; this is its attribute-row form (the CPU-load
// column plus the rank count; the CPU-utilization column plus the occupancy share, capped at
// 100 on the row's window mean where ChargeRanks caps on the 1-minute
// window). It is kept as a second spelling on purpose: a row holds the
// window mean, not the windows, and charging the three windows and
// re-averaging rounds differently from charging the mean, which would
// move the simulator's trace digests by an ulp.
// TestChargeRanksAgainstRebuild pins the two against each other.
//
// ids are node IDs in application order (callers pass them sorted so
// float accumulation is deterministic) with ranks[k] charged onto
// ids[k]; dst's buffers are reused across calls and dst must not be m.
// ok=false means m cannot be charged incrementally (no usable CL
// data, an unknown id, or a length mismatch) and the caller must fall
// back to Charged + NewLike.
//
// cand (ascending dense indices) names the rows whose CL/CLUnit entries
// are priced; every other row's costs are left stale — the contract the
// policy-fidelity simulator relies on, since Algorithm 1 under exclusive
// capacities only ever reads the free nodes' costs. A nil cand prices
// every row. Either way the normalization spans all n rows: charging
// shifts the cached per-column sums and maxima by the k row deltas (O(k)
// instead of O(n·attrs)), and the mean-1 CLUnit scale comes from the
// closed form of the SAW column identities, so each priced entry agrees
// with a full re-score (Charged + NewLike) to within float rounding
// (~1 ulp per term, far inside the rebuild-equivalence tolerance) rather
// than bit-for-bit.
func (m *CostModel) ChargeRanksAt(ids, ranks, cand []int, dst *CostModel) (*CostModel, bool) {
	if m.clErr != nil || m.attrRows == nil || dst == m || len(ids) != len(ranks) {
		return nil, false
	}
	if dst == nil {
		dst = &CostModel{}
	}
	if len(m.IDs) == 0 {
		if len(ids) > 0 {
			return nil, false
		}
		m.shareForUpdate(dst)
		dst.CL, dst.CLUnit = dst.CL[:0], dst.CLUnit[:0]
		return dst, true
	}
	if m.colSums == nil {
		m.cacheColStats()
	}
	m.shareForUpdate(dst)
	dst.colSums = append(dst.colSums[:0], m.colSums...)
	dst.colMaxs = append(dst.colMaxs[:0], m.colMaxs...)
	need := len(ids) * numAttrCols
	if cap(dst.rowArena) < need {
		dst.rowArena = make([]float64, need)
	}
	arena := dst.rowArena[:0]
	for k, id := range ids {
		i, ok := m.denseIndex(id)
		if !ok {
			return nil, false
		}
		r := float64(ranks[k])
		if r <= 0 {
			continue
		}
		arena = arena[:len(arena)+numAttrCols]
		row := arena[len(arena)-numAttrCols:]
		// Repeated ids accumulate: the source row may already be a charged
		// row carved earlier in this call.
		copy(row, dst.attrRows[i])
		row[attrColCPULoad] += r
		dst.colSums[attrColCPULoad] += r
		cores := dst.Cores[i]
		if cores <= 0 {
			cores = 1 // guard like effProcs: no published cores
		}
		occ := r / float64(cores) * 100
		if row[attrColCPUUtil]+occ > 100 {
			occ = 100 - row[attrColCPUUtil]
		}
		if occ > 0 {
			row[attrColCPUUtil] += occ
			dst.colSums[attrColCPUUtil] += occ
		}
		// Charges only grow the two mutated columns, so the cached maxima
		// can only move up.
		if row[attrColCPULoad] > dst.colMaxs[attrColCPULoad] {
			dst.colMaxs[attrColCPULoad] = row[attrColCPULoad]
		}
		if row[attrColCPUUtil] > dst.colMaxs[attrColCPUUtil] {
			dst.colMaxs[attrColCPUUtil] = row[attrColCPUUtil]
		}
		dst.attrRows[i] = row
		dst.LoadM1[i] += r
	}
	repriceChargedCL(dst, cand)
	return dst, true
}

// repriceChargedCL prices the cand rows (nil: every row) of dst's
// CL/CLUnit from its attribute rows and cached column stats — the one
// Equation 1 re-score, SAW with the column reductions already in hand
// (see ChargeRanksAt). Equivalent to sawFromRows + rescaleMeanDense up to
// float rounding: normalized terms multiply by precomputed reciprocals
// instead of dividing, and the mean-1 scale uses ΣCL = Σ_min w +
// Σ_max w·(n·max_norm − 1), the column-sum identity of the SAW matrix.
func repriceChargedCL(dst *CostModel, cand []int) {
	n := len(dst.IDs)
	attrs := sawAttrs(dst.Weights)
	var inv, cmax [numAttrCols]float64
	sumCL := 0.0
	for c, a := range attrs {
		s := dst.colSums[c]
		if s == 0 {
			continue // zero-sum column normalizes to all zeros
		}
		inv[c] = 1 / s
		if a.Criterion == stats.Maximize {
			cmax[c] = dst.colMaxs[c] / s
			sumCL += a.Weight * (float64(n)*cmax[c] - 1)
		} else {
			sumCL += a.Weight
		}
	}
	invMean := 0.0
	if mean := sumCL / float64(n); mean != 0 {
		invMean = 1 / mean
	}
	if cap(dst.CL) < n {
		dst.CL = make([]float64, n)
	}
	if cap(dst.CLUnit) < n {
		dst.CLUnit = make([]float64, n)
	}
	dst.CL, dst.CLUnit = dst.CL[:n], dst.CLUnit[:n]
	priced := n
	if cand != nil {
		priced = len(cand)
	}
	for k := 0; k < priced; k++ {
		i := k
		if cand != nil {
			i = cand[k]
		}
		row := dst.attrRows[i]
		cost := 0.0
		for c, a := range attrs {
			x := row[c] * inv[c]
			if a.Criterion == stats.Maximize {
				x = cmax[c] - x
			}
			cost += a.Weight * x
		}
		dst.CL[i] = cost
		if invMean != 0 {
			cost *= invMean
		}
		dst.CLUnit[i] = cost
	}
}

// PairNLUnit prices the mean-1 network load between dense indices i and
// j under whichever representation the model carries: the flat NLUnit
// matrix on dense models, the hierarchical shard layer otherwise. The
// diagonal is zero.
func (m *CostModel) PairNLUnit(i, j int) float64 {
	if m.shard != nil {
		if i == j {
			return 0
		}
		return m.shard.pairNL(i, j)
	}
	return m.NLUnit[i*len(m.IDs)+j]
}

// networkLoadsDense evaluates Equation 2 for every unordered pair of m's
// nodes — NL(u,v) = w_lt·LT_norm + w_bw·(peak−avail)_norm, each term
// sum-normalized over all pairs like the compute-load attributes — and
// returns a flat symmetric n×n matrix indexed by dense position. Pairs
// with no measurement are priced at the worst observed latency and
// complement-bandwidth (a never-measured link is assumed bad, not free).
// Pair terms are accumulated in i<j order, which for sorted ids is the
// sorted (U,V) order of the map-keyed reference, so normalization sums
// are bit-identical to it.
func networkLoadsDense(snap *metrics.Snapshot, m *CostModel) ([]float64, error) {
	n := len(m.IDs)
	npairs := n * (n - 1) / 2
	out := make([]float64, n*n)
	if npairs == 0 {
		return out, nil
	}
	measured, err := measuredPairs(snap, m)
	if err != nil {
		return nil, err
	}
	worstLat, worstCbw := 0.0, 0.0
	for _, p := range measured {
		if p.lat > worstLat {
			worstLat = p.lat
		}
		if p.cbw > worstCbw {
			worstCbw = p.cbw
		}
	}
	lat := make([]float64, npairs)
	cbw := make([]float64, npairs) // complement of available bandwidth
	for k := range lat {
		lat[k] = worstLat
		cbw[k] = worstCbw
	}
	for _, p := range measured {
		i, j := int(p.key>>32), int(p.key&0xffffffff)
		k := i*n - i*(i+1)/2 + (j - i - 1)
		lat[k] = p.lat
		cbw[k] = p.cbw
	}
	latN, err := stats.NormalizeSum(lat)
	if err != nil {
		return nil, fmt.Errorf("alloc: network loads: %w", err)
	}
	cbwN, err := stats.NormalizeSum(cbw)
	if err != nil {
		return nil, fmt.Errorf("alloc: network loads: %w", err)
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := m.Weights.Latency*latN[k] + m.Weights.Bandwidth*cbwN[k]
			out[i*n+j] = v
			out[j*n+i] = v
			k++
		}
	}
	return out, nil
}

// rescaleMeanDense rescales xs to mean 1 in place. The paper
// sum-normalizes compute load over |V| nodes and network load over
// O(|V|²) pairs, which puts the two on incomparable scales (~1/V vs
// ~2/V²) and would silently void the α/β balance of Algorithm 1's
// addition cost. Rescaling both to unit mean is size-invariant and
// preserves each metric's ordering, so the weighted combination behaves
// as Equation 4 intends regardless of cluster size. Summation runs in
// index order (== sorted node ID order), so it is deterministic.
func rescaleMeanDense(xs []float64) {
	if len(xs) == 0 {
		return
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return
	}
	for i := range xs {
		xs[i] /= mean
	}
}

// rescaleMeanPairDense rescales the flat n×n pair matrix to mean 1 over
// its distinct (i<j) pairs (see rescaleMeanDense), accumulating in
// (U,V)-sorted order.
func rescaleMeanPairDense(nl []float64, n int) {
	npairs := n * (n - 1) / 2
	if npairs == 0 {
		return
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += nl[i*n+j]
		}
	}
	mean := sum / float64(npairs)
	if mean == 0 {
		return
	}
	for i := range nl {
		nl[i] /= mean
	}
}

// byCostThenIdx is the strict total order every selection in this
// package shares — ascending cost, ties broken by index (== by node ID,
// since index order is ID order) — as a slices.SortFunc comparator.
// Because the order is strict and total, any sorting algorithm, and the
// kernel's heaps (lessIdx), produce the same permutation.
func byCostThenIdx(cost []float64) func(a, b int) int {
	return func(a, b int) int {
		switch ca, cb := cost[a], cost[b]; {
		case ca < cb:
			return -1
		case ca > cb:
			return 1
		default:
			return a - b
		}
	}
}

// sortIdxByCost orders the indices 0..len(cost)-1 by byCostThenIdx.
func sortIdxByCost(cost []float64) []int {
	out := make([]int, len(cost))
	for i := range out {
		out[i] = i
	}
	slices.SortFunc(out, byCostThenIdx(cost))
	return out
}

// takeIdx walks order, each index taking up to its capacity of the
// remaining processes (zero-capacity indices are skipped) until none
// remain, appending to used/counts. It returns the extended slices and
// the processes still uncovered.
func takeIdx(order, caps []int, remaining int, used, counts []int) ([]int, []int, int) {
	for _, i := range order {
		if remaining <= 0 {
			break
		}
		take := min(caps[i], remaining)
		if take <= 0 {
			continue
		}
		used = append(used, i)
		counts = append(counts, take)
		remaining -= take
	}
	return used, counts, remaining
}

// roundRobin deals the processes no capacity covered out over the
// selected nodes, one each in selection order, wrapping until none
// remain (lines 12-13 of Algorithm 1, generalized to every policy so all
// policies satisfy every request). Whole rounds are dealt at once, so
// the cost is O(len(counts)) however large the remainder.
func roundRobin(counts []int, remaining int) {
	if remaining <= 0 || len(counts) == 0 {
		return
	}
	q, r := remaining/len(counts), remaining%len(counts)
	for k := range counts {
		counts[k] += q
		if k < r {
			counts[k]++
		}
	}
}

// fillIdx assigns procs processes across the ordered dense indices, each
// taking up to its capacity, the remainder round-robin.
func fillIdx(order []int, caps []int, procs int) (used []int, counts []int) {
	used, counts, remaining := takeIdx(order, caps, procs, nil, nil)
	roundRobin(counts, remaining)
	return used, counts
}

// lessIdx is byCostThenIdx as a predicate, for the kernel's bounded
// heap and insertion runs: ascending cost, ties broken by index.
func lessIdx(cost []float64, a, b int) bool {
	if cost[a] != cost[b] {
		return cost[a] < cost[b]
	}
	return a < b
}

// bucketRange returns the lower end and the scale that map run's costs
// onto n buckets, in one pass of two plain compares per cost (the float
// min/max builtins cost more than the pass; they run only when the range
// moves). It spans the second-least to second-greatest cost, so that one
// far cost at either end — the seed's own A_v(v) = 0 is always the least
// — clamps into an end bucket instead of crowding the others into one.
// ok is false for sortRun or fewer positions, one cost, a NaN, or a span
// too wide or too narrow to scale.
func bucketRange(run []int, cost []float64, n int) (lo, scale float64, ok bool) {
	if len(run) <= sortRun {
		return 0, 0, false
	}
	lo1, hi1 := min(cost[run[0]], cost[run[1]]), max(cost[run[0]], cost[run[1]])
	lo2, hi2, nan := hi1, lo1, hi1 != hi1
	for _, s := range run[2:] {
		switch c := cost[s]; {
		case c >= lo2 && c <= hi2: // the common case once the range settles
		case c < lo2:
			lo1, lo2 = min(lo1, c), max(lo1, c)
		case c > hi2:
			hi1, hi2 = max(hi1, c), min(hi1, c)
		default:
			nan = true
		}
	}
	if lo2 >= hi2 {
		lo2, hi2 = lo1, hi1
	}
	scale = float64(n) / (hi2 - lo2)
	return lo2, scale, !nan && hi1-lo1 <= math.MaxFloat64 && hi2 > lo2 && scale <= math.MaxFloat64
}

// bucket maps a cost to one of top+1 buckets, (c−lo)·scale truncated and
// clamped: only an x in [0, top) becomes an int. IEEE subtraction and
// multiplication by a positive scale round monotonically, so the bucket
// never falls as the cost grows, and equal costs share one.
func bucket(c, lo, scale float64, top int) int {
	switch x := (c - lo) * scale; {
	case x < 0:
		return 0
	case x < float64(top):
		return int(x)
	}
	return top
}

// orderRun sorts a run of positions by lessIdx: by insertion when it is
// short, else by slices.SortFunc, so no cost shape is quadratic.
func orderRun(run []int, cost []float64) {
	if len(run) > sortRun {
		slices.SortFunc(run, byCostThenIdx(cost))
		return
	}
	for i := 1; i < len(run); i++ {
		for j := i; j > 0 && lessIdx(cost, run[j], run[j-1]); j-- {
			run[j], run[j-1] = run[j-1], run[j]
		}
	}
}

// siftUpMaxIdx, siftDownMaxIdx and popMaxIdx maintain a MAX-heap under
// the same strict (cost, index) total order as lessIdx — coverPrefix's
// bounded-selection heap, whose root is the worst kept candidate.
func siftUpMaxIdx(h []int, i int, cost []float64) {
	for i > 0 {
		p := (i - 1) / 2
		if !lessIdx(cost, h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDownMaxIdx(h []int, i int, cost []float64) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && lessIdx(cost, h[l], h[r]) {
			m = r
		}
		if !lessIdx(cost, h[i], h[m]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// popMaxIdx removes and returns the max-heap root, shrinking h by one.
func popMaxIdx(h []int, cost []float64) (int, []int) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	siftDownMaxIdx(h, 0, cost)
	return top, h
}

// minParallelWork is the size of a fan-out, in addition-cost evaluations
// (8–16 ns each on a 2-vCPU Xeon with their share of the selection and
// of N_G), below which it stays on the calling goroutine. Starting a
// worker on another thread costs the caller a futex call and the request
// a cross-CPU handoff; on a virtual machine whose idle vCPU has halted
// that is tens of microseconds and follows the host's load, not the
// program's. A 60-node dense allocate is 3,600 evaluations, 30–55 µs:
// splitting it let the host decide, run by run, whether the broker's
// warm path beat one thread or lost to it (bench paper60-frozen, 16 runs:
// quartile spread of op_p50_ms 15 % of the median split, 6 % not). 128
// dense nodes or four 64-node shards are 16,384 and worth the wake-ups.
const minParallelWork = 1 << 14

// The scratch the model-wide allocate paths draw, so a warm call reuses
// buffers earlier calls sized: the caller's, and parallelFor's workers'.
var (
	allocPool = sync.Pool{New: func() any { return new(AllocScratch) }}
	genPool   = sync.Pool{New: func() any { return new(genScratch) }}
	shardPool = sync.Pool{New: func() any { return new(shardScratch) }}
)

// parallelFor runs f(scratch, i) for every i in [0, n), work
// addition-cost evaluations in all, across a GOMAXPROCS-bounded pool of
// worker goroutines, each with its own scratch S taken from pool (which
// must make *S) and returned to it. Each index runs exactly once, and
// each worker runs its calls sequentially (so its scratch needs no
// locking); f must only write index-owned state (the callers write into
// pre-assigned slice slots, keeping results bit-identical to a
// sequential loop). Fan-outs below minParallelWork run inline.
func parallelFor[S any](pool *sync.Pool, n, work int, f func(sc *S, i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 || work < minParallelWork {
		sc := pool.Get().(*S)
		for i := 0; i < n; i++ {
			f(sc, i)
		}
		pool.Put(sc)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sc := pool.Get().(*S)
			defer pool.Put(sc)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(sc, i)
			}
		}()
	}
	wg.Wait()
}
