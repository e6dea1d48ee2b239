package alloc

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nlarm/internal/metrics"
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
	// nlNonNeg is whether every NLUnit entry is finite and ≥ 0 (false on
	// sharded models): one of Algorithm 1's seed-alone conditions.
	nlNonNeg bool

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

	// colSums/colMaxs are the raw per-column sums and maxima of attrRows,
	// reduced by priceCL (and RefreshAttrs) and consumed by ChargeRanksAt:
	// charging k rows then shifts them by the k deltas instead of
	// re-reducing all n rows. colShifted marks stats so shifted (a
	// ChargeRanksAt destination's) rather than reduced in row order.
	colSums    [numAttrCols]float64
	colMaxs    [numAttrCols]float64
	colShifted bool

	// shardOpts and shard carry the optional hierarchical network-load
	// layer (see NewCostModelSharded). A nil shard means the dense n×n
	// matrix above is authoritative; a non-nil shard means NLUnit is nil
	// and network load is priced per shard.
	shardOpts ShardOptions
	shard     *shardModel
	// memo is a sharded model's level 1 for the last request shape it
	// served (see NetLoadAware.level1); dense models never set it. It
	// reads the capacities and CLUnit, so the two paths that rewrite
	// them in place, shareForUpdate and RefreshAttrs, drop it.
	memo atomic.Pointer[shardLevel1]

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
		m.clErr = m.priceCL()
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

// errWeights is the model-taking entry points' refusal of a request whose
// weights are not the ones the model was priced with: they never
// re-price (the broker's requests carry no weights and its models are
// priced with PaperWeights; the simulator prices and requests with one
// set).
var errWeights = errors.New("alloc: model priced with different weights than the request")

// matches reports whether the model was priced with the request's
// weights (guard against stale cache handoffs).
func (m *CostModel) matches(req Request) bool {
	return m.Weights == req.Weights
}

// The Equation 1 attribute schema (Table 1): the column count, the two
// columns reservation charging mutates (see ChargeRanksAt), each
// column's name (for refusals) and its criterion as arithmetic, +1 for a
// minimised column and −1 for a maximised one. attrRowInto and
// attrWeights fill the columns in this order.
const (
	numAttrCols    = 8
	attrColCPULoad = 0
	attrColCPUUtil = 1
)

var (
	attrNames = [numAttrCols]string{"cpu_load", "cpu_util", "flow_rate", "avail_mem", "cores", "freq", "total_mem", "users"}
	attrSign  = [numAttrCols]float64{1, 1, 1, -1, -1, -1, -1, 1}
)

// attrWeights is w's attribute weights in schema column order.
func (w Weights) attrWeights() [numAttrCols]float64 {
	return [numAttrCols]float64{w.CPULoad, w.CPUUtil, w.FlowRate, w.AvailMem, w.Cores, w.Freq, w.TotalMem, w.Users}
}

// attrRow is one node's raw Equation 1 attribute vector in schema
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

// priceCL is Equation 1 over the model's attribute rows: Simple Additive
// Weights over sum-normalised columns, each maximised column complemented
// against its normalised maximum so that every column is a cost. It
// reduces every column into colSums/colMaxs, then prices each row into CL
// (x = v/s, or max/s − v/s on a maximised column, a zero-sum column
// pricing 0; w·x added in column order) and CLUnit at mean 1. A negative
// weight is refused, and so is an attribute value that is negative or not
// finite (a window mean can overflow to +Inf, which would price its
// column NaN); a model with no rows prices nothing.
func (m *CostModel) priceCL() error {
	if len(m.attrRows) == 0 {
		return nil
	}
	w := m.Weights.attrWeights()
	for c, x := range w {
		if x < 0 {
			return fmt.Errorf("alloc: compute loads: attribute %q has negative weight", attrNames[c])
		}
	}
	m.reduceCols(nil)
	m.colShifted = false
	// Maximised columns complement against the normalised maximum; max/s
	// is max(v/s) because division by a positive sum is monotone.
	var cmax [numAttrCols]float64
	for c, s := range m.colSums {
		if attrSign[c] < 0 && s != 0 {
			cmax[c] = m.colMaxs[c] / s
		}
	}
	m.CL = make([]float64, len(m.attrRows))
	for r, row := range m.attrRows {
		cost := 0.0
		for c, v := range row {
			if !(v >= 0 && v <= math.MaxFloat64) {
				m.CL = nil
				return fmt.Errorf("alloc: compute loads: attribute %q: value %g on node %d is negative or not finite", attrNames[c], v, m.IDs[r])
			}
			x := 0.0
			if s := m.colSums[c]; s != 0 {
				x = v / s
			}
			if attrSign[c] < 0 {
				x = cmax[c] - x
			}
			cost += w[c] * x
		}
		m.CL[r] = cost
	}
	m.CLUnit = append([]float64(nil), m.CL...)
	rescaleMeanDense(m.CLUnit)
	return nil
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
	u.clErr = u.priceCL()
	return u, u.clErr == nil
}

// shareForUpdate points dst at m's immutable parts (IDs, index, the
// network layer) and refills its mutable state (Cores, LoadM1, attrRows
// and their column stats) from m, reusing dst's backing arrays — the
// setup of UpdateNodes' fresh copy and of ChargeRanksAt's
// scratch-reusing destination.
func (m *CostModel) shareForUpdate(dst *CostModel) {
	dst.Snap = m.Snap
	dst.Weights = m.Weights
	dst.Taken = m.Snap.Taken
	dst.IDs = m.IDs
	dst.idx = m.idx
	dst.NLUnit = m.NLUnit
	dst.nlNonNeg = m.nlNonNeg
	dst.nlErr = m.nlErr
	dst.shardOpts = m.shardOpts
	dst.shard = m.shard
	dst.dropMemo()
	dst.clErr = nil
	dst.Cores = append(dst.Cores[:0], m.Cores...)
	dst.LoadM1 = append(dst.LoadM1[:0], m.LoadM1...)
	dst.attrRows = append(dst.attrRows[:0], m.attrRows...)
	dst.colSums, dst.colMaxs, dst.colShifted = m.colSums, m.colMaxs, m.colShifted
}

// dropMemo forgets the level-1 memo. The load comes first so that a
// dense model, which never holds one, pays no atomic store.
func (m *CostModel) dropMemo() {
	if m.memo.Load() != nil {
		m.memo.Store(nil)
	}
}

// reduceCols re-reduces the listed columns of attrRows (every column for
// nil) into colSums and colMaxs in one pass over the rows: row 0, then
// the rest in row order. All columns range over each row; a few touched
// ones range over their list: RefreshAttrs of the two charged columns on
// 1,024 rows takes ~5 µs so, against 11–15 µs as a full pass or a mask
// over the row (2-vCPU Xeon). The model must have at least one row.
func (m *CostModel) reduceCols(cols []int) {
	sums, maxs := &m.colSums, &m.colMaxs
	first := m.attrRows[0]
	if cols == nil {
		*sums = [numAttrCols]float64(first)
		*maxs = *sums
		for _, row := range m.attrRows[1:] {
			for c, v := range row[:numAttrCols] {
				sums[c] += v
				if v > maxs[c] {
					maxs[c] = v
				}
			}
		}
		return
	}
	for _, c := range cols {
		sums[c], maxs[c] = first[c], first[c]
	}
	for _, row := range m.attrRows[1:] {
		for _, c := range cols {
			v := row[c]
			sums[c] += v
			if v > maxs[c] {
				maxs[c] = v
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
// rows and re-reduces the column stats of the columns whose bits any
// rewritten row changed (every column when a charge shifted the stats),
// each in row order, so the stats equal a full re-reduction bit for bit.
// It skips the Equation 1 re-score, so CL/CLUnit keep their previous
// (now stale) values. It exists for callers that price every row they
// read through ChargeRanksAt — which scores from the attribute rows and
// column stats, never from the model's own CL — making the skipped re-score
// unobservable; the policy-fidelity simulator refreshes this way at the
// monitor cadence. snap must describe the same monitored set as the
// model, and any model previously derived from m via ChargeRanksAt must
// be re-derived afterwards, not reused.
func (m *CostModel) RefreshAttrs(snap *metrics.Snapshot, changed []int) bool {
	if m.clErr != nil || m.attrRows == nil {
		return false
	}
	m.dropMemo()
	m.Snap = snap
	m.Taken = snap.Taken
	var touched [numAttrCols]bool
	var row [numAttrCols]float64
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
		attrRowInto(na, row[:])
		old := m.attrRows[i]
		for c, x := range row {
			if math.Float64bits(x) != math.Float64bits(old[c]) {
				old[c], touched[c] = x, true
			}
		}
	}
	// A touched column is re-reduced, not shifted by its deltas: finished
	// jobs move rows down, so cached maxima cannot be maintained
	// monotonically, and a shifted sum rounds differently.
	if m.colShifted {
		m.reduceCols(nil)
		m.colShifted = false
		return true
	}
	var cols [numAttrCols]int
	k := 0
	for c, t := range touched {
		if t {
			cols[k] = c
			k++
		}
	}
	if k > 0 {
		m.reduceCols(cols[:k])
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
	m.shareForUpdate(dst)
	dst.colShifted = true
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
// CL/CLUnit from its attribute rows and shifted column stats — the one
// Equation 1 re-score, SAW with the column reductions already in hand
// (see ChargeRanksAt). Equivalent to priceCL up to
// float rounding: normalized terms multiply by precomputed reciprocals
// instead of dividing, and the mean-1 scale uses ΣCL = Σ_min w +
// Σ_max w·(n·max_norm − 1), the column-sum identity of the SAW matrix.
// Each term is cmax + sign·x, with cmax = 0 and sign = +1 on minimised
// columns: IEEE arithmetic makes 0 + 1·x ≡ x (a −0 term cannot change a
// sum that starts at +0) and cmax + (−1)·x ≡ cmax − x, so no column
// branches.
func repriceChargedCL(dst *CostModel, cand []int) {
	n := len(dst.IDs)
	w := dst.Weights.attrWeights()
	var inv, cmax [numAttrCols]float64
	sumCL := 0.0
	for c, sign := range attrSign {
		s := dst.colSums[c]
		if s == 0 {
			continue // zero-sum column normalizes to all zeros
		}
		inv[c] = 1 / s
		if sign < 0 {
			cmax[c] = dst.colMaxs[c] / s
			sumCL += w[c] * (float64(n)*cmax[c] - 1)
		} else {
			sumCL += w[c]
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
		row := dst.attrRows[i][:numAttrCols]
		cost := 0.0
		for c, x := range row {
			cost += w[c] * (cmax[c] + attrSign[c]*(x*inv[c]))
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
	normalizeSum(lat)
	normalizeSum(cbw)
	k := 0
	nonNeg := true
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := m.Weights.Latency*lat[k] + m.Weights.Bandwidth*cbw[k]
			out[i*n+j] = v
			out[j*n+i] = v
			nonNeg = nonNeg && v >= 0 && v <= math.MaxFloat64
			k++
		}
	}
	// The mean-1 rescale keeps this: it divides finite non-negative
	// entries by their positive mean (≥ each entry / npairs), or not at all.
	m.nlNonNeg = nonNeg
	return out, nil
}

// normalizeSum divides xs in place by their sum, summed in index order —
// Equation 2's normalisation of each pair term; a zero sum maps every
// entry to 0.
func normalizeSum(xs []float64) {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	if sum == 0 {
		clear(xs)
		return
	}
	for i := range xs {
		xs[i] /= sum
	}
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

// costSpan is what a fill saw of one seed's addition costs, the seed's
// own A_v(v) = 0 left out: the least, the greatest and the
// second-greatest cost, and whether a NaN appeared. see costs the fill
// two plain compares per cost once the range settles (the float min/max
// builtins cost more than the fill), so coverSorted never reads the
// costs a second time to find its span.
type costSpan struct {
	lo, hi1, hi2 float64
	nan          bool
}

// emptySpan is the span of no costs: every cost widens it.
var emptySpan = costSpan{lo: math.Inf(1), hi1: math.Inf(-1), hi2: math.Inf(-1)}

// see adds one cost to the span.
func (sp *costSpan) see(c float64) {
	if c >= sp.lo && c <= sp.hi2 {
		return
	}
	if c != c {
		sp.nan = true
	}
	if c < sp.lo {
		sp.lo = c
	}
	if c > sp.hi2 {
		if c > sp.hi1 {
			sp.hi1, sp.hi2 = c, sp.hi1
		} else {
			sp.hi2 = c
		}
	}
}

// scale returns the lower end and the scale that map the span onto n
// buckets. It spans the least to the second-greatest cost, so one far
// cost at the top clamps into the last bucket instead of crowding the
// others into the first; the seed's 0, left out, clamps into the first.
// ok is false for a NaN, fewer than two distinct costs, or a span too
// wide or too narrow to scale.
func (sp costSpan) scale(n int) (lo, scale float64, ok bool) {
	hi := sp.hi2
	if !(hi > sp.lo) {
		hi = sp.hi1
	}
	scale = float64(n) / (hi - sp.lo)
	return sp.lo, scale, !sp.nan && sp.hi1-sp.lo <= math.MaxFloat64 && hi > sp.lo && scale <= math.MaxFloat64
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
// addition-cost evaluations in all, across a GOMAXPROCS-bounded set of
// workers, the calling goroutine one of them, each with its own scratch S
// taken from pool (which must make *S) and returned to it. Each index
// runs exactly once, and each worker runs its calls sequentially (so its
// scratch needs no locking); f must only write index-owned state (the
// callers write into pre-assigned slice slots, keeping results
// bit-identical to a sequential loop). Fan-outs below minParallelWork run
// inline.
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
	p := &fanOut[S]{pool: pool, n: n, f: f}
	p.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			p.work()
		}()
	}
	p.work()
	p.wg.Wait()
}

// fanOut is what the workers of one parallelFor share, allocated once
// per fan-out.
type fanOut[S any] struct {
	next atomic.Int64
	wg   sync.WaitGroup
	pool *sync.Pool
	n    int
	f    func(sc *S, i int)
}

// work claims indices until none is left, with one scratch from the pool.
func (p *fanOut[S]) work() {
	sc := p.pool.Get().(*S)
	defer p.pool.Put(sc)
	for {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		p.f(sc, i)
	}
}
