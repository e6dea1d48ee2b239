package alloc

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
)

// ReservingPolicy wraps another policy with short-lived reservations:
// every allocation it grants is virtually charged onto subsequent
// snapshots (as busy-waiting ranks on the granted nodes) until the
// monitor's own running means catch up. This closes the herding gap the
// co-scheduling experiment exposes in the paper's heuristic — back-to-
// back submissions all greedily pick the same best region because the
// 1-minute load means lag just-launched jobs.
//
// Besides its own grants, external claims can be charged through
// Reserve — the job queue uses this to shadow-reserve capacity for a
// waiting head job while it evaluates backfill candidates.
type ReservingPolicy struct {
	// Inner is the wrapped policy. Required.
	Inner Policy
	// TTL is how long a reservation keeps being charged (it should cover
	// the monitor's sampling lag; default 90s).
	TTL time.Duration

	mu           sync.Mutex
	reservations []*reservation
	// seen is the latest snapshot clock observed by record/Charged.
	// Pruning uses max(snap.Taken, seen) so a degraded or stale-read
	// snapshot carrying an old (or zero) Taken cannot make reservations
	// immortal: time only moves forward for expiry purposes.
	seen time.Time
	// chargeIDs/chargeRanks are ChargedModelAt's reusable aggregation
	// buffers and chargeDense its per-dense-index rank accumulator
	// (always zeroed again before the lock is released). All are guarded
	// by mu.
	chargeIDs   []int
	chargeRanks []int
	chargeDense []int
}

// reservation is one live claim, held as parallel id/rank slices sorted
// ascending by node ID — built once at record time so the per-decision
// charge aggregation walks flat ints instead of iterating maps.
type reservation struct {
	ids       []int
	ranks     []int
	at        time.Time
	cancelled bool
}

// newReservation converts a node→ranks map into the sorted slice form.
func newReservation(procs map[int]int) *reservation {
	res := &reservation{
		ids:   make([]int, 0, len(procs)),
		ranks: make([]int, 0, len(procs)),
	}
	for id := range procs {
		res.ids = append(res.ids, id)
	}
	sort.Ints(res.ids)
	for _, id := range res.ids {
		res.ranks = append(res.ranks, procs[id])
	}
	return res
}

// NewReservingPolicy wraps inner with reservation charging.
func NewReservingPolicy(inner Policy, ttl time.Duration) *ReservingPolicy {
	if ttl <= 0 {
		ttl = 90 * time.Second
	}
	return &ReservingPolicy{Inner: inner, TTL: ttl}
}

// Name implements Policy.
func (p *ReservingPolicy) Name() string { return p.Inner.Name() + "+reserve" }

// AllocateModel implements Policy: expired reservations are pruned
// against the snapshot's own clock (virtual-time safe), the inner policy
// decides, and the new grant is recorded. With no live reservations the
// prebuilt model passes straight through to the inner policy; otherwise
// the charged snapshot invalidates it and the inner policy is handed a
// re-priced model (reservation charging changes Equation 1 inputs by
// design).
func (p *ReservingPolicy) AllocateModel(m *CostModel, req Request, r *rng.Rand) (Allocation, error) {
	if p.Inner == nil {
		return Allocation{}, fmt.Errorf("alloc: reserving policy without inner policy")
	}
	snap := m.Snap
	if charged := p.Charged(snap); charged != snap {
		vreq, err := req.Validate()
		if err != nil {
			return Allocation{}, err
		}
		m = m.NewLike(charged, vreq.Weights)
	}
	a, err := p.Inner.AllocateModel(m, req, r)
	if err != nil {
		return Allocation{}, err
	}
	p.record(a.Procs, snap.Taken)
	a.Policy = p.Name()
	return a, nil
}

// Charged prunes expired reservations and charges the live ones onto a
// variant of snap (snap itself is returned when there is nothing to
// charge, and is never written: the variant owns a new Nodes map and
// Livehosts list and shares the n² matrices it does not change). The job
// queue calls this directly to price free capacity the way the wrapped
// allocator will see it.
//
// Charging also prunes nodes left without a single free slot from the
// variant's livehosts: Equation 3's wrap (EffectiveProcs) would otherwise
// report a saturated node as freshly empty during the inner policy's
// fill step, piling reserved ranks onto exactly the nodes that have
// nothing to give. When every monitored node is saturated the universe
// is kept as-is — an oversubscribed allocation still beats failing
// outright.
func (p *ReservingPolicy) Charged(snap *metrics.Snapshot) *metrics.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	live := p.liveLocked(snap.Taken)
	if len(live) == 0 {
		return snap
	}
	cp := *snap
	cp.Nodes = maps.Clone(snap.Nodes)
	charged := &cp
	for _, res := range live {
		for k, node := range res.ids {
			if na, ok := charged.Nodes[node]; ok {
				charged.Nodes[node] = ChargeRanks(na, res.ranks[k])
			}
		}
	}
	keep := make([]int, 0, len(snap.Livehosts))
	// An id without a node record passes the prune but can never be
	// allocated, so only monitored survivors justify pruning.
	monitored := 0
	for _, id := range snap.Livehosts {
		na, ok := charged.Nodes[id]
		if ok && NodeFreeSlots(na) <= 0 {
			continue
		}
		keep = append(keep, id)
		if ok {
			monitored++
		}
	}
	if monitored > 0 {
		charged.Livehosts = keep
	}
	return charged
}

// ChargeRanks is the one statement of what a placed job does to a node's
// published attributes (§5: MPI ranks busy-wait). Each rank is a
// runnable process on every load window, and the occupancy share
// ranks/cores·100 is added to the three utilisation windows, capped so
// the 1-minute window never passes 100 %. A node publishing no core
// count is charged as one core, like effProcs guards Equation 3: it
// would otherwise price at ±Inf/NaN and poison Equation 1. ranks <= 0
// charges nothing.
//
// Reservations (Charged) and the simulator's committed-rank overlay call
// this; CostModel.ChargeRanksAt is the same rule applied to an
// attribute row.
func ChargeRanks(na metrics.NodeAttrs, ranks int) metrics.NodeAttrs {
	if ranks <= 0 {
		return na
	}
	r := float64(ranks)
	na.CPULoad.M1 += r
	na.CPULoad.M5 += r
	na.CPULoad.M15 += r
	cores := na.Cores
	if cores <= 0 {
		cores = 1
	}
	occ := r / float64(cores) * 100
	if na.CPUUtilPct.M1+occ > 100 {
		occ = 100 - na.CPUUtilPct.M1
	}
	if occ > 0 {
		na.CPUUtilPct.M1 += occ
		na.CPUUtilPct.M5 += occ
		na.CPUUtilPct.M15 += occ
	}
	return na
}

// liveLocked folds now into the policy's clock, drops cancelled and
// expired reservations, and returns the live ones. Callers must hold
// p.mu.
func (p *ReservingPolicy) liveLocked(now time.Time) []*reservation {
	t := p.advanceLocked(now)
	live := p.reservations[:0]
	for _, res := range p.reservations {
		if !res.cancelled && t.Sub(res.at) < p.TTL {
			live = append(live, res)
		}
	}
	for i := len(live); i < len(p.reservations); i++ {
		p.reservations[i] = nil
	}
	p.reservations = live
	return live
}

// ChargedModelAt prices base with the live reservations charged directly
// onto the model's retained attribute rows (CostModel.ChargeRanksAt) —
// the path simulation runs use so reservations flow through the policy
// without the per-decision snapshot copy and full model rebuild that
// AllocateModel's generic path performs. Only the cand rows of the
// charged model are priced (nil cand prices every row; see ChargeRanksAt
// for the staleness contract on the rest). Expired reservations are
// pruned against now (the clock only moves forward, like Charged). With
// nothing live it returns (base, true) untouched; otherwise it returns
// the charged model written into dst's reused buffers. ok=false means
// base cannot be charged incrementally (see ChargeRanksAt) — callers
// fall back to the Charged + NewLike rebuild.
func (p *ReservingPolicy) ChargedModelAt(now time.Time, base *CostModel, cand []int, dst *CostModel) (*CostModel, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	live := p.liveLocked(now)
	if len(live) == 0 {
		return base, true
	}
	// Aggregate ranks per node through an accumulator indexed by base's
	// dense index: bounded by the model's size whatever the raw IDs are,
	// and walking it in index order emits ascending node IDs, the order
	// ChargeRanksAt's float accumulation wants.
	n := base.Len()
	if cap(p.chargeDense) < n {
		p.chargeDense = make([]int, n)
	}
	sum := p.chargeDense[:n]
	for _, res := range live {
		for k, id := range res.ids {
			i, ok := base.denseIndex(id)
			if !ok {
				clear(sum)
				return nil, false
			}
			sum[i] += res.ranks[k]
		}
	}
	p.chargeIDs, p.chargeRanks = p.chargeIDs[:0], p.chargeRanks[:0]
	for i, r := range sum {
		if r != 0 {
			p.chargeIDs = append(p.chargeIDs, base.IDs[i])
			p.chargeRanks = append(p.chargeRanks, r)
			sum[i] = 0
		}
	}
	return base.ChargeRanksAt(p.chargeIDs, p.chargeRanks, cand, dst)
}

// advanceLocked folds a snapshot clock reading into the policy's
// monotonic view of time and returns the pruning clock. Callers must
// hold p.mu.
func (p *ReservingPolicy) advanceLocked(taken time.Time) time.Time {
	if taken.After(p.seen) {
		p.seen = taken
	}
	return p.seen
}

// record registers a grant as a new reservation. A zero or stale stamp
// is lifted to the latest clock seen so the reservation still expires
// TTL from "now" rather than living (or dying) on a skewed clock.
func (p *ReservingPolicy) record(procs map[int]int, at time.Time) {
	res := newReservation(procs)
	p.mu.Lock()
	res.at = p.advanceLocked(at)
	p.reservations = append(p.reservations, res)
	p.mu.Unlock()
}

// Reserve charges an externally computed claim (node → reserved ranks)
// like a grant, so every subsequent Charged/AllocateModel prices it into
// Equation 1. It returns a cancel function that releases the claim
// early; otherwise it expires after TTL like any reservation. The job
// queue uses this for the waiting head job's shadow reservation, which
// it re-computes (and re-charges) every scheduling pass.
func (p *ReservingPolicy) Reserve(procs map[int]int, at time.Time) func() {
	return p.reserve(newReservation(procs), at)
}

// ReserveRanks is Reserve taking the claim as parallel id/rank slices
// (ranks[k] on ids[k], any order, copied) — the allocation-free entry
// the policy-fidelity simulator charges each placement through.
func (p *ReservingPolicy) ReserveRanks(ids, ranks []int, at time.Time) func() {
	res := &reservation{
		ids:   append([]int(nil), ids...),
		ranks: append([]int(nil), ranks...),
	}
	sort.Sort(&idRankPairs{res.ids, res.ranks})
	return p.reserve(res, at)
}

// reserve registers res and returns its cancel closure.
func (p *ReservingPolicy) reserve(res *reservation, at time.Time) func() {
	p.mu.Lock()
	res.at = p.advanceLocked(at)
	p.reservations = append(p.reservations, res)
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		res.cancelled = true
		p.mu.Unlock()
	}
}

// idRankPairs sorts parallel id/rank slices by id (ids are unique per
// claim, so the order is total).
type idRankPairs struct {
	ids   []int
	ranks []int
}

func (s *idRankPairs) Len() int           { return len(s.ids) }
func (s *idRankPairs) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s *idRankPairs) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.ranks[i], s.ranks[j] = s.ranks[j], s.ranks[i]
}

// Outstanding returns the number of live reservations as of t. Like
// pruning, it never lets t rewind below the latest clock already seen.
func (p *ReservingPolicy) Outstanding(t time.Time) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.seen.After(t) {
		t = p.seen
	}
	n := 0
	for _, res := range p.reservations {
		if !res.cancelled && t.Sub(res.at) < p.TTL {
			n++
		}
	}
	return n
}
