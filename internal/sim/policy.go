package sim

import (
	"fmt"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
)

// PolicyConfig turns a capacity scenario into a policy-fidelity run:
// besides the node-count bookkeeping, every job start is placed on
// concrete nodes by the paper's network- and load-aware heuristic
// (Algorithms 1-2) over one live cost model, with reservations flowing
// through alloc.ReservingPolicy exactly like the broker's pipeline.
// Placement is a pure overlay — job start/end times still follow the
// capacity model — so policy runs answer "where and at what cost",
// while staying digest-comparable in timing to their capacity twins.
type PolicyConfig struct {
	// Alpha and Beta weight compute versus network load in Equation 4
	// (both default 0.5).
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	// Starts bounds how many seed nodes Algorithm 1 grows candidates
	// from per decision: the k cheapest free nodes by unit compute load.
	// 0 means the default 8; negative means the paper's exhaustive
	// every-node sweep (slow at scale).
	Starts int `json:"starts,omitempty"`
	// Racks shapes the synthetic topology: full-mesh low-latency pairs
	// inside a rack, sparse sampled higher-latency pairs across racks
	// (unmeasured pairs price at the worst observed, like a real sparse
	// probe mesh). 0 means nodes/64, minimum 1.
	Racks int `json:"racks,omitempty"`
	// MonitorPeriodSec is the virtual cadence at which the cost model is
	// refreshed from the mutated snapshot (default 5s), mirroring the
	// monitor's publish interval: decisions between refreshes see stale
	// loads, exactly like the real pipeline.
	MonitorPeriodSec float64 `json:"monitor_period_sec,omitempty"`
	// ReserveTTLSec is how long a grant's reservation keeps being
	// charged (default: the monitor period — by then the refresh has
	// folded the committed ranks into the model).
	ReserveTTLSec float64 `json:"reserve_ttl_sec,omitempty"`
	// Weights overrides the Equation 1/2 attribute weights the run's cost
	// model is priced with (nil: the paper's §5 weights). The tuner sweeps
	// this jointly with Alpha/Beta; nil keeps existing configs — and their
	// trace headers — byte-identical.
	Weights *alloc.Weights `json:"weights,omitempty"`
}

func (pc PolicyConfig) withDefaults(nodes int) PolicyConfig {
	if pc.Alpha == 0 && pc.Beta == 0 {
		pc.Alpha, pc.Beta = 0.5, 0.5
	}
	if pc.Starts == 0 {
		pc.Starts = 8
	}
	if pc.Racks <= 0 {
		pc.Racks = nodes / 64
		if pc.Racks < 1 {
			pc.Racks = 1
		}
	}
	if pc.MonitorPeriodSec <= 0 {
		pc.MonitorPeriodSec = 5
	}
	if pc.ReserveTTLSec <= 0 {
		pc.ReserveTTLSec = pc.MonitorPeriodSec
	}
	return pc
}

// PolicyStats summarizes the placement layer of one policy-fidelity run.
type PolicyStats struct {
	// Decisions counts placement decisions (one per started job).
	Decisions int `json:"decisions"`
	// ModelBuilds counts full cost-model constructions — 1 by design:
	// the model is built once and mutated in place ever after.
	ModelBuilds int `json:"model_builds"`
	// ModelRefreshes counts in-place UpdateNodes refreshes at the
	// monitor cadence.
	ModelRefreshes int `json:"model_refreshes"`
	// ChargedDecisions counts decisions priced on a reservation-charged
	// model (live reservations existed at decision time).
	ChargedDecisions int `json:"charged_decisions"`
	// FallbackDecisions counts decisions where incremental charging was
	// refused and the base model was used uncharged (should stay 0).
	FallbackDecisions int `json:"fallback_decisions,omitempty"`
	// MeanCLCost and MeanNLCost average the winning candidate's
	// Equation 1/2 sums over all decisions.
	MeanCLCost float64 `json:"mean_cl_cost"`
	MeanNLCost float64 `json:"mean_nl_cost"`
}

// placement is one running job's node assignment: dense indices (==
// node IDs in the synthetic topology), per-node rank counts, and the
// cancel hook of its reservation. Recycled through a freelist.
type placement struct {
	nodes  []int
	counts []int
	cancel func()
}

// policyScratch holds the policy layer's reusable buffers. It lives in
// runScratch so a sweep worker carries one set of buffers across runs.
type policyScratch struct {
	caps      []int
	cand      []int
	startsBuf []int
	committed []int
	dirty     []int
	busy      []bool
	dirtySet  []bool
	baseAttrs []metrics.NodeAttrs
	dec       alloc.CostModel
	sc        alloc.AllocScratch
	placeFree []*placement
}

func (ps *policyScratch) getPlacement() *placement {
	if k := len(ps.placeFree); k > 0 {
		pl := ps.placeFree[k-1]
		ps.placeFree = ps.placeFree[:k-1]
		return pl
	}
	return &placement{}
}

// policyState is the live placement layer of one policy-fidelity run.
type policyState struct {
	ps      *policyScratch
	n       int
	kStarts int
	period  time.Duration
	req     alloc.Request
	pol     alloc.NetLoadAware

	// snap is the run's single synthetic snapshot, mutated in place;
	// model is the run's single cost model, refreshed in place from snap
	// at the monitor cadence. Decisions between refreshes price against
	// stale rows — the paper pipeline's staleness, reproduced.
	snap  *metrics.Snapshot
	model *alloc.CostModel
	rp    *alloc.ReservingPolicy

	nextRefresh time.Time
	clSum       float64
	nlSum       float64
	stats       PolicyStats
}

// newPolicyState builds the synthetic topology snapshot and the run's
// one cost model, reusing ps's buffers from earlier runs.
func newPolicyState(cfg ScenarioConfig, ps *policyScratch) (*policyState, error) {
	pc := *cfg.Policy
	n := cfg.Nodes
	snap := buildPolicySnapshot(cfg, pc)
	w := alloc.PaperWeights()
	if pc.Weights != nil {
		w = *pc.Weights
	}
	m := alloc.NewCostModel(snap, w, false)
	if err := m.CLErr(); err != nil {
		return nil, fmt.Errorf("sim: policy model: %w", err)
	}
	if err := m.NLErr(); err != nil {
		return nil, fmt.Errorf("sim: policy model: %w", err)
	}
	if m.Len() != n {
		return nil, fmt.Errorf("sim: policy model has %d nodes, want %d", m.Len(), n)
	}
	// The synthetic topology numbers nodes 0..n-1, so after the model's
	// ascending-ID remap, dense index == node ID. Everything below leans
	// on that equivalence.
	for i, id := range m.IDs {
		if i != id {
			return nil, fmt.Errorf("sim: policy model index %d maps to node %d", i, id)
		}
	}
	req := alloc.Request{Procs: 1, Alpha: pc.Alpha, Beta: pc.Beta, Weights: w}
	vreq, err := req.Validate()
	if err != nil {
		return nil, err
	}
	p := &policyState{
		ps:      ps,
		n:       n,
		kStarts: pc.Starts,
		period:  time.Duration(pc.MonitorPeriodSec * float64(time.Second)),
		req:     vreq,
		snap:    snap,
		model:   m,
		rp:      alloc.NewReservingPolicy(alloc.NetLoadAware{}, time.Duration(pc.ReserveTTLSec*float64(time.Second))),
	}
	p.nextRefresh = cfg.Start.Add(p.period)
	p.stats.ModelBuilds = 1
	if cap(ps.caps) < n {
		ps.caps = make([]int, n)
		ps.committed = make([]int, n)
		ps.busy = make([]bool, n)
		ps.dirtySet = make([]bool, n)
		ps.baseAttrs = make([]metrics.NodeAttrs, n)
	}
	ps.caps = ps.caps[:n]
	ps.committed = ps.committed[:n]
	ps.busy = ps.busy[:n]
	ps.dirtySet = ps.dirtySet[:n]
	ps.baseAttrs = ps.baseAttrs[:n]
	for i := 0; i < n; i++ {
		ps.committed[i] = 0
		ps.busy[i] = false
		ps.dirtySet[i] = false
		ps.baseAttrs[i] = snap.Nodes[i]
	}
	ps.dirty = ps.dirty[:0]
	if k := pc.Starts; k > 0 && cap(ps.startsBuf) < k {
		ps.startsBuf = make([]int, 0, k)
	}
	return p, nil
}

// buildPolicySnapshot derives the run's synthetic cluster from the
// scenario seed: per-node attribute jitter, full-mesh low-latency pairs
// inside each rack, and a sparse sample of higher-latency cross-rack
// pairs. Unmeasured pairs price at the worst observed (the dense model's
// rule), so placement naturally prefers rack-local packing.
func buildPolicySnapshot(cfg ScenarioConfig, pc PolicyConfig) *metrics.Snapshot {
	n := cfg.Nodes
	r := rng.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
	snap := &metrics.Snapshot{
		Taken:     cfg.Start,
		Nodes:     make(map[int]metrics.NodeAttrs, n),
		Latency:   make(map[metrics.PairKey]metrics.PairLatency),
		Bandwidth: make(map[metrics.PairKey]metrics.PairBandwidth),
	}
	for i := 0; i < n; i++ {
		snap.Livehosts = append(snap.Livehosts, i)
		na := metrics.NodeAttrs{
			NodeID: i, Hostname: fmt.Sprintf("sim%04d", i), Timestamp: cfg.Start,
			Cores: cfg.CoresPerNode, FreqGHz: r.Range(2.2, 3.2), TotalMemMB: 32768,
		}
		load := r.Range(0, 0.5)
		na.CPULoad = stats.Windowed{M1: load, M5: load, M15: load}
		util := r.Range(0, 5)
		na.CPUUtilPct = stats.Windowed{M1: util, M5: util, M15: util}
		flow := r.Range(0, 2e6)
		na.FlowRateBps = stats.Windowed{M1: flow, M5: flow, M15: flow}
		avail := r.Range(24000, 30000)
		na.AvailMemMB = stats.Windowed{M1: avail, M5: avail, M15: avail}
		snap.Nodes[i] = na
	}
	const peakBps = 125e6
	addPair := func(u, v int, local bool) {
		key := metrics.Pair(u, v)
		var lat time.Duration
		var avail float64
		if local {
			lat = time.Duration(r.Range(60, 140)) * time.Microsecond
			avail = r.Range(80e6, 120e6)
		} else {
			lat = time.Duration(r.Range(300, 700)) * time.Microsecond
			avail = r.Range(20e6, 50e6)
		}
		snap.Latency[key] = metrics.PairLatency{U: key.U, V: key.V, Timestamp: cfg.Start, Last: lat, Mean1: lat}
		snap.Bandwidth[key] = metrics.PairBandwidth{U: key.U, V: key.V, Timestamp: cfg.Start, AvailBps: avail, PeakBps: peakBps}
	}
	racks := pc.Racks
	rackSize := (n + racks - 1) / racks
	rackLo := func(a int) int { return a * rackSize }
	rackHi := func(a int) int {
		hi := (a + 1) * rackSize
		if hi > n {
			hi = n
		}
		return hi
	}
	for a := 0; a < racks; a++ {
		for u := rackLo(a); u < rackHi(a); u++ {
			for v := u + 1; v < rackHi(a); v++ {
				addPair(u, v, true)
			}
		}
	}
	for a := 0; a < racks; a++ {
		for b := a + 1; b < racks; b++ {
			for s := 0; s < 4; s++ {
				u := rackLo(a) + r.Intn(rackHi(a)-rackLo(a))
				v := rackLo(b) + r.Intn(rackHi(b)-rackLo(b))
				addPair(u, v, false)
			}
		}
	}
	return snap
}

// maybeRefresh folds the committed-rank deltas accumulated since the
// last monitor tick into the snapshot and re-prices the model in place
// — the simulated monitor publish. Between ticks the model stays stale
// on purpose.
func (p *policyState) maybeRefresh(now time.Time) error {
	if now.Before(p.nextRefresh) {
		return nil
	}
	p.nextRefresh = now.Add(p.period)
	if len(p.ps.dirty) == 0 {
		return nil
	}
	for _, i := range p.ps.dirty {
		p.applyNode(i)
	}
	// Deferred-pricing refresh: fold the changed rows and column stats
	// in, but skip the full Equation 1 re-score — every decision prices
	// the candidate rows it reads through ChargeRanksAt, so the model's
	// own CL/CLUnit are never consulted between refreshes.
	if !p.model.RefreshAttrs(p.snap, p.ps.dirty) {
		return fmt.Errorf("sim: in-place model refresh refused")
	}
	p.stats.ModelRefreshes++
	for _, i := range p.ps.dirty {
		p.ps.dirtySet[i] = false
	}
	p.ps.dirty = p.ps.dirty[:0]
	return nil
}

// applyNode rebuilds node i's published attributes from its immutable
// base plus the integer committed-rank count — reconstruction, never
// increment/decrement, so start/finish churn cannot accumulate float
// drift.
func (p *policyState) applyNode(i int) {
	p.snap.Nodes[i] = alloc.ChargeRanks(p.ps.baseAttrs[i], p.ps.committed[i])
}

func (p *policyState) markDirty(i int) {
	if !p.ps.dirtySet[i] {
		p.ps.dirtySet[i] = true
		p.ps.dirty = append(p.ps.dirty, i)
	}
}

// selectStarts picks the k cheapest free nodes by unit compute load on
// the decision model (ties break to the lower index). Nil means
// exhaustive: every node seeds a candidate.
func (p *policyState) selectStarts(dec *alloc.CostModel) []int {
	k := p.kStarts
	if k < 0 {
		return nil
	}
	buf := p.ps.startsBuf[:0]
	cl := dec.CLUnit
	for i := 0; i < p.n; i++ {
		if p.ps.busy[i] {
			continue
		}
		if len(buf) < k {
			buf = append(buf, i)
		} else if cl[i] < cl[buf[k-1]] {
			buf[k-1] = i
		} else {
			continue
		}
		for j := len(buf) - 1; j > 0 && cl[buf[j]] < cl[buf[j-1]]; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	p.ps.startsBuf = buf
	return buf
}

// place decides job j's node assignment: refresh the model if the
// monitor tick passed, charge live reservations onto it (in dec's
// reused buffers), run the constrained Algorithms 1-2, then commit the
// placement — mark nodes busy, stage the load delta for the next
// refresh, and register the reservation.
func (p *policyState) place(j *simJob, now time.Time) error {
	if err := p.maybeRefresh(now); err != nil {
		return err
	}
	p.stats.Decisions++
	// Build capacities and the free-node candidate list first: charging
	// then prices only the rows Algorithm 1 can actually select (busy
	// nodes have zero capacity and are never read).
	caps := p.ps.caps
	cand := p.ps.cand[:0]
	for i := range caps {
		if p.ps.busy[i] {
			caps[i] = 0
		} else {
			caps[i] = j.ppn
			cand = append(cand, i)
		}
	}
	p.ps.cand = cand
	dec, ok := p.rp.ChargedModelAt(now, p.model, cand, &p.ps.dec)
	if !ok {
		dec = p.model
		p.stats.FallbackDecisions++
	} else if dec != p.model {
		p.stats.ChargedDecisions++
	}
	req := p.req
	req.Procs = j.procs
	req.PPN = j.ppn
	ca, err := p.pol.AllocateConstrained(dec, req, caps, p.selectStarts(dec), &p.ps.sc)
	if err != nil {
		return fmt.Errorf("sim: placement for job %d: %w", j.id, err)
	}
	pl := p.ps.getPlacement()
	pl.nodes = append(pl.nodes[:0], ca.Nodes...)
	pl.counts = append(pl.counts[:0], ca.Counts...)
	for k, i := range pl.nodes {
		c := pl.counts[k]
		p.ps.committed[i] += c
		p.ps.busy[i] = true
		p.markDirty(i)
	}
	pl.cancel = p.rp.ReserveRanks(pl.nodes, pl.counts, now)
	j.place = pl
	j.clCost = ca.ComputeCost
	j.nlCost = ca.NetworkCost
	p.clSum += ca.ComputeCost
	p.nlSum += ca.NetworkCost
	return nil
}

// release returns j's nodes: committed ranks come off (staged for the
// next refresh), the reservation is cancelled, and the placement goes
// back to the freelist.
func (p *policyState) release(j *simJob) {
	pl := j.place
	if pl == nil {
		return
	}
	for k, i := range pl.nodes {
		p.ps.committed[i] -= pl.counts[k]
		p.ps.busy[i] = false
		p.markDirty(i)
	}
	pl.cancel()
	pl.cancel = nil
	j.place = nil
	p.ps.placeFree = append(p.ps.placeFree, pl)
}

// finalize folds the cost sums into the stats and returns a copy.
func (p *policyState) finalize() *PolicyStats {
	st := p.stats
	if st.Decisions > 0 {
		st.MeanCLCost = p.clSum / float64(st.Decisions)
		st.MeanNLCost = p.nlSum / float64(st.Decisions)
	}
	return &st
}
