// Package broker ties the resource monitor and the node allocator into
// the user-facing service of Figure 3: a user submits a request (process
// count, optional ppn, α/β, policy), the broker assembles the current
// monitoring snapshot, runs the allocation policy, and returns the chosen
// node set as an MPI hostfile.
//
// The broker also implements the paper's future-work recommendation
// (§6): when the whole cluster is heavily loaded there is no good set of
// nodes, and the broker advises the user to wait instead of allocating.
package broker

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/metrics"
	"nlarm/internal/monitor"
	"nlarm/internal/obs"
	"nlarm/internal/rng"
	"nlarm/internal/simtime"
)

// Recommendation is the broker's verdict on a request.
type Recommendation string

const (
	// RecommendAllocate means the returned allocation is good to use.
	RecommendAllocate Recommendation = "allocate"
	// RecommendWait means the cluster is too loaded for a useful
	// allocation; the job should be submitted later.
	RecommendWait Recommendation = "wait"
)

// Request is a broker allocation request.
type Request struct {
	// Procs is the total number of MPI processes.
	Procs int `json:"procs"`
	// PPN optionally fixes processes per node.
	PPN int `json:"ppn,omitempty"`
	// Alpha/Beta balance compute vs network cost (Equation 4); both zero
	// means 0.5/0.5.
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	// Policy selects the allocation policy by name; empty means
	// "net-load-aware".
	Policy string `json:"policy,omitempty"`
	// Force requests an allocation even when the broker would recommend
	// waiting.
	Force bool `json:"force,omitempty"`
	// UseForecast prices nodes by their NWS-style forecasts instead of the
	// windowed means.
	UseForecast bool `json:"use_forecast,omitempty"`
	// Explain additionally returns every candidate sub-graph the heuristic
	// considered (net-load-aware only) — the machine-readable version of
	// the paper's Figure 7 analysis.
	Explain bool `json:"explain,omitempty"`
}

// CandidateInfo is one candidate sub-graph from Algorithm 1, with its
// Equation-4 total load.
type CandidateInfo struct {
	Start     int     `json:"start"`
	Nodes     []int   `json:"nodes"`
	TotalLoad float64 `json:"total_load"`
	Chosen    bool    `json:"chosen"`
	// Spill marks a candidate from the hierarchical allocator that could
	// not be satisfied inside its seed shard and crossed shard boundaries.
	Spill bool `json:"spill,omitempty"`
}

// Response is the broker's answer.
type Response struct {
	Recommendation Recommendation   `json:"recommendation"`
	Policy         string           `json:"policy"`
	Nodes          []int            `json:"nodes"`
	Procs          map[int]int      `json:"procs"`
	Hostfile       []string         `json:"hostfile"`
	SnapshotAge    time.Duration    `json:"snapshot_age"`
	ClusterLoad    float64          `json:"cluster_load_per_core"`
	Allocation     alloc.Allocation `json:"-"`
	// FreeProcs is the cluster's aggregate idle process slots in the
	// served snapshot (Σ NodeFreeSlots over monitored livehosts) — the
	// non-wrapping free-capacity reading the job queue's backfill
	// admission works from. Populated for every outcome, including waits
	// and errors past the snapshot read.
	FreeProcs int `json:"free_procs"`
	// EarliestStart estimates, on wait answers only, when the cluster-wide
	// load will have decayed back to the wait threshold: assuming the
	// 1-minute load means decay exponentially with their 60-second time
	// constant, load(t) = load·exp(-t/60s) reaches the threshold at
	// now + ln(load/threshold)·60s. The job queue uses it as the head
	// job's reserved-start estimate; it is a model, not a promise.
	EarliestStart time.Time `json:"earliest_start,omitempty"`
	// Degraded reports that the monitoring store could not serve a fresh
	// snapshot and the answer came from the broker's last-good copy
	// (restricted to nodes still present in the current livehosts list
	// when that list was readable). DegradedReason says why.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Candidates holds Algorithm 1's full candidate set when the request
	// asked for an explanation (net-load-aware policy only).
	Candidates []CandidateInfo `json:"candidates,omitempty"`
	// SnapshotFP is the content fingerprint of the monitoring snapshot
	// this answer was priced against. Every response in one batch
	// carries the same fingerprint — the batcher's same-generation
	// guarantee, testable by clients.
	SnapshotFP uint64 `json:"snapshot_fp,omitempty"`

	// counterfactuals carries the top-k rejected candidates from the
	// allocate path into the decision record (Config.CounterfactualK > 0,
	// net-load-aware only). Unexported: it is decision-log material, not
	// part of the wire response — clients wanting candidates ask with
	// Explain.
	counterfactuals []CounterfactualCandidate
}

// Config tunes the broker.
type Config struct {
	// WaitLoadPerCore is the cluster-wide average CPU load per logical
	// core above which the broker recommends waiting. Default 0.9.
	WaitLoadPerCore float64
	// SnapshotMaxAge is how stale node data may be before the broker
	// refuses to allocate. Default 2 minutes.
	SnapshotMaxAge time.Duration
	// Seed drives policy randomness.
	Seed uint64
	// Obs is the instrumentation registry the broker records into. Nil
	// makes the broker create a private one (so the "metrics" wire action
	// always has data); pass a shared registry to aggregate the whole
	// stack's metrics in one place.
	Obs *obs.Registry
	// DecisionLog bounds the allocation decision ring. Default 256.
	DecisionLog int
	// CounterfactualK retains the k cheapest rejected Algorithm 1
	// candidates (with their decision-time CL/NL pricing) in every
	// net-load-aware decision record, for counterfactual regret analysis
	// (internal/tune). 0 — the default — records no counterfactuals and
	// keeps the allocate path bit-identical to a broker without the
	// feature.
	CounterfactualK int
	// Shard configures the hierarchical cost model (topology-sharded
	// network-load layer). The zero value leaves sharding off (the dense
	// exhaustive path at every size); set Shard.Threshold (e.g.
	// alloc.DefaultShardThreshold) to enable it, and Shard.Plan (from
	// topology.Shards) for topology-aligned shards instead of hash
	// buckets. See alloc.ShardOptions.
	Shard alloc.ShardOptions
}

func (c Config) withDefaults() Config {
	if c.WaitLoadPerCore == 0 {
		c.WaitLoadPerCore = 0.9
	}
	if c.SnapshotMaxAge == 0 {
		c.SnapshotMaxAge = 2 * time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	if c.DecisionLog <= 0 {
		c.DecisionLog = 256
	}
	return c
}

// Broker serves allocation requests from monitoring data in a shared
// store. It is safe for concurrent use.
type Broker struct {
	cfg      Config
	st       monitor.GenSource
	rt       simtime.Runtime
	mu       sync.Mutex
	rnd      *rng.Rand
	policies map[string]alloc.Policy

	// Delta snapshot pipeline: snapshots come from a SnapshotCache that
	// re-reads only the keys whose store generation changed; concurrent
	// Allocate calls coalesce behind one in-flight refresh.
	cache  *monitor.SnapshotCache
	sfMu   sync.Mutex
	sfCall *refreshCall

	// Cost-model cache: the Equation 1/2 evaluations of the snapshot
	// content fingerprinted modelFP, keyed by pricing inputs, so
	// back-to-back Allocate calls against an unchanged monitoring view
	// skip recomputation. A fingerprint change (the monitor republished)
	// retires the current generation of models into prevModels for one
	// epoch, so an incremental refresh (only k nodes' dynamic attributes
	// changed) can update the retired model in place instead of
	// rebuilding O(n²).
	modelMu    sync.Mutex
	models     map[modelKey]*alloc.CostModel
	modelFP    uint64
	prevModels map[modelKey]*alloc.CostModel
	prevFP     uint64

	// Degraded-mode state: the last snapshot that passed the freshness
	// checks, kept (shared, see metrics.Snapshot) so a monitoring outage
	// (store unreadable, data aged out) downgrades service instead of
	// interrupting it. lastGoodFP gates the replacement: while the content
	// is unchanged lastGood stays the view that first served it, so its
	// Taken — the degraded SnapshotAge and the reserving policy's clock —
	// reads "when this content was first served".
	lastGoodMu sync.Mutex
	lastGood   *metrics.Snapshot
	lastGoodFP uint64
	degraded   uint64 // responses served from lastGood

	// Observability: counters/histograms plus the bounded decision log
	// served by the "metrics"/"decisions" wire actions. decMu orders Seq
	// assignment with the ring append (concurrent recordDecision calls
	// must not interleave between the two), guarding decSeq.
	obs       *obs.Registry
	decisions *obs.Ring[DecisionRecord]
	decMu     sync.Mutex
	decSeq    uint64
}

// modelKey identifies one cached cost model within a generation: the
// pricing inputs a request can vary (attribute weights, forecast flag).
// The snapshot fingerprint is not part of it because each generation map
// holds one fingerprint's models only (models/modelFP, prevModels/prevFP),
// and the sharding options are not because they are fixed per broker.
type modelKey struct {
	weights  alloc.Weights
	forecast bool
}

// refreshCall is one in-flight snapshot-cache refresh; concurrent
// requests wait on done and share its result (singleflight).
type refreshCall struct {
	done chan struct{}
	res  monitor.Refresh
	err  error
}

// New builds a broker reading monitoring data from st, with the standard
// policy set registered (random, sequential, load-aware, net-load-aware).
// The store must track per-key generations (wrap any backend with
// store.Version): the broker reads it only through a delta SnapshotCache.
func New(st monitor.GenSource, rt simtime.Runtime, cfg Config) *Broker {
	cfg = cfg.withDefaults()
	b := &Broker{
		cfg:       cfg,
		st:        st,
		rt:        rt,
		rnd:       rng.New(cfg.Seed),
		policies:  make(map[string]alloc.Policy),
		cache:     monitor.NewSnapshotCache(st, cfg.Obs, rt.Now),
		models:    make(map[modelKey]*alloc.CostModel),
		obs:       cfg.Obs,
		decisions: obs.NewRing[DecisionRecord](cfg.DecisionLog),
	}
	for _, p := range alloc.PaperPolicies() {
		b.policies[p.Name()] = p
	}
	return b
}

// RegisterPolicy adds or replaces a policy under its name.
func (b *Broker) RegisterPolicy(p alloc.Policy) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.policies[p.Name()] = p
}

// Policies returns the registered policy names, sorted.
func (b *Broker) Policies() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.policies))
	for n := range b.policies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns the current consolidated monitoring view from a full
// store read. It deliberately bypasses the snapshot cache: a second
// consumer of Refresh would swallow the PrevFP/ChangedNodes delta the
// cost-model cache needs and turn the next allocate into a full rebuild.
func (b *Broker) Snapshot() (*metrics.Snapshot, error) {
	return monitor.ReadSnapshotObs(b.st, b.rt.Now(), b.obs)
}

// freshView obtains the current monitoring view by a delta refresh of
// the snapshot cache. Concurrent refreshes coalesce — one caller sweeps
// the store, the rest wait on its result.
func (b *Broker) freshView() (monitor.Refresh, error) {
	b.sfMu.Lock()
	if call := b.sfCall; call != nil {
		b.sfMu.Unlock()
		<-call.done
		b.obs.Counter("broker.snapshot.refresh.shared").Inc()
		return call.res, call.err
	}
	call := &refreshCall{done: make(chan struct{})}
	b.sfCall = call
	b.sfMu.Unlock()
	call.res, call.err = b.cache.Refresh(b.rt.Now())
	b.sfMu.Lock()
	b.sfCall = nil
	b.sfMu.Unlock()
	close(call.done)
	return call.res, call.err
}

// acquireSnapshot is Allocate's graceful-degradation front end. It
// prefers a fresh view; when the read fails or the data is older
// than SnapshotMaxAge it falls back to the last snapshot that passed
// those checks, marks it Degraded, and — when the livehosts list is
// still readable — drops nodes no longer in it, so a degraded answer can
// never place ranks on hosts the monitor has since declared dead. With
// no last-good copy (the broker never saw a healthy monitor) the
// original errors surface unchanged.
func (b *Broker) acquireSnapshot() (monitor.Refresh, string, error) {
	sv, err := b.freshView()
	var reason string
	switch {
	case err != nil:
		reason = fmt.Sprintf("snapshot read failed: %v", err)
	case alloc.StaleAfter(sv.Snap, b.cfg.SnapshotMaxAge):
		reason = fmt.Sprintf("monitoring data older than %v", b.cfg.SnapshotMaxAge)
	default:
		b.lastGoodMu.Lock()
		if b.lastGood == nil || b.lastGoodFP != sv.FP {
			b.lastGood = sv.Snap
			b.lastGoodFP = sv.FP
		}
		b.lastGoodMu.Unlock()
		return sv, "", nil
	}

	b.lastGoodMu.Lock()
	lastGood, fp := b.lastGood, b.lastGoodFP
	if lastGood != nil {
		b.degraded++
	}
	b.lastGoodMu.Unlock()
	if lastGood == nil {
		if err != nil {
			return monitor.Refresh{}, "", fmt.Errorf("broker: no monitoring data: %w", err)
		}
		return monitor.Refresh{}, "", fmt.Errorf("broker: monitoring data older than %v; is the monitor running?", b.cfg.SnapshotMaxAge)
	}
	// Header copy only: the content is shared with the last-good view (and
	// through it with the snapshot cache), so the livehosts filter builds
	// a new list instead of compacting the shared one in place.
	lg := *lastGood
	lg.Degraded = true
	if hosts, _, err := monitor.ReadLivehosts(b.st); err == nil {
		cur := make(map[int]bool, len(hosts))
		for _, id := range hosts {
			cur[id] = true
		}
		kept := make([]int, 0, len(lg.Livehosts))
		for _, id := range lg.Livehosts {
			if cur[id] {
				kept = append(kept, id)
			}
		}
		if len(kept) != len(lg.Livehosts) {
			// A dropped host changes content; otherwise the view is
			// last-good's and keeps its fingerprint (and its cached model).
			lg.Livehosts = kept
			fp = lg.Fingerprint()
		}
	}
	return monitor.Refresh{Snap: &lg, FP: fp}, reason, nil
}

// DegradedServed reports how many allocation requests were answered from
// the last-good snapshot instead of a fresh read.
func (b *Broker) DegradedServed() uint64 {
	b.lastGoodMu.Lock()
	defer b.lastGoodMu.Unlock()
	return b.degraded
}

// costModel returns the dense cost model for the served view priced
// with the given weights and forecast flag, reusing the cached
// evaluation when the monitoring content is unchanged since it was
// built. A fingerprint change (the monitor republished) retires the
// current model generation; when the view says the change was
// incremental (same node set, same matrices, k nodes' dynamic
// attributes moved) and the retired generation belongs to the view's
// predecessor fingerprint, the retired model is updated in place via
// CostModel.UpdateNodes instead of being rebuilt from scratch.
func (b *Broker) costModel(sv monitor.Refresh, w alloc.Weights, forecast bool) (*alloc.CostModel, bool) {
	key := modelKey{weights: w, forecast: forecast}
	b.modelMu.Lock()
	defer b.modelMu.Unlock()
	if sv.FP != b.modelFP {
		b.prevModels, b.prevFP = b.models, b.modelFP
		b.models = make(map[modelKey]*alloc.CostModel)
		b.modelFP = sv.FP
	}
	if m, ok := b.models[key]; ok {
		b.obs.Counter("broker.modelcache.hits").Inc()
		return m, true
	}
	var m *alloc.CostModel
	if sv.Incremental && sv.PrevFP != 0 && sv.PrevFP == b.prevFP {
		if pm, ok := b.prevModels[key]; ok {
			if um, ok := pm.UpdateNodes(sv.Snap, sv.ChangedNodes); ok {
				m = um
				b.obs.Counter("broker.model.update.incremental").Inc()
			}
		}
	}
	if m == nil {
		m = alloc.NewCostModelSharded(sv.Snap, w, forecast, b.cfg.Shard)
		b.obs.Counter("broker.model.update.full").Inc()
	}
	if m.Sharded() {
		b.obs.Counter("broker.model.sharded").Inc()
	}
	b.models[key] = m
	b.obs.Counter("broker.modelcache.misses").Inc()
	return m, false
}

// ModelCacheStats reports the cost-model cache's hit and miss counters
// (diagnostic; a registry shared between brokers counts them all).
func (b *Broker) ModelCacheStats() (hits, misses uint64) {
	return b.obs.Counter("broker.modelcache.hits").Value(), b.obs.Counter("broker.modelcache.misses").Value()
}

// clusterLoadPerCore computes the live cluster's average CPU load per
// logical core — the "overall load" of the paper's wait heuristic.
func clusterLoadPerCore(snap *metrics.Snapshot) float64 {
	totalLoad, totalCores := 0.0, 0.0
	for _, id := range snap.Livehosts {
		na, ok := snap.Nodes[id]
		if !ok {
			continue
		}
		totalLoad += na.CPULoad.M1
		totalCores += float64(na.Cores)
	}
	if totalCores == 0 {
		return 0
	}
	return totalLoad / totalCores
}

// loadDecayETA estimates how long until a per-core load above the wait
// threshold decays back to it. The 1-minute running means behave like an
// exponential moving average with a 60-second time constant, so once the
// demand that produced the spike ends, load(t) ≈ load·exp(-t/60s); that
// crosses threshold at t = ln(load/threshold)·60s. The estimate is
// floored at one second so a hair-above-threshold answer still points
// into the future, and it is only a model — jobs may end later (or
// demand may persist), so callers must treat it as a hint, never a
// deadline.
func loadDecayETA(load, threshold float64) time.Duration {
	if threshold <= 0 || load <= threshold {
		return time.Second
	}
	eta := time.Duration(math.Log(load/threshold) * float64(time.Minute))
	if eta < time.Second {
		eta = time.Second
	}
	return eta
}

// Allocate serves one request — AllocateBatch of one — recording a
// structured decision record (request shape, candidate count, chosen
// nodes with per-node CL and pairwise NL contributions, cache hit,
// degraded flag) for every outcome: success, wait, or error.
func (b *Broker) Allocate(req Request) (Response, error) {
	res := b.AllocateBatch([]Request{req})[0]
	return res.Response, res.Err
}

// BatchResult is one request's outcome from AllocateBatch. Exactly one
// of Response/Err is meaningful, matching Allocate's return contract.
type BatchResult struct {
	Response Response
	Err      error
}

// AllocateBatch prices every request against one snapshot generation:
// the snapshot (and its singleflight refresh) is acquired once, then the
// requests are applied sequentially in order, exactly as back-to-back
// Allocate calls against an unchanged store would be — results are
// bit-identical to that sequential execution, including decision
// records and policy-rng consumption. Identical requests under a
// stateless deterministic policy are additionally deduplicated within
// the batch (the first answer is reused), which cannot change results
// precisely because sequential identical requests on one snapshot are
// deterministic for those policies.
func (b *Broker) AllocateBatch(reqs []Request) []BatchResult {
	results := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return results
	}
	start := b.rt.Now()
	sv, degradedReason, err := b.acquireSnapshot()
	if err != nil {
		for i, req := range reqs {
			results[i] = BatchResult{Err: err}
			b.finishDecision(start, req, Response{}, nil, false, err)
		}
		return results
	}
	if degradedReason != "" && len(reqs) > 1 {
		// acquireSnapshot counted one degraded serve, but every request in
		// this batch is answered from the last-good snapshot —
		// DegradedServed counts requests, not snapshot acquisitions.
		b.lastGoodMu.Lock()
		b.degraded += uint64(len(reqs) - 1)
		b.lastGoodMu.Unlock()
	}
	// seen holds the first answer to each dedupable request — on error
	// with the partial response the decision record is built from.
	var seen map[Request]BatchResult
	if len(reqs) > 1 {
		seen = make(map[Request]BatchResult)
	}
	for i, req := range reqs {
		res, dup := seen[req]
		var model *alloc.CostModel
		cacheHit := dup
		if dup {
			// Keep the broker's rng stream identical to the sequential
			// execution: every served request consumes one split.
			b.consumeSplit(req.Policy)
			b.obs.Counter("broker.batch.dedup.hits").Inc()
		} else {
			res.Response, model, cacheHit, res.Err = b.allocateOn(sv, degradedReason, req)
			if seen != nil && !req.Explain && b.dedupablePolicy(req.Policy) {
				seen[req] = res
			}
		}
		b.finishDecision(start, req, res.Response, model, cacheHit, res.Err)
		if res.Err != nil {
			res.Response = Response{}
		}
		results[i] = res
	}
	return results
}

// dedupablePolicy reports whether identical requests under the named
// policy are safe to answer once per batch: the policy must be
// stateless, never draw from its rng split, and be deterministic on a
// fixed snapshot. The built-in net-load-aware and load-aware policies
// qualify; Random and Sequential do not (both draw from the rng, so
// identical back-to-back requests legitimately differ), and registered
// wrappers like ReservingPolicy do not (reservations make back-to-back
// answers differ by design).
func (b *Broker) dedupablePolicy(name string) bool {
	if name == "" {
		name = alloc.NetLoadAware{}.Name()
	}
	b.mu.Lock()
	pol, ok := b.policies[name]
	b.mu.Unlock()
	if !ok {
		return false
	}
	switch pol.(type) {
	case alloc.NetLoadAware, alloc.LoadAware:
		return true
	}
	return false
}

// consumeSplit advances the policy rng exactly as serving the request
// would, so deduplicated batch members leave the same rng stream behind
// as the sequential execution they stand in for. Unknown policies
// consume nothing (the sequential path errors before splitting).
func (b *Broker) consumeSplit(policy string) {
	if policy == "" {
		policy = alloc.NetLoadAware{}.Name()
	}
	b.mu.Lock()
	if _, ok := b.policies[policy]; ok {
		b.rnd.Split()
	}
	b.mu.Unlock()
}

// finishDecision builds and records the decision record for one served
// request and observes the allocate latency histogram.
func (b *Broker) finishDecision(start time.Time, req Request, resp Response, model *alloc.CostModel, cacheHit bool, err error) {
	rec := DecisionRecord{
		At:          start,
		Policy:      req.Policy,
		Procs:       req.Procs,
		PPN:         req.PPN,
		Alpha:       req.Alpha,
		Beta:        req.Beta,
		UseForecast: req.UseForecast,
		Forced:      req.Force,
		CacheHit:    cacheHit,
	}
	if rec.Policy == "" {
		rec.Policy = alloc.NetLoadAware{}.Name()
	}
	// Degraded accounting must match DegradedServed exactly, so these come
	// from the (possibly partial) response even when the request failed.
	rec.Degraded = resp.Degraded
	rec.DegradedReason = resp.DegradedReason
	rec.SnapshotAge = resp.SnapshotAge
	rec.ClusterLoad = resp.ClusterLoad
	rec.FreeProcs = resp.FreeProcs
	rec.EarliestStart = resp.EarliestStart
	if err != nil {
		rec.Error = err.Error()
	} else {
		rec.Recommendation = resp.Recommendation
		rec.Nodes = resp.Nodes
		rec.TotalLoad = resp.Allocation.TotalLoad
		if model != nil {
			rec.Candidates = model.Len()
		}
		rec.Contributions, rec.ComputeCost, rec.NetworkCost = contributions(model, resp.Allocation)
		rec.Counterfactuals = resp.counterfactuals
	}
	b.recordDecision(rec)
	b.obs.Histogram("broker.allocate.seconds").Observe(b.rt.Now().Sub(start).Seconds())
}

// allocateOn prices one request against an already-acquired snapshot
// view: the policy lookup, wait heuristic, cost-model fetch, and policy
// run, also reporting the priced cost model and whether it came from the
// cache (for the decision record).
func (b *Broker) allocateOn(sv monitor.Refresh, degradedReason string, req Request) (Response, *alloc.CostModel, bool, error) {
	if req.Policy == "" {
		req.Policy = alloc.NetLoadAware{}.Name()
	}
	b.mu.Lock()
	pol, ok := b.policies[req.Policy]
	var r *rng.Rand
	if ok {
		r = b.rnd.Split()
	}
	b.mu.Unlock()
	if !ok {
		return Response{}, nil, false, fmt.Errorf("broker: unknown policy %q", req.Policy)
	}
	snap := sv.Snap

	loadPerCore := clusterLoadPerCore(snap)
	resp := Response{Policy: pol.Name(), ClusterLoad: loadPerCore, FreeProcs: alloc.FreeSlots(snap), SnapshotFP: sv.FP}
	if degradedReason != "" {
		resp.Degraded = true
		resp.DegradedReason = degradedReason
		resp.SnapshotAge = b.rt.Now().Sub(snap.Taken)
	} else if oldest := oldestNodeAge(snap); oldest >= 0 {
		resp.SnapshotAge = oldest
	}
	if loadPerCore > b.cfg.WaitLoadPerCore && !req.Force {
		resp.Recommendation = RecommendWait
		resp.EarliestStart = b.rt.Now().Add(loadDecayETA(loadPerCore, b.cfg.WaitLoadPerCore))
		return resp, nil, false, nil
	}

	allocReq := alloc.Request{
		Procs: req.Procs, PPN: req.PPN, Alpha: req.Alpha, Beta: req.Beta,
		UseForecast: req.UseForecast,
	}
	validated, err := allocReq.Validate()
	if err != nil {
		// Error returns past this point keep resp: its Degraded fields
		// already reflect how the snapshot was served, and the decision
		// record must see them even for failed requests.
		return resp, nil, false, err
	}
	model, cacheHit := b.costModel(sv, validated.Weights, validated.UseForecast)
	var a alloc.Allocation
	if nla, ok := pol.(alloc.NetLoadAware); ok && (req.Explain || b.cfg.CounterfactualK > 0) {
		// With CounterfactualK set, non-explain net-load-aware requests
		// also run the explain path: AllocateModel is a thin wrapper over
		// AllocateExplainModel, so the winner (and the rng stream — the
		// policy never draws) is bit-identical, and the candidate set is
		// already materialized for counterfactual retention.
		best, cands, err := nla.AllocateExplainModel(model, allocReq)
		if err != nil {
			return resp, model, cacheHit, err
		}
		a = alloc.Allocation{Policy: nla.Name(), Nodes: best.Nodes, Procs: best.Procs, TotalLoad: best.TotalLoad}
		if req.Explain {
			for _, c := range cands {
				resp.Candidates = append(resp.Candidates, CandidateInfo{
					Start:     c.Start,
					Nodes:     c.Nodes,
					TotalLoad: c.TotalLoad,
					Chosen:    c.Start == best.Start,
					Spill:     c.Spill,
				})
			}
		}
		if k := b.cfg.CounterfactualK; k > 0 {
			for _, c := range alloc.TopRejected(cands, best.Start, k) {
				resp.counterfactuals = append(resp.counterfactuals, CounterfactualCandidate{
					Start:       c.Start,
					Nodes:       c.Nodes,
					ComputeCost: c.ComputeCost,
					NetworkCost: c.NetworkCost,
					TotalLoad:   c.TotalLoad,
					Spill:       c.Spill,
				})
			}
		}
	} else {
		a, err = pol.AllocateModel(model, allocReq, r)
		if err != nil {
			return resp, model, cacheHit, err
		}
	}
	if model.Sharded() {
		b.obs.Counter("broker.alloc.sharded").Inc()
		if spills := model.TakeShardSpills(); spills > 0 {
			b.obs.Counter("broker.alloc.shard.spills").Add(spills)
		}
	}
	resp.Recommendation = RecommendAllocate
	resp.Nodes = a.Nodes
	resp.Procs = a.Procs
	resp.Allocation = a
	for _, n := range a.Nodes {
		resp.Hostfile = append(resp.Hostfile, fmt.Sprintf("%s:%d", snap.Nodes[n].Hostname, a.Procs[n]))
	}
	return resp, model, cacheHit, nil
}

// Obs returns the broker's instrumentation registry (never nil).
func (b *Broker) Obs() *obs.Registry { return b.obs }

// oldestNodeAge returns the age of the freshest node record (how stale
// the best data is), or -1 when there are no records.
func oldestNodeAge(snap *metrics.Snapshot) time.Duration {
	best := time.Duration(-1)
	for _, id := range snap.Livehosts {
		if na, ok := snap.Nodes[id]; ok {
			age := snap.Taken.Sub(na.Timestamp)
			if best < 0 || age < best {
				best = age
			}
		}
	}
	return best
}
