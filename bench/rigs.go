package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/broker"
	"nlarm/internal/cluster"
	"nlarm/internal/harness"
	"nlarm/internal/metrics"
	"nlarm/internal/monitor"
	"nlarm/internal/rng"
	"nlarm/internal/simtime"
	"nlarm/internal/stats"
	"nlarm/internal/store"
	"nlarm/internal/world"
)

// epoch is the fixed virtual start time of every rig.
var epoch = time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)

// reqSeq numbers traced requests across rigs.
var reqSeq atomic.Int64

// checkAlloc verifies one allocate answer against its request and the
// current livehosts: the recommendation is "allocate", the nodes are
// distinct live hosts, the process counts add up to the request and
// respect ppn, and the hostfile has one line per node.
func checkAlloc(req broker.Request, resp broker.Response, err error, live map[int]bool) error {
	if err != nil {
		return err
	}
	if resp.Recommendation != broker.RecommendAllocate {
		return fmt.Errorf("recommendation %q", resp.Recommendation)
	}
	if len(resp.Hostfile) != len(resp.Nodes) {
		return fmt.Errorf("hostfile has %d lines for %d nodes", len(resp.Hostfile), len(resp.Nodes))
	}
	if len(resp.Procs) != len(resp.Nodes) {
		return fmt.Errorf("procs names %d nodes, allocation %d", len(resp.Procs), len(resp.Nodes))
	}
	total := 0
	for i, n := range resp.Nodes {
		// Allocations are a few dozen nodes at most; scanning the prefix
		// keeps the check free of allocations inside the timed client loops.
		if slices.Contains(resp.Nodes[:i], n) {
			return fmt.Errorf("node %d allocated twice", n)
		}
		if !live[n] {
			return fmt.Errorf("node %d is not in livehosts", n)
		}
		p := resp.Procs[n]
		if p < 1 || (req.PPN > 0 && p > req.PPN) {
			return fmt.Errorf("node %d given %d procs (ppn %d)", n, p, req.PPN)
		}
		total += p
	}
	if total != req.Procs {
		return fmt.Errorf("%d procs placed, %d requested", total, req.Procs)
	}
	return nil
}

// liveSet reads the current livehosts list from the store.
func liveSet(st store.Store) (map[int]bool, error) {
	hosts, _, err := monitor.ReadLivehosts(st)
	if err != nil {
		return nil, err
	}
	live := make(map[int]bool, len(hosts))
	for _, h := range hosts {
		live[h] = true
	}
	return live, nil
}

// paperShapes are the request shapes the TCP clients cycle through, in
// the range of the paper's runs (8 to 64 processes, 2 or 4 per node).
var paperShapes = [4]broker.Request{
	{Procs: 16, PPN: 4, Force: true},
	{Procs: 32, PPN: 4, Force: true},
	{Procs: 8, PPN: 2, Alpha: 0.3, Beta: 0.7, Force: true},
	{Procs: 64, PPN: 4, Force: true},
}

// paperRig is the 60-node paper testbed: simulated world, every monitor
// daemon at paper cadence over a versioned in-memory store, and the
// broker behind its batching TCP server with one client per CPU.
type paperRig struct {
	e     *env
	live  bool
	sched *simtime.Scheduler
	stop  simtime.CancelFunc
	mgr   *monitor.Manager
	st    monitor.GenSource
	raw   store.Store // st without the timing decorator, for the checks
	b     *broker.Broker
	srv   *broker.Server
	cls   []*broker.Client

	steps, perClient int
	seq              int
	lastFP           uint64
	closed           bool
}

// stepAdvance is how far one live step moves virtual time: one
// NodeStateD period, so every node republishes.
const stepAdvance = 5 * time.Second

func buildPaper(e *env, live bool) (rig, error) {
	cl, err := cluster.BuildIITK()
	if err != nil {
		return nil, err
	}
	r := &paperRig{e: e, live: live, steps: 250, perClient: 2000}
	warm := harness.DefaultWarmUp
	if e.toy {
		r.steps, r.perClient, warm = 6, 40, 6*time.Minute
	}
	r.sched = simtime.NewScheduler(epoch)
	var rt simtime.Runtime = r.sched
	r.st = store.Version(store.NewMem())
	r.raw = r.st
	w := world.New(cl, world.Config{Seed: e.seed}, epoch)
	var pr monitor.Prober = &monitor.WorldProber{W: w}
	if e.tr != nil {
		rt = tracedRuntime{rt, e.tr}
		r.st = tracedStore{r.st, e.tr}
		pr = tracedProber{pr, e.tr}
	}
	r.stop = w.Attach(rt)
	r.mgr = monitor.NewManager(pr, r.st, monitor.Config{})
	if err := r.mgr.Start(rt); err != nil {
		r.close()
		return nil, err
	}
	r.sched.RunFor(warm)
	r.b = broker.New(r.st, r.sched, broker.Config{Seed: e.seed + 7})
	r.srv, err = broker.NewServerOpts(r.b, nil, "127.0.0.1:0", broker.ServerOptions{Batching: &broker.BatcherOptions{}})
	if err != nil {
		r.close()
		return nil, err
	}
	for i := 0; i < e.nproc; i++ {
		c, err := broker.Dial(r.srv.Addr(), 5*time.Second)
		if err != nil {
			r.close()
			return nil, err
		}
		r.cls = append(r.cls, c)
	}
	// Untimed warm-up: a fifth of a round, so pools, buffers and both
	// caches are in their steady state before the first measured round.
	var rs roundStats
	if live {
		r.liveRound(&rs, (r.steps+4)/5)
	} else {
		r.frozenRound(&rs, (r.perClient+4)/5)
	}
	if rs.failed > 0 {
		r.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed their checks", rs.failed, rs.attempted)
	}
	return r, nil
}

func (r *paperRig) close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, c := range r.cls {
		c.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.stop != nil {
		r.stop()
	}
	if r.mgr != nil {
		r.mgr.Stop()
	}
}

func (r *paperRig) round(rs *roundStats) {
	if r.live {
		r.liveRound(rs, r.steps)
	} else {
		r.frozenRound(rs, r.perClient)
	}
}

// call sends one request on client c, times it at the caller and, when
// tracing, records it under the open phase.
func (r *paperRig) call(c int, req broker.Request) (broker.Response, time.Duration, error) {
	t0 := time.Now()
	resp, err := r.cls[c].Allocate(req)
	d := time.Since(t0)
	if r.e.tr != nil {
		r.e.tr.record("client.allocate", reqSeq.Add(1), t0, 0)
	}
	return resp, d, err
}

// liveRound advances virtual time one NodeStateD period per step, so
// every node republishes (and the latency and bandwidth sweeps land on
// their own cadence), then has every client send one request at once:
// each step's requests are the first on a new generation.
func (r *paperRig) liveRound(rs *roundStats, steps int) {
	type answer struct {
		req  broker.Request
		resp broker.Response
		err  error
		d    time.Duration
	}
	answers := make([]answer, len(r.cls))
	for s := 0; s < steps; s++ {
		var phase *scope
		if r.e.tr != nil {
			phase = r.e.tr.enter("bench.advance", 0)
		}
		t0 := time.Now()
		r.sched.RunFor(stepAdvance)
		rs.workWall += time.Since(t0)
		if phase != nil {
			phase.exit()
			phase = r.e.tr.enter("bench.requests", 0)
		}
		var wg sync.WaitGroup
		for c := range r.cls {
			wg.Add(1)
			go func(c int, req broker.Request) {
				defer wg.Done()
				resp, d, err := r.call(c, req)
				answers[c] = answer{req, resp, err, d}
			}(c, paperShapes[(r.seq+c)%len(paperShapes)])
		}
		wg.Wait()
		if phase != nil {
			phase.exit()
		}
		r.seq += len(r.cls)

		live, lerr := liveSet(r.raw)
		fp := answers[0].resp.SnapshotFP
		for _, a := range answers {
			rs.attempted++
			err := lerr
			if err == nil {
				err = checkAlloc(a.req, a.resp, a.err, live)
			}
			if err == nil && (a.resp.SnapshotFP == r.lastFP || a.resp.SnapshotFP != fp) {
				err = fmt.Errorf("snapshot fingerprint %x after a republish (previous %x, batch %x)", a.resp.SnapshotFP, r.lastFP, fp)
			}
			if err != nil {
				rs.failed++
				continue
			}
			ms := float64(a.d) / 1e6
			rs.opMs = append(rs.opMs, ms)
			rs.freshMs = append(rs.freshMs, ms)
		}
		r.lastFP = fp
	}
	rs.vsec += float64(steps) * stepAdvance.Seconds()
	rs.work += float64(steps) * stepAdvance.Seconds()
	rs.ops += steps * len(r.cls)
}

// frozenRound leaves virtual time alone: every client issues perClient
// sequential requests against one unchanged generation.
func (r *paperRig) frozenRound(rs *roundStats, perClient int) {
	live, lerr := liveSet(r.raw)
	if r.lastFP == 0 {
		// The first request of the rig fixes the fingerprint every later
		// one must repeat.
		if resp, err := r.cls[0].Allocate(paperShapes[0]); err == nil {
			r.lastFP = resp.SnapshotFP
		}
	}
	type tally struct {
		ms     []float64
		failed int
	}
	tallies := make([]tally, len(r.cls))
	var phase *scope
	if r.e.tr != nil {
		phase = r.e.tr.enter("bench.requests", 0)
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range r.cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			t.ms = make([]float64, 0, perClient)
			for i := 0; i < perClient; i++ {
				req := paperShapes[(c+i)%len(paperShapes)]
				resp, d, err := r.call(c, req)
				if err == nil {
					err = lerr
				}
				if err == nil {
					err = checkAlloc(req, resp, nil, live)
				}
				if err != nil || resp.SnapshotFP != r.lastFP {
					t.failed++
					continue
				}
				t.ms = append(t.ms, float64(d)/1e6)
			}
		}(c)
	}
	wg.Wait()
	rs.workWall += time.Since(t0)
	if phase != nil {
		phase.exit()
	}
	for _, t := range tallies {
		rs.failed += t.failed
		rs.opMs = append(rs.opMs, t.ms...)
		rs.warmMs = append(rs.warmMs, t.ms...)
	}
	n := perClient * len(r.cls)
	rs.attempted += n
	rs.work += float64(n)
	rs.ops += n
}

func (r *paperRig) counters(m map[string]float64) { brokerCounters(r.b, m) }

func (r *paperRig) ladder(m map[string]float64) error {
	t := ladderTarget{st: r.st, b: r.b, now: r.sched.Now, req: paperShapes[1], nproc: r.e.nproc, toy: r.e.toy}
	if r.live {
		t.churn = func() { r.sched.RunFor(stepAdvance) }
	}
	return t.run(m)
}

// brokerCounters reads the broker's own counts through its public
// accessors.
func brokerCounters(b *broker.Broker, m map[string]float64) {
	hits, misses := b.ModelCacheStats()
	if hits+misses > 0 {
		m["broker.modelcache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	for _, name := range []string{
		"broker.model.update.incremental", "broker.model.update.full",
		"broker.snapshot.refresh.shared", "broker.alloc.shard.spills",
	} {
		m[name] = float64(b.Obs().Counter(name).Value())
	}
}

// synthRig is an in-process broker over a store filled with synthetic
// monitoring records in the daemons' JSON formats: n nodes, either a
// full mesh of pair measurements (dense) or full meshes inside 64-node
// shards plus 4 measured boundary pairs per shard pair (sharded).
type synthRig struct {
	e     *env
	sched *simtime.Scheduler
	st    monitor.GenSource
	b     *broker.Broker
	shard alloc.ShardOptions
	attrs []metrics.NodeAttrs
	live  map[int]bool
	rnd   *rng.Rand
	req   broker.Request

	churnK, steps int
	lastFP        uint64
	cost          float64 // mean decision cost of the first measured round
	haveCost      bool
}

// warmPerStep is how many requests on the unchanged generation follow
// each fresh one.
const warmPerStep = 3

func buildSynth(e *env, sharded bool) (rig, error) {
	r := &synthRig{e: e, sched: simtime.NewScheduler(epoch), rnd: rng.New(e.seed)}
	nShards, shardSize := 1, 256
	r.churnK, r.steps = 8, 40
	r.req = broker.Request{Procs: 128, PPN: 2, Alpha: 0.3, Beta: 0.7, Force: true}
	if sharded {
		nShards, shardSize = 16, 64
		r.churnK, r.steps = 32, 32
		r.req.Procs = 64
		r.shard.Threshold = alloc.DefaultShardThreshold
	}
	if e.toy {
		shardSize, r.steps = shardSize/8, 4
		r.req.Procs /= 8
		if sharded {
			r.shard.Threshold, r.shard.MaxShardSize = nShards*shardSize, shardSize
		}
	}
	n := nShards * shardSize
	r.st = store.Version(store.NewMem())
	if e.tr != nil {
		r.st = tracedStore{r.st, e.tr}
	}

	groups := make([][]int, nShards)
	hosts := make([]int, n)
	r.attrs = make([]metrics.NodeAttrs, n)
	r.live = make(map[int]bool, n)
	for i := 0; i < n; i++ {
		hosts[i] = i
		r.live[i] = true
		groups[i/shardSize] = append(groups[i/shardSize], i)
		r.attrs[i] = metrics.NodeAttrs{
			NodeID: i, Hostname: fmt.Sprintf("n%04d", i), Timestamp: epoch,
			Cores: 12, FreqGHz: 4.6, TotalMemMB: 16384,
		}
		r.reload(i)
		if err := r.publish(i); err != nil {
			return nil, err
		}
	}
	if sharded {
		r.shard.Plan = alloc.NewShardPlan(groups, "bench")
	}
	var lat []metrics.PairLatency
	var bw []metrics.PairBandwidth
	measure := func(i, j, latUS, latSpreadUS int, availLo, availHi float64) {
		d := time.Duration(latUS+r.rnd.Intn(latSpreadUS)) * time.Microsecond
		lat = append(lat, metrics.PairLatency{U: i, V: j, Timestamp: epoch, Last: d, Mean1: d, Mean5: d})
		bw = append(bw, metrics.PairBandwidth{U: i, V: j, Timestamp: epoch, AvailBps: r.rnd.Range(availLo, availHi), PeakBps: 125e6})
	}
	for _, g := range groups {
		for a := 0; a < len(g); a++ {
			for b := a + 1; b < len(g); b++ {
				if sharded {
					measure(g[a], g[b], 50, 100, 80e6, 120e6)
				} else {
					measure(g[a], g[b], 80, 400, 10e6, 120e6)
				}
			}
		}
	}
	for sa := 0; sa < nShards; sa++ {
		for sb := sa + 1; sb < nShards; sb++ {
			for k := 0; k < 4; k++ {
				measure(groups[sa][k%shardSize], groups[sb][(k*7)%shardSize], 300, 600, 10e6, 60e6)
			}
		}
	}
	// The record a LivehostsD replica publishes.
	livehosts := struct {
		Replica int       `json:"replica"`
		At      time.Time `json:"at"`
		Hosts   []int     `json:"hosts"`
	}{0, epoch, hosts}
	for key, v := range map[string]any{
		monitor.KeyLivehostsPrefix + "0": livehosts,
		monitor.KeyLatencyMatrix:         lat,
		monitor.KeyBandwidthMatrix:       bw,
	} {
		if err := putJSON(r.st, key, v); err != nil {
			return nil, err
		}
	}
	r.b = broker.New(r.st, r.sched, broker.Config{Seed: e.seed + 7, Shard: r.shard})

	var rs roundStats
	r.run(&rs, (r.steps+4)/5)
	if rs.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed their checks", rs.failed, rs.attempted)
	}
	r.haveCost = false
	return r, nil
}

func putJSON(st store.Store, key string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("marshal %s: %w", key, err)
	}
	return st.Put(key, b)
}

// reload draws node i's dynamic attributes afresh.
func (r *synthRig) reload(i int) {
	na := &r.attrs[i]
	load := r.rnd.Range(0, 8)
	na.CPULoad = stats.Windowed{M1: load, M5: load, M15: load}
	na.CPUUtilPct = stats.Windowed{M1: load * 8, M5: load * 8, M15: load * 8}
	na.FlowRateBps = stats.Windowed{M1: r.rnd.Range(1e5, 1e8), M5: 1e6, M15: 1e6}
	na.AvailMemMB = stats.Windowed{M1: r.rnd.Range(2000, 15000), M5: 12000, M15: 12000}
}

func (r *synthRig) publish(i int) error {
	return putJSON(r.st, fmt.Sprintf("%s%d", monitor.KeyNodeStatePrefix, i), r.attrs[i])
}

// churn republishes churnK randomly chosen node states, the way that
// many NodeStateD ticks would.
func (r *synthRig) churn() {
	for k := 0; k < r.churnK; k++ {
		i := r.rnd.Intn(len(r.attrs))
		r.reload(i)
		// A MemStore Put cannot fail, and a marshalling failure would
		// show as a fingerprint that did not move.
		_ = r.publish(i)
	}
}

func (r *synthRig) close() {}

func (r *synthRig) round(rs *roundStats) { r.run(rs, r.steps) }

func (r *synthRig) allocate() (broker.Response, time.Duration, error) {
	var sc *scope
	if r.e.tr != nil {
		sc = r.e.tr.enter("client.allocate", reqSeq.Add(1))
	}
	t0 := time.Now()
	resp, err := r.b.Allocate(r.req)
	d := time.Since(t0)
	if sc != nil {
		sc.exit()
	}
	return resp, d, err
}

// run does steps steps of: republish churnK nodes, one fresh allocate,
// warmPerStep warm ones. Every answer is checked, and the broker's own
// decision log must show the fresh one priced on a new model and the
// warm ones served from the cache.
func (r *synthRig) run(rs *roundStats, steps int) {
	for s := 0; s < steps; s++ {
		r.churn()
		for j := 0; j <= warmPerStep; j++ {
			resp, d, err := r.allocate()
			rs.attempted++
			if err = checkAlloc(r.req, resp, err, r.live); err == nil {
				if fresh := j == 0; fresh == (resp.SnapshotFP == r.lastFP) {
					err = fmt.Errorf("snapshot fingerprint %x (previous %x) on request %d after a republish", resp.SnapshotFP, r.lastFP, j)
				}
			}
			r.lastFP = resp.SnapshotFP
			if err != nil {
				rs.failed++
				continue
			}
			ms := float64(d) / 1e6
			if j == 0 {
				rs.opMs = append(rs.opMs, ms)
				rs.freshMs = append(rs.freshMs, ms)
			} else {
				rs.warmMs = append(rs.warmMs, ms)
				rs.work++
				rs.workWall += d
			}
		}
	}
	rs.ops += steps * (1 + warmPerStep)

	per := 1 + warmPerStep
	decs := r.b.Decisions(steps * per)
	costSum, bad := 0.0, len(decs) != steps*per
	for i, d := range decs {
		fresh := i%per == 0
		if d.CacheHit == fresh {
			bad = true
		}
		if fresh {
			costSum += r.req.Alpha*d.ComputeCost + r.req.Beta*d.NetworkCost
		}
	}
	rs.attempted++
	if bad {
		rs.failed++
	} else if !r.haveCost {
		r.cost, r.haveCost = costSum/float64(steps), true
	}
}

func (r *synthRig) quality(m map[string]float64) { m["quality.decision_cost"] = r.cost }

func (r *synthRig) counters(m map[string]float64) { brokerCounters(r.b, m) }

func (r *synthRig) ladder(m map[string]float64) error {
	t := ladderTarget{st: r.st, b: r.b, now: r.sched.Now, req: r.req, shard: r.shard, churn: r.churn, nproc: r.e.nproc, toy: r.e.toy}
	return t.run(m)
}
