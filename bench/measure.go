package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// env is what a workload is built from. The program under test never
// sees the seed, only the inputs generated from it.
type env struct {
	seed  uint64
	nproc int
	// toy shrinks every workload to a fraction of a second (tests).
	toy bool
	// tr is non-nil on the traced pass: rigs then install the timing
	// decorators. With tracing off no decorator is in the call path.
	tr *tracer
}

// roundStats is what one round of fixed work reports.
type roundStats struct {
	// opMs are the latencies of the workload's headline operation, timed
	// at the caller.
	opMs []float64
	// work units done in workWall (the workload's work_per_s).
	work     float64
	workWall time.Duration
	// ops divides the allocated bytes for heap_kb_per_op.
	ops int
	// attempted and failed count checked outputs.
	attempted, failed int
	// freshMs and warmMs are the load generator's view of allocate
	// requests on a new and on an unchanged generation.
	freshMs, warmMs []float64
	// vsec is the virtual time the round advanced.
	vsec float64
	// steal is the share of the round's CPU time the hypervisor gave to
	// someone else (0 where the kernel does not report it).
	steal float64
}

// rig is a built and warmed-up workload.
type rig interface {
	// round runs one round of fixed work and checks every output.
	round(rs *roundStats)
	close()
}

// qualityRig is implemented by rigs with a deterministic result-quality
// figure (same seed, same value).
type qualityRig interface {
	quality(m map[string]float64)
}

// ladderRig is implemented by rigs that can time their layers one by
// one from outside, on the rig's own data.
type ladderRig interface {
	ladder(m map[string]float64) error
}

// counterRig is implemented by rigs whose program exposes counters
// through public accessors.
type counterRig interface {
	counters(m map[string]float64)
}

// result is one measured pass of one workload.
type result struct {
	attempted, failed int
	rounds            int
	metrics           map[string]float64
	// perRound keeps each end-to-end metric's per-round values so the
	// sheet can show min and max beside the median.
	perRound map[string][]float64
	// info lines are printed but are not metrics.
	info []string
}

type options struct {
	seed    uint64
	seconds float64
	// setups is how many times the rig is built for setup_s (at least
	// once).
	setups int
	toy    bool
	// outDir receives the span file of a traced pass.
	outDir string
}

// minRounds is the fewest rounds a pass measures, however short
// -seconds is.
const minRounds = 3

// stealTicks reads the hypervisor-steal counter (USER_HZ ticks, all
// CPUs) from the first line of /proc/stat; ok is false where there is
// none.
func stealTicks() (ticks uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err = strconv.ParseUint(f[8], 10, 64)
	return ticks, err == nil
}

// userHZ is the tick rate of /proc/stat, fixed at 100 on Linux.
const userHZ = 100

// runRounds runs rounds on r until seconds have passed and at least
// minRounds are done, and returns them.
func runRounds(r rig, seconds float64) []*roundStats {
	var out []*roundStats
	start := time.Now()
	for len(out) < minRounds || time.Since(start).Seconds() < seconds {
		rs := &roundStats{}
		t0 := time.Now()
		s0, ok := stealTicks()
		r.round(rs)
		if s1, _ := stealTicks(); ok && s1 > s0 {
			rs.steal = float64(s1-s0) / (userHZ * time.Since(t0).Seconds() * float64(runtime.NumCPU()))
		}
		out = append(out, rs)
	}
	return out
}

// maxSteal is the share of a round's CPU time the hypervisor may take
// before the round's timings are set aside.
const maxSteal = 0.05

// calm returns the rounds whose timings count: those that lost at most
// maxSteal of their CPU time to the hypervisor, or, when fewer than
// minRounds did, the minRounds that lost the least. On a shared host a
// burst of steal halves a round's throughput whatever the code does;
// the checks and the memory figures of a set-aside round still count.
func calm(rounds []*roundStats) []*roundStats {
	bySteal := append([]*roundStats(nil), rounds...)
	sort.SliceStable(bySteal, func(i, j int) bool { return bySteal[i].steal < bySteal[j].steal })
	n := sort.Search(len(bySteal), func(i int) bool { return bySteal[i].steal > maxSteal })
	if n < minRounds {
		n = min(minRounds, len(bySteal))
	}
	return bySteal[:n]
}

// summarise folds rounds into the per-round series of op_p50_ms and
// work_per_s (calm rounds only) and the failure counts (all rounds).
func summarise(rounds []*roundStats, res *result) {
	for _, rs := range rounds {
		res.attempted += rs.attempted
		res.failed += rs.failed
	}
	kept := calm(rounds)
	for _, rs := range kept {
		res.perRound["op_p50_ms"] = append(res.perRound["op_p50_ms"], median(rs.opMs))
		if rs.workWall > 0 {
			res.perRound["work_per_s"] = append(res.perRound["work_per_s"], rs.work/rs.workWall.Seconds())
		}
	}
	res.rounds += len(rounds)
	if d := len(rounds) - len(kept); d > 0 {
		res.info = append(res.info, fmt.Sprintf("%d of %d rounds set aside: the hypervisor took more than %.0f%% of their CPU time", d, len(rounds), 100*maxSteal))
	}
}

// measure runs the untraced pass of w: set-up (opt.setups times), then
// rounds for opt.seconds, reporting every end-to-end metric as the
// median over rounds.
func measure(w *workload, opt options) (*result, error) {
	res := &result{metrics: map[string]float64{}, perRound: map[string][]float64{}}
	e := &env{seed: opt.seed, nproc: runtime.GOMAXPROCS(0), toy: opt.toy}
	var r rig
	for i := 0; i < max(1, opt.setups); i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = w.build(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.perRound["setup_s"] = append(res.perRound["setup_s"], time.Since(t0).Seconds())
	}
	defer r.close()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rounds := runRounds(r, opt.seconds)
	runtime.ReadMemStats(&after)
	// Twice, so that what finalizers released in the first collection is
	// gone too.
	runtime.GC()
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	res.perRound["retained_heap_mb"] = []float64{float64(end.HeapAlloc) / (1 << 20)}

	summarise(rounds, res)
	ops := 0
	for _, rs := range rounds {
		ops += rs.ops
	}
	if ops > 0 {
		res.perRound["heap_kb_per_op"] = []float64{float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(ops)}
		res.perRound["allocs_per_op"] = []float64{float64(after.Mallocs-before.Mallocs) / float64(ops)}
	}
	for _, m := range endToEnd {
		res.metrics[m.name] = median(res.perRound[m.name])
	}
	if q, ok := r.(qualityRig); ok {
		q.quality(res.metrics)
	}
	return res, nil
}

// measureTraced produces the per-layer numbers of w: rounds on an
// untraced rig, the same rounds on a rig with the timing decorators
// installed (the difference is the tracing overhead), then the ladder
// of direct calls into each layer on the untraced rig's data. Spans are
// kept in memory and written to opt.outDir at the end.
func measureTraced(w *workload, opt options) (*result, error) {
	res := &result{metrics: map[string]float64{}, perRound: map[string][]float64{}}
	m := res.metrics
	nproc := runtime.GOMAXPROCS(0)

	// Both rigs are built before either is measured, so the untraced and
	// the traced rounds run against the same live heap (the collector
	// paces itself by it) and differ only by the decorators.
	plain, err := w.build(&env{seed: opt.seed, nproc: nproc, toy: opt.toy})
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer plain.close()
	tr := newTracer()
	traced, err := w.build(&env{seed: opt.seed, nproc: nproc, toy: opt.toy, tr: tr})
	if err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}
	defer traced.close()
	runtime.GC()

	plainRounds := runRounds(plain, opt.seconds/4)
	summarise(plainRounds, res)
	var fresh, warm []float64
	for _, rs := range plainRounds {
		fresh = append(fresh, rs.freshMs...)
		warm = append(warm, rs.warmMs...)
	}
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50", 50}, {"p90", 90}, {"p99", 99}} {
		m["client.alloc_fresh_"+q.name+"_ms"] = percentile(fresh, q.p)
		m["client.alloc_warm_"+q.name+"_ms"] = percentile(warm, q.p)
	}
	m["client.samples"] = float64(len(fresh) + len(warm))
	if c, ok := plain.(counterRig); ok {
		c.counters(m)
	}
	if q, ok := plain.(qualityRig); ok {
		q.quality(m)
	}

	// A rig that installed no decorator (the simulator workloads call one
	// function) has nothing to trace. For the others only the measured
	// rounds count towards the layer totals, not set-up and warm-up.
	if base := snapshotLayers(tr); tr.total() > 0 {
		tracedRes := &result{perRound: map[string][]float64{}}
		tracedRounds := runRounds(traced, opt.seconds/4)
		summarise(tracedRounds, tracedRes)
		res.attempted += tracedRes.attempted
		res.failed += tracedRes.failed
		vmin := 0.0
		for _, rs := range tracedRounds {
			vmin += rs.vsec / 60
		}
		layerMetrics(tr, base, vmin, m)
		if a, b := median(res.perRound["op_p50_ms"]), median(tracedRes.perRound["op_p50_ms"]); a > 0 {
			m["bench.trace_overhead_pct"] = 100 * (b - a) / a
		}
	}
	traced.close()

	if l, ok := plain.(ladderRig); ok {
		if err := l.ladder(m); err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", w.name, err)
		}
	}
	if opt.outDir != "" {
		path := filepath.Join(opt.outDir, "spans-"+w.name+".jsonl")
		if err := tr.writeSpans(path); err != nil {
			return nil, err
		}
		res.info = append(res.info, "spans written to "+path)
	}
	for _, spec := range perLayer {
		if _, ok := m[spec.name]; !ok {
			m[spec.name] = 0
		}
	}
	return res, nil
}

// layerFamilies are the span families the per-layer metrics read.
var layerFamilies = []string{
	"store.put", "store.get", "store.list", "store.generations",
	"nodestated", "livehostsd", "latencyd", "bandwidthd", "centralmon",
	"world.step", "world.probe",
}

func snapshotLayers(tr *tracer) map[string]layerAgg {
	out := make(map[string]layerAgg, len(layerFamilies))
	for _, f := range layerFamilies {
		out[f] = tr.layer(f)
	}
	return out
}

// layerMetrics turns the span totals gathered since base into the
// store, monitor and world rows. vmin is the virtual minutes the traced
// rounds advanced; the per-virtual-minute rows read 0 when time stood
// still.
func layerMetrics(tr *tracer, base map[string]layerAgg, vmin float64, m map[string]float64) {
	d := func(fam string) layerAgg {
		a, b := tr.layer(fam), base[fam]
		return layerAgg{count: a.count - b.count, busyNS: a.busyNS - b.busyNS, selfNS: a.selfNS - b.selfNS, bytes: a.bytes - b.bytes}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	put, get := d("store.put"), d("store.get")
	m["store.put.count"] = float64(put.count)
	m["store.put.busy_ms"] = ms(put.busyNS)
	m["store.put.bytes"] = float64(put.bytes)
	m["store.get.count"] = float64(get.count)
	m["store.get.busy_ms"] = ms(get.busyNS)
	m["store.list.count"] = float64(d("store.list").count)
	m["store.generations.busy_ms"] = ms(d("store.generations").busyNS)
	if vmin <= 0 {
		return
	}
	for fam, name := range map[string]string{
		"nodestated": "monitor.nodestated", "livehostsd": "monitor.livehostsd",
		"latencyd": "monitor.latencyd", "bandwidthd": "monitor.bandwidthd",
		"centralmon": "monitor.central", "world.step": "world.step",
		"world.probe": "world.probe",
	} {
		m[name+".busy_ms_per_vmin"] = ms(d(fam).selfNS) / vmin
	}
	m["monitor.probes_per_vmin"] = float64(d("world.probe").count) / vmin
	m["monitor.puts_per_vmin"] = float64(put.count) / vmin
}
