package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"nlarm/internal/broker"
	"nlarm/internal/monitor"
	"nlarm/internal/store"
)

// TestWorkloadsToy runs every workload at toy size through the same
// measure path the driver uses: no output may fail its check and every
// end-to-end metric must be a positive number.
func TestWorkloadsToy(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(w, options{seed: defaultSeed, seconds: 0.05, setups: 1, toy: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("%d of %d outputs failed their checks", res.failed, res.attempted)
			}
			for _, m := range endToEnd {
				if v := res.metrics[m.name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", m.name, v)
				}
			}
		})
	}
}

// TestTracedToy runs the traced pass at toy size on one workload of
// each rig kind and checks that the layers the workload uses report,
// that the others read 0, and that the spans reach the output file.
func TestTracedToy(t *testing.T) {
	uses := map[string][]string{
		"paper60-live":    {"store.put.count", "monitor.nodestated.busy_ms_per_vmin", "world.step.busy_ms_per_vmin", "monitor.probes_per_vmin", "broker.wire.rtt_ms", "client.alloc_fresh_p50_ms"},
		"shard1024-churn": {"store.get.count", "metrics.snapshot.clone_ms", "alloc.model.update_ms", "alloc.alg12_ms", "broker.allocate.fresh_ms", "broker.batcher.burst256_us_per_req", "quality.decision_cost"},
		"sim-policy":      {"sim.events_per_s", "loadgen.gen_us_per_job", "sim.policy.model_builds", "alloc.constrained.us_per_call", "alloc.charge_ranks.us_per_call", "alloc.refresh_attrs.us_per_call", "quality.sim_mean_wait_s"},
		"paper60-minimd":  {"harness.scaling.cells_per_s", "quality.gain_vs_random_pct"},
	}
	unused := map[string][]string{
		"paper60-live":    {"sim.events_per_s", "alloc.constrained.us_per_call"},
		"shard1024-churn": {"monitor.nodestated.busy_ms_per_vmin", "sim.events_per_s"},
		"sim-policy":      {"store.put.count", "broker.wire.rtt_ms"},
		"paper60-minimd":  {"store.put.count", "sim.events_per_s"},
	}
	dir := t.TempDir()
	for name, want := range uses {
		t.Run(name, func(t *testing.T) {
			res, err := measureTraced(findWorkload(name), options{seed: heldOutSeed, seconds: 0.05, toy: true, outDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("%d of %d outputs failed their checks", res.failed, res.attempted)
			}
			for _, spec := range perLayer {
				if _, ok := res.metrics[spec.name]; !ok {
					t.Errorf("per-layer metric %s missing", spec.name)
				}
			}
			for _, k := range want {
				if res.metrics[k] == 0 {
					t.Errorf("%s = 0, but the workload uses that layer", k)
				}
			}
			for _, k := range unused[name] {
				if res.metrics[k] != 0 {
					t.Errorf("%s = %v, but the workload does not use that layer", k, res.metrics[k])
				}
			}
			if fi, err := os.Stat(dir + "/spans-" + name + ".jsonl"); err != nil || fi.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestSameSeedSameQuality pins the determinism the quality figures rest
// on: two runs from one seed agree exactly, a different seed does not.
func TestSameSeedSameQuality(t *testing.T) {
	for _, c := range []struct{ workload, metric string }{
		{"dense256-churn", "quality.decision_cost"},
		{"sim-capacity", "quality.sim_mean_wait_s"},
	} {
		run := func(seed uint64) float64 {
			res, err := measure(findWorkload(c.workload), options{seed: seed, seconds: 0.01, setups: 1, toy: true})
			if err != nil {
				t.Fatal(err)
			}
			return res.metrics[c.metric]
		}
		a, b, other := run(defaultSeed), run(defaultSeed), run(heldOutSeed)
		if a != b || a == 0 {
			t.Errorf("%s %s: %v then %v from one seed", c.workload, c.metric, a, b)
		}
		if a == other {
			t.Errorf("%s %s: seeds %d and %d gave the same %v", c.workload, c.metric, defaultSeed, heldOutSeed, a)
		}
	}
}

func TestMedianPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
	if lo, hi := minMax([]float64{3, -1, 8}); lo != -1 || hi != 8 {
		t.Errorf("minMax = %v, %v", lo, hi)
	}
}

// TestQuartileSpread checks against values computed with Python's
// statistics.quantiles(xs, n=4).
func TestQuartileSpread(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := quartileSpread(ten); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	five := []float64{10, 12, 11, 15, 13} // quartiles 10.5, 12, 14
	if got, want := quartileSpread(five), 3.5/12; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{4}); got != 0 {
		t.Errorf("spread of one sample = %v", got)
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(100, 110, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 100->110 = %v, want 0.1", got)
	}
	if got := worsening(100, 90, "higher"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("higher-is-better 100->90 = %v, want 0.1", got)
	}
	if got := worsening(100, 120, "higher"); got >= 0 {
		t.Errorf("an improvement reads as worsening %v", got)
	}
}

// TestCalm checks which rounds' timings count: all that lost at most
// maxSteal to the hypervisor, and never fewer than minRounds.
func TestCalm(t *testing.T) {
	mk := func(steals ...float64) []*roundStats {
		var out []*roundStats
		for _, s := range steals {
			out = append(out, &roundStats{steal: s})
		}
		return out
	}
	worst := func(rs []*roundStats) float64 {
		w := 0.0
		for _, r := range rs {
			w = math.Max(w, r.steal)
		}
		return w
	}
	for _, c := range []struct {
		name      string
		in        []*roundStats
		n         int
		maxStolen float64
	}{
		{"quiet host keeps all", mk(0, 0.01, 0, 0.02, 0), 5, 0.02},
		{"bursts are set aside", mk(0, 0.3, 0.01, 0.2, 0, 0.04), 4, 0.04},
		{"never fewer than minRounds", mk(0.3, 0.1, 0.2, 0.4), minRounds, 0.3},
		{"fewer rounds than minRounds", mk(0.5), 1, 0.5},
	} {
		got := calm(c.in)
		if len(got) != c.n || worst(got) != c.maxStolen {
			t.Errorf("%s: kept %d rounds, worst steal %v; want %d, %v", c.name, len(got), worst(got), c.n, c.maxStolen)
		}
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{100, 200}
	for _, c := range []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"sequential", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 150}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"sticking out", []interval{{50, 120}, {190, 300}}, 70},
		{"outside", []interval{{0, 50}, {250, 300}}, 100},
		{"covering", []interval{{0, 300}}, 0},
		{"unsorted", []interval{{150, 170}, {110, 120}}, 70},
	} {
		if got := selfTime(p, c.kids); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
	if got := selfTime(interval{5, 5}, []interval{{0, 10}}); got != 0 {
		t.Errorf("empty parent: %d", got)
	}
}

// TestTracerScopes checks parent links, request ids, per-family totals
// and that a scope's self time excludes what was recorded under it.
func TestTracerScopes(t *testing.T) {
	tr := newTracer()
	outer := tr.enter("nodestated/3", 0)
	time.Sleep(2 * time.Millisecond)
	t0 := time.Now()
	time.Sleep(2 * time.Millisecond)
	tr.record("store.put", 0, t0, 40)
	inner := tr.enter("client.allocate", 7)
	tr.record("store.get", 0, time.Now(), 10)
	inner.exit()
	outer.exit()
	tr.record("store.put", 0, time.Now(), 2) // no scope open

	byName := map[string][]span{}
	for _, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	o, in := byName["nodestated/3"][0], byName["client.allocate"][0]
	if o.Parent != 0 || in.Parent != o.ID || in.Req != 7 {
		t.Errorf("scope links: outer %+v inner %+v", o, in)
	}
	if got := byName["store.put"][0].Parent; got != o.ID {
		t.Errorf("first put's parent = %d, want %d", got, o.ID)
	}
	if got := byName["store.get"][0].Parent; got != in.ID {
		t.Errorf("get's parent = %d, want %d", got, in.ID)
	}
	if got := byName["store.put"][1].Parent; got != 0 {
		t.Errorf("put after every scope closed has parent %d", got)
	}
	put := tr.layer("store.put")
	if put.count != 2 || put.bytes != 42 {
		t.Errorf("store.put totals %+v, want 2 spans and 42 bytes", put)
	}
	nd := tr.layer("nodestated")
	if nd.count != 1 || nd.busyNS != o.End-o.Start {
		t.Errorf("nodestated totals %+v for span %+v", nd, o)
	}
	children := (byName["store.put"][0].End - byName["store.put"][0].Start) + (in.End - in.Start)
	if nd.selfNS != nd.busyNS-children || nd.selfNS < int64(time.Millisecond) {
		t.Errorf("nodestated self %d, busy %d, children %d", nd.selfNS, nd.busyNS, children)
	}
	if tr.cur.Load() != 0 {
		t.Errorf("current scope %d left open", tr.cur.Load())
	}
}

// TestTracedStoreAccounting checks the store decorator's counts and
// bytes, and that the broker still takes its delta-refresh path through
// it (it must keep looking like a generation source).
func TestTracedStoreAccounting(t *testing.T) {
	tr := newTracer()
	var st monitor.GenSource = tracedStore{store.Version(store.NewMem()), tr}
	for i := 0; i < 5; i++ {
		if err := st.Put("nodestate/1", []byte("12345678")); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := st.Get("nodestate/1"); err != nil || len(v) != 8 {
		t.Fatalf("get: %q, %v", v, err)
	}
	if _, err := st.Get("missing"); err == nil {
		t.Fatal("get of a missing key succeeded")
	}
	if _, err := st.List("nodestate/"); err != nil {
		t.Fatal(err)
	}
	if g := st.Generations("nodestate/"); len(g) != 1 {
		t.Fatalf("generations %v", g)
	}
	if st.Seq() != 5 {
		t.Errorf("seq %d, want 5", st.Seq())
	}
	for fam, want := range map[string]layerAgg{
		"store.put":         {count: 5, bytes: 40},
		"store.get":         {count: 2, bytes: 8},
		"store.list":        {count: 1},
		"store.generations": {count: 1},
	} {
		got := tr.layer(fam)
		if got.count != want.count || got.bytes != want.bytes || got.busyNS <= 0 {
			t.Errorf("%s: %+v, want count %d bytes %d", fam, got, want.count, want.bytes)
		}
	}
	var plain store.Store = st
	if _, ok := plain.(monitor.GenSource); !ok {
		t.Error("the decorated store no longer exposes generations")
	}
}

func TestCheckAlloc(t *testing.T) {
	live := map[int]bool{1: true, 2: true, 3: true}
	req := broker.Request{Procs: 4, PPN: 2}
	good := broker.Response{
		Recommendation: broker.RecommendAllocate,
		Nodes:          []int{1, 2}, Procs: map[int]int{1: 2, 2: 2}, Hostfile: []string{"a:2", "b:2"},
	}
	if err := checkAlloc(req, good, nil, live); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	mutate := func(f func(r *broker.Response)) broker.Response {
		r := good
		r.Nodes = append([]int(nil), good.Nodes...)
		r.Procs = map[int]int{1: 2, 2: 2}
		f(&r)
		return r
	}
	for name, bad := range map[string]broker.Response{
		"wait":           mutate(func(r *broker.Response) { r.Recommendation = broker.RecommendWait }),
		"duplicate node": mutate(func(r *broker.Response) { r.Nodes[1] = 1 }),
		"dead node":      mutate(func(r *broker.Response) { r.Nodes[1] = 9; r.Procs = map[int]int{1: 2, 9: 2} }),
		"wrong total":    mutate(func(r *broker.Response) { r.Procs[2] = 1 }),
		"over ppn":       mutate(func(r *broker.Response) { r.Procs[1], r.Procs[2] = 3, 1 }),
		"short hostfile": mutate(func(r *broker.Response) { r.Hostfile = r.Hostfile[:1] }),
		"extra procs":    mutate(func(r *broker.Response) { r.Procs[3] = 0 }),
	} {
		if err := checkAlloc(req, bad, nil, live); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := checkAlloc(req, good, os.ErrClosed, live); err == nil {
		t.Error("a failed request was accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in spec.go the
// same, and inside the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q differs from spec.go or its why is over 200 characters", i, w.Name)
		}
	}
	compare := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, m := range got {
			name(m.Name)
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s metric %d: %+v, spec.go has %+v", kind, i, m, w)
			}
			switch {
			case bounded != (m.Bound != nil):
				t.Errorf("%s metric %s: has a bound: %v", kind, m.Name, m.Bound != nil)
			case bounded && (*m.Bound != w.bound || w.bound > 0.25 || w.bound <= 0):
				t.Errorf("%s metric %s: bound %v, spec.go has %v", kind, m.Name, *m.Bound, w.bound)
			}
		}
	}
	compare("end-to-end", doc.EndToEnd, endToEnd, true)
	compare("per-layer", doc.PerLayer, perLayer, false)
	if doc.EndToEnd[0].Name != "setup_s" || doc.EndToEnd[0].Unit != "s" || doc.EndToEnd[0].Better != "lower" {
		t.Error("the first end-to-end metric must be setup_s in s, lower is better")
	}
}
