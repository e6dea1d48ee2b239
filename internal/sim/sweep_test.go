package sim

import (
	"reflect"
	"strings"
	"testing"
)

func sweepTestConfigs(jobs int) []ScenarioConfig {
	var cfgs []ScenarioConfig
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := ScenarioConfig{
			Seed:         seed,
			Nodes:        128,
			CoresPerNode: 8,
			Workload:     ScaledWorkload(jobs, 128, 0.65),
			Discipline:   EASY,
		}
		if seed%2 == 0 {
			// Mix policy and capacity runs so worker scratch is exercised
			// across both modes.
			cfg.Policy = &PolicyConfig{}
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// requireSameRun fails unless two results are identical up to wall time.
func requireSameRun(t *testing.T, tag string, i int, got, want *ScenarioResult) {
	t.Helper()
	g, w := *got, *want
	g.WallTime, w.WallTime = 0, 0
	gp, wp := g.Policy, w.Policy
	g.Policy, w.Policy = nil, nil
	gc, wc := g.Cohorts, w.Cohorts
	g.Cohorts, w.Cohorts = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: run %d diverged:\ngot  %+v\nwant %+v", tag, i, g, w)
	}
	if !reflect.DeepEqual(gc, wc) {
		t.Fatalf("%s: run %d cohort stats diverged:\ngot  %+v\nwant %+v", tag, i, gc, wc)
	}
	if (gp == nil) != (wp == nil) || (gp != nil && *gp != *wp) {
		t.Fatalf("%s: run %d policy stats diverged:\ngot  %+v\nwant %+v", tag, i, gp, wp)
	}
}

// TestSweepMatchesSequential pins RunMany's core contract: a one-worker
// sweep returns exactly what sequential RunScenario calls return, run
// for run.
func TestSweepMatchesSequential(t *testing.T) {
	cfgs := sweepTestConfigs(600)
	var want []*ScenarioResult
	for _, cfg := range cfgs {
		res, err := RunScenario(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	sw, err := RunMany(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Workers != 1 || len(sw.Results) != len(cfgs) {
		t.Fatalf("sweep shape: %d workers, %d results", sw.Workers, len(sw.Results))
	}
	for i := range cfgs {
		requireSameRun(t, "1-worker", i, sw.Results[i], want[i])
	}
}

// TestSweepDeterminismAcrossWorkers requires byte-stable output no
// matter how the runs were fanned out: workers 1, 4, and 8 must agree
// on every per-run result and on the aggregate digest.
func TestSweepDeterminismAcrossWorkers(t *testing.T) {
	cfgs := sweepTestConfigs(600)
	base, err := RunMany(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		sw, err := RunMany(cfgs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if sw.Digest != base.Digest {
			t.Fatalf("%d-worker digest %s != 1-worker %s", workers, sw.Digest, base.Digest)
		}
		for i := range cfgs {
			requireSameRun(t, "workers", i, sw.Results[i], base.Results[i])
		}
	}
}

// TestSweepPoolHygiene interleaves two different configs repeatedly on
// one worker — every run reuses the scratch the previous, *different*
// run left behind. Any state leaking through the pools (job freelist,
// popped buffer, policy scratch, alloc scratch) shows up as a digest
// change against the isolated runs.
func TestSweepPoolHygiene(t *testing.T) {
	a := ScenarioConfig{
		Seed: 3, Nodes: 64, CoresPerNode: 8,
		Workload:   ScaledWorkload(500, 64, 0.7),
		Discipline: EASY,
		Policy:     &PolicyConfig{Starts: 4},
	}
	b := ScenarioConfig{
		Seed: 8, Nodes: 128, CoresPerNode: 4,
		Workload:   ScaledWorkload(400, 128, 0.5),
		Discipline: FIFO,
	}
	isoA, err := RunScenario(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	isoB, err := RunScenario(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := RunMany([]ScenarioConfig{a, b, a, b, a}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfgIsA := range []bool{true, false, true, false, true} {
		want := isoA
		if !cfgIsA {
			want = isoB
		}
		requireSameRun(t, "interleaved", i, sw.Results[i], want)
	}
}

// TestSweepErrors covers the failure contract: empty sweeps refuse, and
// a bad config is reported by its index even when later runs finish
// first.
func TestSweepErrors(t *testing.T) {
	if _, err := RunMany(nil, 4); err == nil {
		t.Fatal("empty sweep accepted")
	}
	cfgs := sweepTestConfigs(200)
	cfgs[2].Nodes = -1
	_, err := RunMany(cfgs, 2)
	if err == nil {
		t.Fatal("bad config accepted")
	}
	if !strings.Contains(err.Error(), "run 2") {
		t.Fatalf("error does not name the failing run: %v", err)
	}
}

// TestSweepWorkerKeepsBatches runs a capacity and then a policy config
// on one runScratch, as a RunMany worker does: the first run makes the
// pipeline's batches and leaves them in the scratch, and the second
// refills those same arrays and makes none.
func TestSweepWorkerKeepsBatches(t *testing.T) {
	rs := &runScratch{}
	batches := func() (ptrs []any) {
		for i := range ringLen {
			a, r := rs.arrBufs[i], rs.recBufs[i]
			if cap(a) != batchLen || cap(r) != batchLen {
				t.Fatalf("batch %d: capacities %d and %d, want %d", i, cap(a), cap(r), batchLen)
			}
			ptrs = append(ptrs, &a[:1][0], &r[:1][0])
		}
		return ptrs
	}
	cfgs := sweepTestConfigs(600)
	if _, err := runScenario(cfgs[0], nil, rs); err != nil {
		t.Fatal(err)
	}
	first := batches()
	if _, err := runScenario(cfgs[1], nil, rs); err != nil {
		t.Fatal(err)
	}
	for i, p := range batches() {
		if p != first[i] {
			t.Fatalf("the second run replaced batch %d of %d", i/2, ringLen)
		}
	}
}
