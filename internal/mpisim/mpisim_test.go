package mpisim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// flatEnv is a constant-condition environment for exact math assertions.
type flatEnv struct {
	cores   int
	freq    float64
	bgLoad  float64
	bwBps   float64
	latency time.Duration
}

func (e flatEnv) NodeCores(int) int                         { return e.cores }
func (e flatEnv) NodeFreqGHz(int) float64                   { return e.freq }
func (e flatEnv) NodeBackgroundLoad(int, int) float64       { return e.bgLoad }
func (e flatEnv) AvailBandwidthBps(u, v int, _ int) float64 { return e.bwBps }
func (e flatEnv) Latency(u, v int) time.Duration            { return e.latency }

func idleEnv() flatEnv {
	return flatEnv{cores: 12, freq: 4.6, bgLoad: 0, bwBps: 100e6, latency: 100 * time.Microsecond}
}

func TestDims3D(t *testing.T) {
	cases := map[int][3]int{
		1:  {1, 1, 1},
		8:  {2, 2, 2},
		16: {4, 2, 2},
		32: {4, 4, 2},
		64: {4, 4, 4},
		48: {4, 4, 3},
		7:  {7, 1, 1},
	}
	for p, want := range cases {
		if got := Dims3D(p); got != want {
			t.Errorf("Dims3D(%d) = %v, want %v", p, got, want)
		}
	}
}

func TestDims3DProductProperty(t *testing.T) {
	f := func(n uint8) bool {
		p := int(n%64) + 1
		d := Dims3D(p)
		return d[0]*d[1]*d[2] == p && d[0] >= d[1] && d[1] >= d[2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6}
	for n, want := range cases {
		if got := log2Ceil(n); got != want {
			t.Errorf("log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPairOf(t *testing.T) {
	if PairOf(5, 2) != (RankPair{Lo: 2, Hi: 5}) {
		t.Fatal("PairOf not canonical")
	}
}

func TestHalo3DNeighborCount(t *testing.T) {
	s := &Shape{Name: "halo", Ranks: 8, Iterations: 1, RefFreqGHz: 1}
	Halo3D(s, 1000, 2)
	// 2x2x2 grid: 12 unique face-adjacent pairs.
	if len(s.P2P) != 12 {
		t.Fatalf("2x2x2 halo has %d pairs, want 12", len(s.P2P))
	}
	for p, tr := range s.P2P {
		if tr.Bytes != 1000 || tr.Msgs != 2 {
			t.Fatalf("pair %v traffic %+v", p, tr)
		}
	}
}

func TestHalo3DLinearChain(t *testing.T) {
	s := &Shape{Name: "chain", Ranks: 3, Iterations: 1, RefFreqGHz: 1}
	Halo3D(s, 10, 1)
	// 3 is prime: Dims3D gives a 3x1x1 chain with 2 adjacent pairs.
	if len(s.P2P) != 2 {
		t.Fatalf("chain halo pairs = %d, want 2", len(s.P2P))
	}
}

func TestRing(t *testing.T) {
	r := &Shape{Name: "ring", Ranks: 5, Iterations: 1, RefFreqGHz: 1}
	Ring(r, 10, 1)
	if len(r.P2P) != 5 {
		t.Fatalf("ring pairs = %d", len(r.P2P))
	}
}

func TestShapeValidate(t *testing.T) {
	good := &Shape{Name: "ok", Ranks: 4, Iterations: 10, ComputeSecPerIter: 1, RefFreqGHz: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Shape{
		{Name: "ranks", Ranks: 0, Iterations: 1},
		{Name: "iters", Ranks: 1, Iterations: 0},
		{Name: "negcomp", Ranks: 1, Iterations: 1, ComputeSecPerIter: -1},
		{Name: "pair", Ranks: 2, Iterations: 1, P2P: map[RankPair]Traffic{{Lo: 0, Hi: 5}: {}}},
		{Name: "negbytes", Ranks: 2, Iterations: 1, P2P: map[RankPair]Traffic{{Lo: 0, Hi: 1}: {Bytes: -1}}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", s.Name)
		}
	}
}

func TestAddP2PAccumulates(t *testing.T) {
	s := &Shape{Ranks: 4}
	s.AddP2P(0, 1, 100, 1)
	s.AddP2P(1, 0, 50, 2)
	s.AddP2P(2, 2, 999, 9) // self: ignored
	tr := s.P2P[PairOf(0, 1)]
	if tr.Bytes != 150 || tr.Msgs != 3 {
		t.Fatalf("accumulated traffic %+v", tr)
	}
	if len(s.P2P) != 1 {
		t.Fatalf("self-pair added: %d pairs", len(s.P2P))
	}
}

func TestNewPlacement(t *testing.T) {
	p, err := NewPlacement(8, []int{3, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if p.NodeOf[r] != 3 {
			t.Fatalf("rank %d on node %d", r, p.NodeOf[r])
		}
	}
	for r := 4; r < 8; r++ {
		if p.NodeOf[r] != 7 {
			t.Fatalf("rank %d on node %d", r, p.NodeOf[r])
		}
	}
	nodes := p.Nodes()
	if len(nodes) != 2 || nodes[0] != 3 || nodes[1] != 7 {
		t.Fatalf("Nodes() = %v", nodes)
	}
	ro := p.RanksOn()
	if ro[3] != 4 || ro[7] != 4 {
		t.Fatalf("RanksOn = %v", ro)
	}
}

func TestNewPlacementErrors(t *testing.T) {
	if _, err := NewPlacement(8, []int{1}, 4); err == nil {
		t.Fatal("overcommitted placement accepted")
	}
	if _, err := NewPlacement(8, []int{1, 2}, 0); err == nil {
		t.Fatal("zero ppn accepted")
	}
}

func makeJob(t *testing.T, shape *Shape, nodes []int, ppn int) *Job {
	t.Helper()
	place, err := NewPlacement(shape.Ranks, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJob(1, shape, place, t0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestJobComputeOnly(t *testing.T) {
	shape := &Shape{
		Name: "compute", Ranks: 4, Iterations: 10,
		ComputeSecPerIter: 0.1, RefFreqGHz: 4.6,
	}
	j := makeJob(t, shape, []int{0}, 4)
	used, done := j.Advance(idleEnv(), 2*time.Second)
	if !done {
		t.Fatalf("job not done after 2s (needs 1s)")
	}
	// 10 iterations x 0.1s at full speed = 1s.
	if math.Abs(used.Seconds()-1.0) > 1e-6 {
		t.Fatalf("used %v, want 1s", used)
	}
	if math.Abs(j.elapsed.Seconds()-1.0) > 1e-6 {
		t.Fatalf("elapsed %v", j.elapsed)
	}
}

func TestJobSlowClockScalesCompute(t *testing.T) {
	shape := &Shape{Name: "slow", Ranks: 4, Iterations: 10, ComputeSecPerIter: 0.1, RefFreqGHz: 4.6}
	env := idleEnv()
	env.freq = 2.3 // half the reference clock
	j := makeJob(t, shape, []int{0}, 4)
	used, done := j.Advance(env, 10*time.Second)
	if !done || math.Abs(used.Seconds()-2.0) > 1e-6 {
		t.Fatalf("half-clock job used %v, want 2s", used)
	}
}

func TestJobContentionSlowsCompute(t *testing.T) {
	shape := &Shape{Name: "cont", Ranks: 4, Iterations: 10, ComputeSecPerIter: 0.1, RefFreqGHz: 4.6}
	env := idleEnv()
	env.bgLoad = 8 // 8 background + 4 ranks = 12 runnable on 6 physical cores
	j := makeJob(t, shape, []int{0}, 4)
	used, done := j.Advance(env, 10*time.Second)
	if !done {
		t.Fatal("not done")
	}
	// share = 6/12 = 0.5 -> 2s instead of 1s.
	if math.Abs(used.Seconds()-2.0) > 1e-6 {
		t.Fatalf("contended job used %v, want 2s", used)
	}
}

func TestJobCommTime(t *testing.T) {
	shape := &Shape{Name: "comm", Ranks: 2, Iterations: 10, RefFreqGHz: 4.6}
	shape.AddP2P(0, 1, 1e6, 1) // 1MB per iteration, 1 message
	j := makeJob(t, shape, []int{0, 1}, 1)
	env := idleEnv() // 100MB/s, 100µs
	used, done := j.Advance(env, 10*time.Second)
	if !done {
		t.Fatal("not done")
	}
	// Per iter: 1 msg * 100µs + 1e6/100e6 = 0.0001 + 0.01 = 0.0101s. x10.
	want := 10 * (0.0001 + 0.01)
	if math.Abs(used.Seconds()-want) > 1e-4 {
		t.Fatalf("comm job used %v, want %g", used, want)
	}
	res := j.Result()
	if res.CommTime == 0 || res.ComputeTime != 0 {
		t.Fatalf("breakdown: comp=%v comm=%v", res.ComputeTime, res.CommTime)
	}
	if f := res.CommFraction(); math.Abs(f-1) > 1e-9 {
		t.Fatalf("comm fraction %g, want 1", f)
	}
}

func TestJobBandwidthSensitivity(t *testing.T) {
	mk := func(bw float64) time.Duration {
		shape := &Shape{Name: "bw", Ranks: 2, Iterations: 100, RefFreqGHz: 4.6}
		shape.AddP2P(0, 1, 1e6, 1)
		j := makeJob(t, shape, []int{0, 1}, 1)
		env := idleEnv()
		env.bwBps = bw
		used, done := j.Advance(env, time.Hour)
		if !done {
			t.Fatal("not done")
		}
		return used
	}
	fast := mk(100e6)
	slow := mk(10e6)
	if ratio := slow.Seconds() / fast.Seconds(); ratio < 5 || ratio > 11 {
		t.Fatalf("10x bandwidth drop changed time by %gx", ratio)
	}
}

func TestJobSameNodeRanksUseLocalTransfer(t *testing.T) {
	shape := &Shape{Name: "local", Ranks: 2, Iterations: 10, RefFreqGHz: 4.6}
	shape.AddP2P(0, 1, 1e6, 1)
	// Both ranks on one node: traffic goes through shared memory.
	j := makeJob(t, shape, []int{5}, 2)
	env := idleEnv()
	env.bwBps = 1 // network unusable — must not matter
	used, done := j.Advance(env, time.Second)
	if !done {
		t.Fatalf("co-located job stuck: used %v", used)
	}
	if len(j.Flows()) != 0 {
		t.Fatal("co-located job reported network flows")
	}
}

func TestJobSetupConsumesTime(t *testing.T) {
	shape := &Shape{Name: "setup", Ranks: 1, Iterations: 1, ComputeSecPerIter: 0.1, RefFreqGHz: 4.6, SetupSeconds: 0.5}
	j := makeJob(t, shape, []int{0}, 1)
	used, done := j.Advance(idleEnv(), time.Second)
	if !done || math.Abs(used.Seconds()-0.6) > 1e-9 {
		t.Fatalf("setup+compute used %v, want 0.6s", used)
	}
}

func TestJobPartialAdvance(t *testing.T) {
	shape := &Shape{Name: "partial", Ranks: 1, Iterations: 100, ComputeSecPerIter: 0.1, RefFreqGHz: 4.6}
	j := makeJob(t, shape, []int{0}, 1)
	used, done := j.Advance(idleEnv(), 2*time.Second)
	if done {
		t.Fatal("done too early")
	}
	if used != 2*time.Second {
		t.Fatalf("partial advance used %v", used)
	}
	if math.Abs(j.remIters-80) > 1e-7 {
		t.Fatalf("%g of 100 iterations remain, want 80", j.remIters)
	}
	// Finish.
	total := 2 * time.Second
	for !done {
		var u time.Duration
		u, done = j.Advance(idleEnv(), 2*time.Second)
		total += u
	}
	if math.Abs(total.Seconds()-10) > 1e-6 {
		t.Fatalf("total time %v, want 10s", total)
	}
}

func TestJobCollectives(t *testing.T) {
	shape := &Shape{
		Name: "coll", Ranks: 8, Iterations: 10, RefFreqGHz: 4.6,
		CollectivesPerIter: 2, CollectiveBytes: 8,
	}
	j := makeJob(t, shape, []int{0, 1, 2, 3}, 2)
	env := idleEnv()
	used, done := j.Advance(env, time.Minute)
	if !done {
		t.Fatal("not done")
	}
	// log2(4 nodes) = 2 stages x (100µs + tiny) x 2 colls x 10 iters ≈ 4ms.
	want := 10.0 * 2 * 2 * (100e-6 + 8/100e6)
	if math.Abs(used.Seconds()-want) > want*0.05 {
		t.Fatalf("collective time %v, want ~%gs", used, want)
	}
}

func TestJobFlowsReflectTraffic(t *testing.T) {
	shape := &Shape{Name: "flows", Ranks: 2, Iterations: 1000, RefFreqGHz: 4.6}
	shape.AddP2P(0, 1, 1e6, 1)
	j := makeJob(t, shape, []int{0, 1}, 1)
	j.Advance(idleEnv(), time.Second) // partial
	flows := j.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %v", flows)
	}
	f := flows[0]
	// Rate = bytes per iter / iter time ≈ 1e6 / 0.0101 ≈ 99 MB/s.
	if f.RateBps < 50e6 || f.RateBps > 120e6 {
		t.Fatalf("flow rate %g", f.RateBps)
	}
	// Finish: flows disappear.
	for done := false; !done; _, done = j.Advance(idleEnv(), time.Minute) {
	}
	if len(j.Flows()) != 0 {
		t.Fatal("finished job still reports flows")
	}
}

func TestJobResultPanicsWhenRunning(t *testing.T) {
	shape := &Shape{Name: "run", Ranks: 1, Iterations: 100, ComputeSecPerIter: 1, RefFreqGHz: 4.6}
	j := makeJob(t, shape, []int{0}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Result on running job did not panic")
		}
	}()
	j.Result()
}

func TestNewJobValidates(t *testing.T) {
	shape := &Shape{Name: "bad", Ranks: 4, Iterations: 1, RefFreqGHz: 1}
	if _, err := NewJob(1, shape, Placement{NodeOf: []int{0}}, t0); err == nil {
		t.Fatal("short placement accepted")
	}
	if _, err := NewJob(1, shape, Placement{NodeOf: []int{0, 1, 2, -1}}, t0); err == nil {
		t.Fatal("negative node accepted")
	}
}

func TestResultFields(t *testing.T) {
	shape := &Shape{Name: "res", Ranks: 2, Iterations: 5, ComputeSecPerIter: 0.1, RefFreqGHz: 4.6}
	j := makeJob(t, shape, []int{3, 9}, 1)
	j.Advance(idleEnv(), time.Minute)
	res := j.Result()
	if res.JobID != 1 || res.Name != "res" || res.Ranks != 2 {
		t.Fatalf("result header %+v", res)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("result nodes %v", res.Nodes)
	}
	if !res.Start.Equal(t0) || !res.End.Equal(t0.Add(res.Elapsed)) {
		t.Fatalf("result times %v %v %v", res.Start, res.End, res.Elapsed)
	}
}

func TestDims2D(t *testing.T) {
	cases := map[int][2]int{
		1:  {1, 1},
		4:  {2, 2},
		8:  {4, 2},
		12: {4, 3},
		16: {4, 4},
		7:  {7, 1},
	}
	for p, want := range cases {
		if got := Dims2D(p); got != want {
			t.Errorf("Dims2D(%d) = %v, want %v", p, got, want)
		}
	}
}

func TestDims2DProductProperty(t *testing.T) {
	f := func(n uint8) bool {
		p := int(n%100) + 1
		d := Dims2D(p)
		return d[0]*d[1] == p && d[0] >= d[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHalo2DPairCount(t *testing.T) {
	s := &Shape{Name: "h2", Ranks: 9, Iterations: 1, RefFreqGHz: 1}
	Halo2D(s, 100, 1)
	// 3x3 grid: 12 edge-adjacent pairs.
	if len(s.P2P) != 12 {
		t.Fatalf("3x3 halo2d pairs = %d, want 12", len(s.P2P))
	}
}

func TestAbort(t *testing.T) {
	shape := &Shape{Name: "ab", Ranks: 1, Iterations: 1000, ComputeSecPerIter: 1, RefFreqGHz: 4.6}
	j := makeJob(t, shape, []int{0}, 1)
	j.Advance(idleEnv(), time.Second)
	j.Abort("node 0 went down")
	if !j.done {
		t.Fatal("aborted job not done")
	}
	res := j.Result()
	if !res.Failed || res.FailureReason != "node 0 went down" {
		t.Fatalf("abort result %+v", res)
	}
	// Advancing an aborted job is a no-op.
	used, done := j.Advance(idleEnv(), time.Second)
	if used != 0 || !done {
		t.Fatal("aborted job advanced")
	}
	// Aborting a finished job is a no-op.
	shape2 := &Shape{Name: "ok", Ranks: 1, Iterations: 1, ComputeSecPerIter: 0.01, RefFreqGHz: 4.6}
	j2 := makeJob(t, shape2, []int{0}, 1)
	j2.Advance(idleEnv(), time.Second)
	j2.Abort("late")
	if j2.Result().Failed {
		t.Fatal("finished job marked failed by late abort")
	}
}

// Property: for arbitrary zero-setup shapes under constant conditions,
// the accumulated compute+comm breakdown equals the elapsed time, the job
// always terminates, and elapsed equals Iterations x per-iteration cost.
func TestJobTimeAccountingProperty(t *testing.T) {
	f := func(iters, ranks, compMillis, kb uint8) bool {
		shape := &Shape{
			Name:              "prop",
			Ranks:             int(ranks%8) + 1,
			Iterations:        int(iters%50) + 1,
			ComputeSecPerIter: float64(compMillis%20) / 1000,
			RefFreqGHz:        4.6,
		}
		Ring(shape, float64(kb)*1024, 1)
		nodes := []int{0, 1}
		ppn := (shape.Ranks + 1) / 2
		place, err := NewPlacement(shape.Ranks, nodes, ppn)
		if err != nil {
			return false
		}
		j, err := NewJob(1, shape, place, t0)
		if err != nil {
			return false
		}
		env := idleEnv()
		for done := false; !done; {
			var used time.Duration
			used, done = j.Advance(env, time.Minute)
			if !done && used == 0 {
				return false // no progress
			}
		}
		res := j.Result()
		sum := res.ComputeTime + res.CommTime
		diff := res.Elapsed - sum
		if diff < 0 {
			diff = -diff
		}
		return diff < time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNewJobTrafficOrderDeterminism builds one multi-node job many times:
// its node-pair flows must come out in the same order and its comm phase
// with the same bits every time, or same-seed worlds diverge.
func TestNewJobTrafficOrderDeterminism(t *testing.T) {
	shape := &Shape{Name: "halo", Ranks: 64, Iterations: 10, RefFreqGHz: 4.6}
	Halo3D(shape, 1e5/3, 2)
	Ring(shape, 1e4/7, 1)
	nodes := make([]int, 22)
	for i := range nodes {
		nodes[i] = i
	}
	build := func() ([]NodeFlow, uint64) {
		j := makeJob(t, shape, nodes, 3)
		j.Advance(idleEnv(), time.Millisecond)
		return slices.Clone(j.Flows()), math.Float64bits(j.commSecPerIter(idleEnv()))
	}
	wantFlows, wantComm := build()
	for rep := 1; rep < 100; rep++ {
		flows, comm := build()
		if !slices.Equal(flows, wantFlows) {
			t.Fatalf("build %d: flows %v, first build had %v", rep, flows, wantFlows)
		}
		if comm != wantComm {
			t.Fatalf("build %d: comm phase %v, first build had %v",
				rep, math.Float64frombits(comm), math.Float64frombits(wantComm))
		}
	}
}
