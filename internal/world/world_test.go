package world

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"nlarm/internal/cluster"
	"nlarm/internal/loadgen"
	"nlarm/internal/mpisim"
	"nlarm/internal/netmodel"
	"nlarm/internal/simtime"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// running reports whether job id is still executing in w.
func running(w *World, id int) bool {
	for _, j := range w.jobs {
		if j.ID == id {
			return true
		}
	}
	return false
}

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.BuildIITK()
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func testWorld(t *testing.T, seed uint64) *World {
	t.Helper()
	return New(testCluster(t), Config{Seed: seed, StepSize: 100 * time.Millisecond}, t0)
}

func advance(w *World, from time.Time, dur, step time.Duration) time.Time {
	now := from
	end := from.Add(dur)
	for tm := from.Add(step); !tm.After(end); tm = tm.Add(step) {
		w.StepTo(tm)
		now = tm
	}
	return now
}

func TestStepToMonotonic(t *testing.T) {
	w := testWorld(t, 1)
	w.StepTo(t0.Add(time.Second))
	if !w.now.Equal(t0.Add(time.Second)) {
		t.Fatalf("now = %v", w.now)
	}
	// Going backwards is a no-op.
	w.StepTo(t0)
	if !w.now.Equal(t0.Add(time.Second)) {
		t.Fatal("StepTo moved time backwards")
	}
}

func TestSampleNode(t *testing.T) {
	w := testWorld(t, 2)
	advance(w, t0, time.Minute, time.Second)
	s, err := w.SampleNode(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.CPULoad < 0 || s.CPUUtilPct < 0 || s.CPUUtilPct > 100 {
		t.Fatalf("sample out of range: %+v", s)
	}
	if _, err := w.SampleNode(-1); err == nil {
		t.Fatal("negative node sampled")
	}
	if _, err := w.SampleNode(999); err == nil {
		t.Fatal("out-of-range node sampled")
	}
}

func TestNodeDownBehaviour(t *testing.T) {
	w := testWorld(t, 3)
	w.SetNodeDown(5, true)
	if w.Ping(5) {
		t.Fatal("down node pings")
	}
	if _, err := w.SampleNode(5); err == nil {
		t.Fatal("down node sampled")
	}
	if _, err := w.MeasureLatency(5, 6); err == nil {
		t.Fatal("latency to down node measured")
	}
	if _, _, err := w.MeasureBandwidth(4, 5); err == nil {
		t.Fatal("bandwidth to down node measured")
	}
	w.SetNodeDown(5, false)
	if !w.Ping(5) {
		t.Fatal("revived node does not ping")
	}
}

func TestMeasurements(t *testing.T) {
	w := testWorld(t, 4)
	lat, err := w.MeasureLatency(0, 59)
	if err != nil || lat <= 0 {
		t.Fatalf("latency %v %v", lat, err)
	}
	avail, peak, err := w.MeasureBandwidth(0, 1)
	if err != nil || avail <= 0 || peak <= 0 {
		t.Fatalf("bandwidth %g %g %v", avail, peak, err)
	}
	if avail > peak*1.2 {
		t.Fatalf("available %g far exceeds peak %g", avail, peak)
	}
}

func simpleShape(ranks, iters int) *mpisim.Shape {
	s := &mpisim.Shape{
		Name: "test-job", Ranks: ranks, Iterations: iters,
		ComputeSecPerIter: 0.01, RefFreqGHz: 4.6,
	}
	mpisim.Halo3D(s, 100e3, 2)
	return s
}

func TestJobLifecycle(t *testing.T) {
	w := testWorld(t, 5)
	place, err := mpisim.NewPlacement(8, []int{0, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var results []mpisim.Result
	id, err := w.LaunchJob(simpleShape(8, 50), place, func(r mpisim.Result) {
		results = append(results, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !running(w, id) {
		t.Fatal("job not running after launch")
	}
	if len(w.jobs) != 1 {
		t.Fatalf("%d running jobs, want 1", len(w.jobs))
	}
	now := t0
	for i := 0; i < 10000 && running(w, id); i++ {
		now = now.Add(100 * time.Millisecond)
		w.StepTo(now)
	}
	if running(w, id) {
		t.Fatal("job never finished")
	}
	if len(results) != 1 || results[0].JobID != id {
		t.Fatalf("completion callback fired with %v", results)
	}
	if r := results[0]; r.Elapsed <= 0 || r.Ranks != 8 {
		t.Fatalf("result %+v", r)
	}
}

func TestJobRaisesNodeLoad(t *testing.T) {
	w := testWorld(t, 6)
	before, _ := w.SampleNode(0)
	place, _ := mpisim.NewPlacement(4, []int{0}, 4)
	_, err := w.LaunchJob(simpleShape(4, 100000), place, nil)
	if err != nil {
		t.Fatal(err)
	}
	during, _ := w.SampleNode(0)
	if during.CPULoad < before.CPULoad+3.9 {
		t.Fatalf("job ranks not visible in load: %g -> %g", before.CPULoad, during.CPULoad)
	}
	if during.CPUUtilPct <= before.CPUUtilPct {
		t.Fatal("job not visible in utilization")
	}
	if during.UsedMemMB <= before.UsedMemMB {
		t.Fatal("job not visible in memory")
	}
}

func TestJobTrafficVisibleOnNetwork(t *testing.T) {
	w := testWorld(t, 7)
	// Heavy communication job across a trunk.
	s := &mpisim.Shape{Name: "net-heavy", Ranks: 2, Iterations: 1000000, RefFreqGHz: 4.6}
	s.AddP2P(0, 1, 5e6, 1)
	place, _ := mpisim.NewPlacement(2, []int{0, 16}, 1)
	before, _, _ := w.MeasureBandwidth(1, 17) // same trunk, different nodes
	if _, err := w.LaunchJob(s, place, nil); err != nil {
		t.Fatal(err)
	}
	// One step so flows are charged.
	w.StepTo(t0.Add(200 * time.Millisecond))
	after, _, _ := w.MeasureBandwidth(1, 17)
	if after >= before {
		t.Fatalf("job traffic invisible to bystanders: %g -> %g", before, after)
	}
}

func TestLaunchJobValidation(t *testing.T) {
	w := testWorld(t, 8)
	place, _ := mpisim.NewPlacement(4, []int{0}, 4)
	w.SetNodeDown(0, true)
	if _, err := w.LaunchJob(simpleShape(4, 10), place, nil); err == nil {
		t.Fatal("launch on down node accepted")
	}
	w.SetNodeDown(0, false)
	bad := mpisim.Placement{NodeOf: []int{0, 1, 2, 999}}
	if _, err := w.LaunchJob(simpleShape(4, 10), bad, nil); err == nil {
		t.Fatal("out-of-range placement accepted")
	}
}

func TestInjectProbeExpires(t *testing.T) {
	w := testWorld(t, 9)
	before, _, _ := w.MeasureBandwidth(0, 1)
	w.InjectProbe(0, 1, 100e6, 500*time.Millisecond)
	w.StepTo(t0.Add(100 * time.Millisecond))
	during, _, _ := w.MeasureBandwidth(0, 1)
	if during >= before {
		t.Fatalf("probe traffic invisible: %g -> %g", before, during)
	}
	w.StepTo(t0.Add(2 * time.Second))
	after, _, _ := w.MeasureBandwidth(0, 1)
	if after <= during {
		t.Fatal("probe traffic never expired")
	}
}

func TestAttachDrivesWorld(t *testing.T) {
	w := testWorld(t, 10)
	sched := simtime.NewScheduler(t0)
	cancel := w.Attach(sched)
	defer cancel()
	sched.RunFor(time.Second)
	if !w.now.Equal(t0.Add(time.Second)) {
		t.Fatalf("attached world at %v", w.now)
	}
}

func TestDeterministicWorlds(t *testing.T) {
	w1 := testWorld(t, 77)
	w2 := testWorld(t, 77)
	advance(w1, t0, 2*time.Minute, time.Second)
	advance(w2, t0, 2*time.Minute, time.Second)
	for id := 0; id < 60; id += 7 {
		s1, _ := w1.SampleNode(id)
		s2, _ := w2.SampleNode(id)
		if s1 != s2 {
			t.Fatalf("worlds diverged at node %d: %+v vs %+v", id, s1, s2)
		}
	}
	b1, _, _ := w1.MeasureBandwidth(3, 33)
	b2, _, _ := w2.MeasureBandwidth(3, 33)
	if b1 != b2 {
		t.Fatalf("bandwidth diverged: %g vs %g", b1, b2)
	}
}

func TestTwoJobsInterfere(t *testing.T) {
	w := testWorld(t, 11)
	// Job A alone on nodes 0,1.
	shape := func() *mpisim.Shape {
		s := &mpisim.Shape{Name: "j", Ranks: 8, Iterations: 2000, ComputeSecPerIter: 0.002, RefFreqGHz: 4.6}
		mpisim.Halo3D(s, 500e3, 2)
		return s
	}
	placeA, _ := mpisim.NewPlacement(8, []int{0, 1}, 4)
	var aloneTime time.Duration
	idA, _ := w.LaunchJob(shape(), placeA, func(r mpisim.Result) { aloneTime = r.Elapsed })
	now := t0
	for running(w, idA) {
		now = now.Add(100 * time.Millisecond)
		w.StepTo(now)
	}
	// Same job again, but now with a competitor on the same nodes.
	placeB, _ := mpisim.NewPlacement(8, []int{0, 1}, 4)
	var contendedTime time.Duration
	idB, _ := w.LaunchJob(shape(), placeA, func(r mpisim.Result) { contendedTime = r.Elapsed })
	idC, _ := w.LaunchJob(shape(), placeB, nil)
	for running(w, idB) {
		now = now.Add(100 * time.Millisecond)
		w.StepTo(now)
	}
	_ = idC
	if contendedTime <= aloneTime {
		t.Fatalf("co-located jobs did not interfere: alone %v, contended %v", aloneTime, contendedTime)
	}
}

func TestNodeDownAbortsRunningJobs(t *testing.T) {
	w := testWorld(t, 12)
	place, _ := mpisim.NewPlacement(8, []int{0, 1}, 4)
	var result mpisim.Result
	fired := false
	id, err := w.LaunchJob(simpleShape(8, 1000000), place, func(r mpisim.Result) {
		result = r
		fired = true
	})
	if err != nil {
		t.Fatal(err)
	}
	w.StepTo(t0.Add(time.Second))
	// Kill one of the job's nodes.
	w.SetNodeDown(1, true)
	if running(w, id) {
		t.Fatal("job survived its node dying")
	}
	if !fired {
		t.Fatal("completion callback never fired for aborted job")
	}
	if !result.Failed || result.FailureReason == "" {
		t.Fatalf("aborted job result %+v", result)
	}
	// Bystander jobs on other nodes are untouched.
	place2, _ := mpisim.NewPlacement(4, []int{5}, 4)
	id2, err := w.LaunchJob(simpleShape(4, 1000000), place2, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.SetNodeDown(8, true)
	if !running(w, id2) {
		t.Fatal("bystander job aborted by unrelated node failure")
	}
}

// TestWorldSameSeedSameCompletions oversubscribes a few nodes with
// concurrent jobs whose finish times interleave: every job's rate depends
// on which others are still running, so any dependence on the order jobs
// are visited in shows up as a different completion order or end time.
// The six-node jobs span many node pairs, so they also catch a job's own
// traffic being visited in map order.
func TestWorldSameSeedSameCompletions(t *testing.T) {
	cases := []struct {
		name             string
		jobs, ranks, ppn int
		nodes            func(i int) []int
	}{
		{"two-node", 60, 4, 2, func(i int) []int { return []int{i % 4, (i + 1) % 4} }},
		{"six-node", 12, 36, 6, func(i int) []int {
			nodes := make([]int, 6)
			for k := range nodes {
				nodes[k] = (i + 2*k) % 9
			}
			return nodes
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func() []mpisim.Result {
				w := testWorld(t, 21)
				var res []mpisim.Result
				done := func(r mpisim.Result) { res = append(res, r) }
				for i := 0; i < c.jobs; i++ {
					place, err := mpisim.NewPlacement(c.ranks, c.nodes(i), c.ppn)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := w.LaunchJob(simpleShape(c.ranks, 200+10*(i%7)), place, done); err != nil {
						t.Fatal(err)
					}
				}
				now := t0
				for i := 0; i < 100000 && len(w.jobs) > 0; i++ {
					now = now.Add(250 * time.Millisecond)
					w.StepTo(now)
				}
				if len(res) != c.jobs {
					t.Fatalf("%d of %d jobs finished", len(res), c.jobs)
				}
				return res
			}
			want := run()
			for rep := 1; rep < 20; rep++ {
				got := run()
				for i := range want {
					if got[i].JobID != want[i].JobID || !got[i].End.Equal(want[i].End) {
						t.Fatalf("repeat %d, completion %d: job %d at %v, first run had job %d at %v",
							rep, i, got[i].JobID, got[i].End, want[i].JobID, want[i].End)
					}
				}
			}
		})
	}
}

// TestCollectFlowsAllocs pins collecting a step's flows (background
// sessions, a job's traffic and a probe) at zero allocations once the
// world's buffers are warm.
func TestCollectFlowsAllocs(t *testing.T) {
	// Stepped in 5 s jumps, so a 5 s grid: one background step a jump.
	w := New(testCluster(t), Config{Seed: 9, StepSize: 5 * time.Second}, t0)
	place, err := mpisim.NewPlacement(8, []int{0, 16}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.LaunchJob(simpleShape(8, 1000000), place, nil); err != nil {
		t.Fatal(err)
	}
	now := advance(w, t0, 2*time.Hour, 5*time.Second)
	w.InjectProbe(3, 40, 1e6, time.Hour)
	w.StepTo(now.Add(time.Second))
	w.mu.Lock()
	defer w.mu.Unlock()
	owners := map[bool]int{}
	for _, f := range w.collectFlowsLocked() {
		owners[f.Owner == netmodel.BackgroundOwner]++
	}
	if owners[true] < 2 || owners[false] == 0 {
		t.Fatalf("%d background and %d job flows: too few to collect", owners[true], owners[false])
	}
	if a := testing.AllocsPerRun(100, func() { w.collectFlowsLocked() }); a != 0 {
		t.Fatalf("warmed collectFlowsLocked allocates %v times, want 0", a)
	}
}

// background is what the world shows of its background at an instant:
// every node's sample, the flows it charges, and the bandwidth and
// latency of a spread of pairs. With no job running it is the
// background alone.
type background struct {
	samples []NodeSample
	flows   []netmodel.Flow
	avail   []float64
	lat     []time.Duration
}

func readBackground(t *testing.T, w *World) background {
	t.Helper()
	var b background
	n := w.cl.Size()
	for id := 0; id < n; id++ {
		s, err := w.SampleNode(id)
		if err != nil {
			t.Fatal(err)
		}
		b.samples = append(b.samples, s)
		for _, v := range []int{(id + 1) % n, (id*7 + 13) % n, n - 1 - id} {
			avail, _, err := w.MeasureBandwidth(id, v)
			if err != nil {
				t.Fatal(err)
			}
			lat, err := w.MeasureLatency(id, v)
			if err != nil {
				t.Fatal(err)
			}
			b.avail, b.lat = append(b.avail, avail), append(b.lat, lat)
		}
	}
	w.mu.Lock()
	b.flows = slices.Clone(w.collectFlowsLocked())
	w.mu.Unlock()
	return b
}

func sameBackground(t *testing.T, what string, got, want background) {
	t.Helper()
	if !slices.Equal(got.samples, want.samples) {
		for id := range want.samples {
			if got.samples[id] != want.samples[id] {
				t.Fatalf("%s: node %d reads %+v, want %+v", what, id, got.samples[id], want.samples[id])
			}
		}
	}
	if !slices.Equal(got.flows, want.flows) {
		t.Fatalf("%s: flows %v, want %v", what, got.flows, want.flows)
	}
	if !slices.Equal(got.avail, want.avail) || !slices.Equal(got.lat, want.lat) {
		t.Fatalf("%s: pair bandwidths or latencies differ", what)
	}
}

// inline steps a bare generator and the links' jitter on the grid, the
// reference for the run-ahead, and reads what a world with no job
// running shows of them.
type inline struct {
	cl    *cluster.Cluster
	step  time.Duration
	now   time.Time
	gen   *loadgen.Generator
	jit   *netmodel.Jitter
	net   *netmodel.Network
	flows []netmodel.Flow
}

func newInline(cl *cluster.Cluster, cfg Config) *inline {
	r := &inline{cl: cl, step: cfg.StepSize, now: t0, gen: loadgen.New(cl, cfg.Background, cfg.Seed), net: netmodel.New(cl.Topo, cfg.Net)}
	r.gen.Start(t0)
	r.jit = r.net.NewJitter(cfg.Seed + 0x9e37)
	r.update()
	return r
}

func (r *inline) update() {
	r.flows = r.flows[:0]
	for _, f := range r.gen.Flows() {
		r.flows = append(r.flows, netmodel.Flow{Src: f.Src, Dst: f.Dst, RateBps: f.RateBps, Owner: netmodel.BackgroundOwner})
	}
	r.net.Update(r.flows, r.jit.Factors())
}

// next steps to the next grid instant, returns it, and reports whether
// the background flows changed in number.
func (r *inline) next() (time.Time, bool) {
	r.now = r.now.Add(r.step)
	prev := len(r.flows)
	r.gen.Step(r.now, r.step)
	r.jit.Step(r.step)
	r.update()
	return r.now, len(r.flows) != prev
}

func (r *inline) read() background {
	var b background
	n := r.cl.Size()
	for id := 0; id < n; id++ {
		nl := r.gen.NodeLoad(id)
		b.samples = append(b.samples, NodeSample{CPULoad: nl.CPULoad, CPUUtilPct: nl.CPUUtilPct,
			UsedMemMB: nl.UsedMemMB, Users: nl.Users, FlowRateBps: r.net.NodeFlowRateBps(id)})
		for _, v := range []int{(id + 1) % n, (id*7 + 13) % n, n - 1 - id} {
			b.avail = append(b.avail, r.net.AvailBandwidthBps(id, v))
			b.lat = append(b.lat, r.net.Latency(id, v))
		}
	}
	b.flows = slices.Clone(r.flows)
	return b
}

// TestBackgroundMatchesInlineReference steps the inline reference over
// more than three wraps of the world's ring and requires the world to
// read the same at every step: a frame dropped or taken twice shifts
// every reading after it.
func TestBackgroundMatchesInlineReference(t *testing.T) {
	// Busy enough that flows start and end within the test's hours.
	cfg := Config{Seed: 31, StepSize: 5 * time.Second, Background: loadgen.Config{SessionRatePerHour: 20}}
	w := New(testCluster(t), cfg, t0)
	ref := newInline(w.cl, cfg)
	ring := len(w.bg.batches) * w.bg.perBatch
	steps := 3*ring + ring/2
	changed := 0
	for k := 0; k <= steps; k++ {
		if k > 0 {
			now, moved := ref.next()
			if moved {
				changed++
			}
			w.StepTo(now)
		}
		sameBackground(t, fmt.Sprintf("step %d", k), readBackground(t, w), ref.read())
	}
	if changed < 10 {
		t.Fatalf("the background flows changed at only %d of %d steps", changed, steps)
	}
}

// TestFillParksAndResumes stalls the loop at the first frame of every
// batch until the fill has parked, and requires it to have parked with
// the ring full, where the watermark has it: a fill stays parked until
// the world has freed half the ring, then fills it again. The batches
// written and the frames stepped must agree, and every frame must read
// as the inline reference.
func TestFillParksAndResumes(t *testing.T) {
	cfg := Config{Seed: 17, StepSize: 5 * time.Second, Background: loadgen.Config{SessionRatePerHour: 20}}
	w := New(testCluster(t), cfg, t0)
	ref := newInline(w.cl, cfg)
	a := w.bg
	nb := len(a.batches)
	if nb < 4 {
		t.Fatalf("a ring of %d batches: too few to tell the watermark from a restart at every batch", nb)
	}
	full, restarts := nb, 0 // the batches a parked fill has written, by the watermark
	for k := 0; k <= 3*nb*a.perBatch; k++ {
		if k > 0 {
			now, _ := ref.next()
			w.StepTo(now)
		}
		sameBackground(t, fmt.Sprintf("frame %d", k), readBackground(t, w), ref.read())
		if k%a.perBatch != 0 {
			continue
		}
		taken := k / a.perBatch
		if 2*(taken+nb-full) >= nb {
			full, restarts = taken+nb, restarts+1
		}
		w.mu.Lock()
		a.settle()
		a.mu.Lock()
		filled, released, running, frames := a.filled, a.released, a.running, a.fillK
		a.mu.Unlock()
		w.mu.Unlock()
		switch {
		case running:
			t.Fatalf("batch %d: a fill is queued or running after settle", taken)
		case released != taken:
			t.Fatalf("batch %d taken, %d released", taken, released)
		case filled != full:
			t.Fatalf("batch %d taken: the fill parked at %d batches written, want %d", taken, filled, full)
		case frames != filled*a.perBatch:
			t.Fatalf("batch %d taken: %d batches written in %d frames", taken, filled, frames)
		}
	}
	if restarts < 4 {
		t.Fatalf("the fill restarted only %d times", restarts)
	}
}

// TestGridSteps pins how the background moves on the grid: a StepTo that
// jumps several steps reads as a world that stepped through every grid
// instant, and one between grid instants reads as the last instant it
// passed.
func TestGridSteps(t *testing.T) {
	cfg := Config{Seed: 5, StepSize: 5 * time.Second, Background: loadgen.Config{SessionRatePerHour: 20}}
	cl := testCluster(t)
	every, jumping, offGrid := New(cl, cfg, t0), New(cl, cfg, t0), New(cl, cfg, t0)
	half := cfg.StepSize / 2
	for k := 1; k <= 300; k++ {
		grid := t0.Add(time.Duration(k) * cfg.StepSize)
		every.StepTo(grid)
		offGrid.StepTo(grid.Add(half))
		want := readBackground(t, every)
		sameBackground(t, fmt.Sprintf("between steps %d and %d", k, k+1), readBackground(t, offGrid), want)
		if k%7 == 0 {
			jumping.StepTo(grid)
			sameBackground(t, fmt.Sprintf("a jump to step %d", k), readBackground(t, jumping), want)
		}
	}
}

// TestWorldOwnsNoGoroutine requires that neither a session-like attached
// world, once detached, nor a dropped unattached world leaves a
// goroutine behind, and that a dropped world is collected.
func TestWorldOwnsNoGoroutine(t *testing.T) {
	cl := testCluster(t)
	cfg := Config{Seed: 3, StepSize: 250 * time.Millisecond}
	New(cl, cfg, t0).StepTo(t0.Add(time.Minute)) // the run-ahead workers start with the first world
	base := runtime.NumGoroutine()

	// Detached mid-ring and mid-batch: the fill may still be filling.
	sched := simtime.NewScheduler(t0)
	attached := New(cl, cfg, t0)
	stop := attached.Attach(sched)
	a := attached.bg
	d := time.Duration(len(a.batches)*a.perBatch*30+3*a.perBatch+a.perBatch/2) * cfg.StepSize
	sched.RunFor(d)
	stop()
	a.mu.Lock()
	running := a.running
	a.mu.Unlock()
	if running {
		t.Fatal("a fill is queued or running after the world was detached")
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the attached world stopped, %d before", n, base)
	}
	// Stepped on by hand, the detached world reads as one stepped alone.
	alone := New(cl, cfg, t0)
	end := t0.Add(d + 2*time.Duration(len(a.batches)*a.perBatch)*cfg.StepSize)
	advance(alone, t0, end.Sub(t0), cfg.StepSize)
	advance(attached, t0.Add(d), end.Sub(t0.Add(d)), cfg.StepSize)
	sameBackground(t, "the detached world", readBackground(t, attached), readBackground(t, alone))

	collected := make(chan struct{})
	func() {
		w := New(cl, cfg, t0)
		w.StepTo(t0.Add(10 * time.Minute))
		runtime.SetFinalizer(w.bg, func(*ahead) { close(collected) })
	}()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after a world was dropped, %d before", n, base)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a dropped world's background was never collected")
		}
	}
}

// TestWorldsStepConcurrently steps several same-seed worlds at once, so
// their fills share the workers, and requires each to read as one
// stepped alone.
func TestWorldsStepConcurrently(t *testing.T) {
	cfg := Config{Seed: 9, StepSize: 5 * time.Second, Background: loadgen.Config{SessionRatePerHour: 20}}
	cl := testCluster(t)
	const steps = 400
	end := t0.Add(steps * cfg.StepSize)
	alone := New(cl, cfg, t0)
	advance(alone, t0, end.Sub(t0), cfg.StepSize)
	want := readBackground(t, alone)
	worlds := make([]*World, 4)
	var wg sync.WaitGroup
	for i := range worlds {
		worlds[i] = New(cl, cfg, t0)
		wg.Add(1)
		go func(w *World) {
			defer wg.Done()
			advance(w, t0, end.Sub(t0), cfg.StepSize)
		}(worlds[i])
	}
	wg.Wait()
	for i, w := range worlds {
		sameBackground(t, fmt.Sprintf("world %d", i), readBackground(t, w), want)
	}
}

// BenchmarkBackgroundFrame times one frame of the background on the
// 60-node rig at the paper loop's 5 s grid, as a fill writes it: every
// node's load and flows, every link's jitter.
func BenchmarkBackgroundFrame(b *testing.B) {
	cl, err := cluster.BuildIITK()
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Seed: 42, StepSize: 5 * time.Second}
	jit := netmodel.New(cl.Topo, cfg.Net).NewJitter(cfg.Seed + 0x9e37)
	a := &ahead{step: cfg.StepSize, nodes: cl.Size(), links: len(jit.Factors()), perBatch: 1,
		gen: loadgen.New(cl, cfg.Background, cfg.Seed), jit: jit, fillAt: t0}
	a.gen.Start(t0)
	frame := batch{loads: make([]loadgen.NodeLoad, a.nodes), jitter: make([]float64, a.links), flows: make([][]netmodel.Flow, 1)}
	a.fill(&frame) // the frame at the start, before the first step
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		a.fill(&frame)
	}
}
