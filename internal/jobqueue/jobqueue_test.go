package jobqueue

import (
	"fmt"
	"testing"
	"time"

	"nlarm/internal/broker"
	"nlarm/internal/cluster"
	"nlarm/internal/monitor"
	"nlarm/internal/mpisim"
	"nlarm/internal/simtime"
	"nlarm/internal/store"
	"nlarm/internal/world"
)

var t0 = time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)

type rig struct {
	sched *simtime.Scheduler
	w     *world.World
	st    *store.VersionedStore // shared by daemons and broker, as in production
	b     *broker.Broker
	q     *Queue
}

// rigStore exposes the rig's shared store to sibling test files.
func rigStore(r *rig) *store.VersionedStore { return r.st }

func newRig(t *testing.T, seed uint64, waitThreshold float64) *rig {
	t.Helper()
	cl, err := cluster.BuildUniform(2, 4, 8, 3.0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	sched := simtime.NewScheduler(t0)
	w := world.New(cl, world.Config{Seed: seed, StepSize: time.Second}, t0)
	w.Attach(sched)
	st := store.Version(store.NewMem())
	mgr := monitor.NewManager(&monitor.WorldProber{W: w}, st, monitor.Config{
		NodeStatePeriod: 2 * time.Second,
		LivehostsPeriod: 2 * time.Second,
		LatencyPeriod:   5 * time.Second,
		BandwidthPeriod: 10 * time.Second,
	})
	if err := mgr.Start(sched); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)
	sched.RunFor(30 * time.Second)
	b := broker.New(st, sched, broker.Config{Seed: seed, WaitLoadPerCore: waitThreshold})
	q := New(b, sched, Config{RetryPeriod: 10 * time.Second})
	if err := q.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Stop)
	return &rig{sched: sched, w: w, st: st, b: b, q: q}
}

// instantSpec is a job whose Start completes immediately.
func instantSpec(name string, launched *[]string) Spec {
	return Spec{
		Name:    name,
		Request: broker.Request{Procs: 8, PPN: 4, Alpha: 0.5, Beta: 0.5},
		Start: func(id int, resp broker.Response, done func(error)) error {
			if launched != nil {
				*launched = append(*launched, name)
			}
			done(nil)
			return nil
		},
	}
}

func TestSubmitLaunchesImmediatelyWhenCalm(t *testing.T) {
	r := newRig(t, 1, 0.9)
	var launched []string
	id, err := r.q.Submit(instantSpec("a", &launched))
	if err != nil {
		t.Fatal(err)
	}
	j, ok := r.q.Job(id)
	if !ok || j.State != StateDone {
		t.Fatalf("job state %v", j.State)
	}
	if len(launched) != 1 {
		t.Fatalf("launched %v", launched)
	}
	if j.Attempts != 1 || j.WaitAnswers != 0 {
		t.Fatalf("attempts %d waits %d", j.Attempts, j.WaitAnswers)
	}
	if j.Response.Recommendation != broker.RecommendAllocate {
		t.Fatal("no allocation recorded")
	}
}

func TestFIFOOrder(t *testing.T) {
	r := newRig(t, 2, 0.9)
	var launched []string
	for _, name := range []string{"first", "second", "third"} {
		if _, err := r.q.Submit(instantSpec(name, &launched)); err != nil {
			t.Fatal(err)
		}
	}
	if len(launched) != 3 {
		t.Fatalf("launched %v", launched)
	}
	for i, want := range []string{"first", "second", "third"} {
		if launched[i] != want {
			t.Fatalf("order %v", launched)
		}
	}
}

func TestQueueWaitsWhileClusterBusy(t *testing.T) {
	// Wait threshold 0.5 load/core; a hog job with 8 ranks per node on
	// all 8 nodes pushes sampled load to ~1/core.
	r := newRig(t, 3, 0.5)
	hog := &mpisim.Shape{
		Name: "hog", Ranks: 64, Iterations: 1,
		ComputeSecPerIter: 120, RefFreqGHz: 3.0,
	}
	place, err := mpisim.NewPlacement(64, []int{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.w.LaunchJob(hog, place, nil); err != nil {
		t.Fatal(err)
	}
	// Let NodeStateD observe the load.
	r.sched.RunFor(90 * time.Second)

	var launched []string
	id, err := r.q.Submit(instantSpec("queued", &launched))
	if err != nil {
		t.Fatal(err)
	}
	j, _ := r.q.Job(id)
	if j.State != StatePending {
		t.Fatalf("job launched on a busy cluster (state %v)", j.State)
	}
	if len(jobIDs(r.q.pending)) != 1 {
		t.Fatalf("pending %v", jobIDs(r.q.pending))
	}
	// While the hog runs, retries keep answering wait.
	r.sched.RunFor(2 * time.Minute)
	j, _ = r.q.Job(id)
	if j.State != StatePending || j.WaitAnswers == 0 {
		t.Fatalf("state %v waits %d", j.State, j.WaitAnswers)
	}
	// The hog finishes (~it needs 120s at half share => up to ~5 virtual
	// minutes); load decays out of the 1-minute mean; the queue launches.
	deadline := r.sched.Now().Add(30 * time.Minute)
	for {
		j, _ = r.q.Job(id)
		if j.State == StateDone {
			break
		}
		if r.sched.Now().After(deadline) {
			t.Fatalf("job never launched after hog finished (state %v, load samples stuck?)", j.State)
		}
		r.sched.RunFor(30 * time.Second)
	}
	if len(launched) != 1 {
		t.Fatalf("launched %v", launched)
	}
	if j.WaitAnswers < 2 {
		t.Fatalf("expected several wait answers, got %d", j.WaitAnswers)
	}
}

func TestHeadOfLineBlocksFollowers(t *testing.T) {
	r := newRig(t, 4, 0.5)
	hog := &mpisim.Shape{Name: "hog", Ranks: 64, Iterations: 1, ComputeSecPerIter: 60, RefFreqGHz: 3.0}
	place, _ := mpisim.NewPlacement(64, []int{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if _, err := r.w.LaunchJob(hog, place, nil); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(90 * time.Second)
	var launched []string
	id1, _ := r.q.Submit(instantSpec("head", &launched))
	id2, _ := r.q.Submit(instantSpec("tail", &launched))
	if p := jobIDs(r.q.pending); len(p) != 2 || p[0] != id1 || p[1] != id2 {
		t.Fatalf("pending %v", p)
	}
	if len(launched) != 0 {
		t.Fatalf("launched while busy: %v", launched)
	}
	// When the cluster frees up, both launch in order.
	deadline := r.sched.Now().Add(30 * time.Minute)
	for len(launched) < 2 && !r.sched.Now().After(deadline) {
		r.sched.RunFor(30 * time.Second)
	}
	if len(launched) != 2 || launched[0] != "head" || launched[1] != "tail" {
		t.Fatalf("launch order %v", launched)
	}
}

func TestAsyncCompletionViaDone(t *testing.T) {
	r := newRig(t, 6, 0.9)
	var doneFn func(error)
	id, err := r.q.Submit(Spec{
		Name:    "async",
		Request: broker.Request{Procs: 8, PPN: 4},
		Start: func(id int, resp broker.Response, done func(error)) error {
			doneFn = done
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := r.q.Job(id)
	if j.State != StateRunning {
		t.Fatalf("state %v", j.State)
	}
	if r.q.Stats().Running != 1 {
		t.Fatalf("stats %+v", r.q.Stats())
	}
	doneFn(nil)
	j, _ = r.q.Job(id)
	if j.State != StateDone || j.Finished.IsZero() {
		t.Fatalf("after done: %+v", j)
	}
	// done is idempotent.
	doneFn(fmt.Errorf("late error"))
	j, _ = r.q.Job(id)
	if j.State != StateDone {
		t.Fatal("second done changed state")
	}
}

func TestStartFailureMarksFailed(t *testing.T) {
	r := newRig(t, 7, 0.9)
	id, err := r.q.Submit(Spec{
		Name:    "broken",
		Request: broker.Request{Procs: 8, PPN: 4},
		Start: func(id int, resp broker.Response, done func(error)) error {
			return fmt.Errorf("launcher exploded")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := r.q.Job(id)
	if j.State != StateFailed || j.Err == nil {
		t.Fatalf("state %v err %v", j.State, j.Err)
	}
}

func TestSubmitValidation(t *testing.T) {
	r := newRig(t, 8, 0.9)
	if _, err := r.q.Submit(Spec{Name: "nostart", Request: broker.Request{Procs: 4}}); err == nil {
		t.Fatal("nil Start accepted")
	}
	if _, err := r.q.Submit(Spec{
		Name:    "forced",
		Request: broker.Request{Procs: 4, Force: true},
		Start:   func(int, broker.Response, func(error)) error { return nil },
	}); err == nil {
		t.Fatal("forced request accepted")
	}
}

func TestDoubleStartFails(t *testing.T) {
	r := newRig(t, 9, 0.9)
	if err := r.q.Start(); err == nil {
		t.Fatal("double start accepted")
	}
}

func TestJobLookupMissing(t *testing.T) {
	r := newRig(t, 10, 0.9)
	if _, ok := r.q.Job(999); ok {
		t.Fatal("ghost job found")
	}
}
