package jobqueue

import (
	"testing"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/broker"
	"nlarm/internal/mpisim"
)

// withQueue replaces the rig's default queue with one built from cfg
// (the default rig queue is plain FIFO with no backfill).
func withQueue(t *testing.T, r *rig, cfg Config) {
	t.Helper()
	r.q.Stop()
	if cfg.RetryPeriod == 0 {
		cfg.RetryPeriod = 10 * time.Second
	}
	q := New(r.b, r.sched, cfg)
	if err := q.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Stop)
	r.q = q
}

// jobIDs lists the IDs of jobs, in order (tests read Queue.pending
// through it).
func jobIDs(jobs []*Job) []int {
	ids := make([]int, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	return ids
}

// launchEv is one observed job launch (virtual time included so traces
// can be compared bit-for-bit between runs).
type launchEv struct {
	name string
	at   time.Time
}

// traceSpec is an instantly-completing job that appends a launch event.
func traceSpec(r *rig, name string, procs, ppn int, wall time.Duration, out *[]launchEv) Spec {
	return Spec{
		Name:     name,
		Request:  broker.Request{Procs: procs, PPN: ppn, Alpha: 0.5, Beta: 0.5},
		Walltime: wall,
		Start: func(id int, resp broker.Response, done func(error)) error {
			*out = append(*out, launchEv{name, r.sched.Now()})
			done(nil)
			return nil
		},
	}
}

// halfClusterHog runs a long compute-bound job on nodes 0-3 (half the
// rig's 8-node cluster), pushing cluster load/core to ~0.5 so a 0.35
// wait threshold blocks the queue head while half the slots stay idle —
// the canonical backfill opportunity.
func halfClusterHog(t *testing.T, r *rig, computeSec float64) {
	t.Helper()
	hog := &mpisim.Shape{Name: "hog", Ranks: 32, Iterations: 1, ComputeSecPerIter: computeSec, RefFreqGHz: 3.0}
	place, err := mpisim.NewPlacement(32, []int{0, 1, 2, 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.w.LaunchJob(hog, place, nil); err != nil {
		t.Fatal(err)
	}
	// Let NodeStateD observe the load.
	r.sched.RunFor(90 * time.Second)
}

// backfillScenario drives the canonical case: a hog loads half the
// cluster, a wide head job must wait, a job with no walltime queues
// behind it, and a short walltimed job backfills past both. Returns the
// rig, the launch trace, and the head/nowall/short job IDs.
func backfillScenario(t *testing.T, seed uint64) (*rig, *[]launchEv, [3]int) {
	t.Helper()
	r := newRig(t, seed, 0.35)
	rp := alloc.NewReservingPolicy(alloc.LoadAware{}, 90*time.Second)
	r.b.RegisterPolicy(rp)
	withQueue(t, r, Config{Backfill: true, Reserve: rp})
	halfClusterHog(t, r, 600)

	var trace []launchEv
	head, err := r.q.Submit(traceSpec(r, "head", 64, 8, 0, &trace))
	if err != nil {
		t.Fatal(err)
	}
	nowall, err := r.q.Submit(traceSpec(r, "nowall", 8, 4, 0, &trace))
	if err != nil {
		t.Fatal(err)
	}
	short, err := r.q.Submit(traceSpec(r, "short", 8, 4, 2*time.Minute, &trace))
	if err != nil {
		t.Fatal(err)
	}
	return r, &trace, [3]int{head, nowall, short}
}

func TestBackfillLaunchesShortJobAroundBlockedHead(t *testing.T) {
	r, trace, ids := backfillScenario(t, 21)
	head, nowall, short := ids[0], ids[1], ids[2]

	// The walltimed short job backfilled immediately on submit; the head
	// and the estimate-less job are still queued, in order.
	sj, _ := r.q.Job(short)
	if sj.State != StateDone {
		t.Fatalf("short job state %v, want done via backfill", sj.State)
	}
	if !sj.Backfilled {
		t.Fatal("short job launched but not marked backfilled")
	}
	if p := jobIDs(r.q.pending); len(p) != 2 || p[0] != head || p[1] != nowall {
		t.Fatalf("pending %v, want [%d %d]", p, head, nowall)
	}
	if len(*trace) != 1 || (*trace)[0].name != "short" {
		t.Fatalf("trace %v, want only the short job launched", *trace)
	}
	if got := r.q.Stats().Backfilled; got != 1 {
		t.Fatalf("stats backfilled %d, want 1", got)
	}

	// Backfill invariants: the job fits entirely before the head's
	// reserved start, and it never overtook anyone near the aging bound.
	if sj.ReservedStart.IsZero() {
		t.Fatal("no reserved start recorded")
	}
	if sj.Started.Add(sj.Walltime).After(sj.ReservedStart) {
		t.Fatalf("backfill violates reservation: started %v + walltime %v > reserved start %v",
			sj.Started, sj.Walltime, sj.ReservedStart)
	}
	if sj.OvertookMaxWait >= 30*time.Minute {
		t.Fatalf("overtook a job waiting %v, at/over the aging bound", sj.OvertookMaxWait)
	}

	// No starvation: once the hog drains and load decays, the head and
	// then the estimate-less job launch in queue order.
	deadline := r.sched.Now().Add(30 * time.Minute)
	for r.q.Stats().Done < 3 && !r.sched.Now().After(deadline) {
		r.sched.RunFor(30 * time.Second)
	}
	if got := r.q.Stats(); got.Done != 3 || got.Failed != 0 {
		t.Fatalf("queue never drained: %+v", got)
	}
	if len(*trace) != 3 || (*trace)[1].name != "head" || (*trace)[2].name != "nowall" {
		t.Fatalf("launch order %v, want short, head, nowall", *trace)
	}
	hj, _ := r.q.Job(head)
	nj, _ := r.q.Job(nowall)
	if hj.Backfilled || nj.Backfilled {
		t.Fatal("non-backfilled jobs marked backfilled")
	}
}

func TestNoWalltimeJobsNeverBackfill(t *testing.T) {
	r := newRig(t, 24, 0.35)
	withQueue(t, r, Config{Backfill: true})
	halfClusterHog(t, r, 600)

	var trace []launchEv
	if _, err := r.q.Submit(traceSpec(r, "head", 64, 8, 0, &trace)); err != nil {
		t.Fatal(err)
	}
	// Plenty of idle slots for these, but no walltime estimate: EASY
	// backfill must not touch them.
	for _, name := range []string{"a", "b", "c"} {
		if _, err := r.q.Submit(traceSpec(r, name, 8, 4, 0, &trace)); err != nil {
			t.Fatal(err)
		}
	}
	r.sched.RunFor(time.Minute)
	if len(trace) != 0 {
		t.Fatalf("jobs without estimates launched out of order: %v", trace)
	}
	if got := r.q.Stats(); got.Pending != 4 || got.Backfilled != 0 {
		t.Fatalf("stats %+v, want 4 pending and 0 backfilled", got)
	}
}

func TestAgingBoundStopsBackfill(t *testing.T) {
	r := newRig(t, 22, 0.35)
	withQueue(t, r, Config{Backfill: true, AgingBound: 90 * time.Second})
	halfClusterHog(t, r, 600)

	var trace []launchEv
	head, err := r.q.Submit(traceSpec(r, "head", 64, 8, 0, &trace))
	if err != nil {
		t.Fatal(err)
	}
	// Age the head past the bound before the short job arrives.
	r.sched.RunFor(2 * time.Minute)
	hj, _ := r.q.Job(head)
	if hj.State != StatePending {
		t.Fatalf("head state %v, want pending behind the hog", hj.State)
	}
	short, err := r.q.Submit(traceSpec(r, "short", 8, 4, 2*time.Minute, &trace))
	if err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(time.Minute)
	sj, _ := r.q.Job(short)
	if sj.State != StatePending || sj.Backfilled {
		t.Fatalf("short job overtook an aged-out head: state %v backfilled %v", sj.State, sj.Backfilled)
	}
	if got := r.q.Stats().Backfilled; got != 0 {
		t.Fatalf("stats backfilled %d, want 0", got)
	}
}

// fifoScenario drives the same workload (no walltime estimates anywhere)
// through a queue with backfill on or off and returns the launch trace
// plus per-job (attempts, waits, started) — everything that could
// diverge if the backfill pass perturbed the broker call sequence.
func fifoScenario(t *testing.T, seed uint64, backfill bool) ([]launchEv, []Job) {
	t.Helper()
	r := newRig(t, seed, 0.35)
	withQueue(t, r, Config{Backfill: backfill})
	halfClusterHog(t, r, 60)

	var trace []launchEv
	ids := make([]int, 0, 3)
	for _, name := range []string{"a", "b", "c"} {
		id, err := r.q.Submit(traceSpec(r, name, 8, 4, 0, &trace))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	deadline := r.sched.Now().Add(20 * time.Minute)
	for r.q.Stats().Done < 3 && !r.sched.Now().After(deadline) {
		r.sched.RunFor(10 * time.Second)
	}
	if got := r.q.Stats(); got.Done != 3 {
		t.Fatalf("queue never drained: %+v", got)
	}
	jobs := make([]Job, 0, len(ids))
	for _, id := range ids {
		j, _ := r.q.Job(id)
		jobs = append(jobs, j)
	}
	return trace, jobs
}

func TestBackfillDisabledByNoEstimatesIsBitForBitFIFO(t *testing.T) {
	offTrace, offJobs := fifoScenario(t, 23, false)
	onTrace, onJobs := fifoScenario(t, 23, true)
	if len(offTrace) != len(onTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(offTrace), len(onTrace))
	}
	for i := range offTrace {
		if offTrace[i] != onTrace[i] {
			t.Fatalf("launch %d differs: %+v vs %+v", i, offTrace[i], onTrace[i])
		}
	}
	for i := range offJobs {
		a, b := offJobs[i], onJobs[i]
		if a.Attempts != b.Attempts || a.WaitAnswers != b.WaitAnswers ||
			!a.Started.Equal(b.Started) || !a.Finished.Equal(b.Finished) ||
			b.Backfilled {
			t.Fatalf("job %d diverged: %+v vs %+v", a.ID, a, b)
		}
	}
}

func TestBackfillDeterministicAcrossRuns(t *testing.T) {
	r1, trace1, ids1 := backfillScenario(t, 25)
	r2, trace2, ids2 := backfillScenario(t, 25)
	if len(*trace1) != len(*trace2) {
		t.Fatalf("trace lengths differ: %v vs %v", *trace1, *trace2)
	}
	for i := range *trace1 {
		if (*trace1)[i] != (*trace2)[i] {
			t.Fatalf("launch %d differs: %+v vs %+v", i, (*trace1)[i], (*trace2)[i])
		}
	}
	s1, _ := r1.q.Job(ids1[2])
	s2, _ := r2.q.Job(ids2[2])
	if !s1.Started.Equal(s2.Started) || !s1.ReservedStart.Equal(s2.ReservedStart) ||
		s1.OvertookMaxWait != s2.OvertookMaxWait || s1.Backfilled != s2.Backfilled {
		t.Fatalf("backfill decision diverged: %+v vs %+v", s1, s2)
	}
}

func TestPrioritySubmissionOrder(t *testing.T) {
	r := newRig(t, 26, 0.35)
	withQueue(t, r, Config{Backfill: true})
	halfClusterHog(t, r, 600)

	var trace []launchEv
	lo, _ := r.q.Submit(traceSpec(r, "lo", 8, 4, 0, &trace))
	mid1, _ := r.q.Submit(Spec{
		Name: "mid1", Request: broker.Request{Procs: 8, PPN: 4}, Priority: 5,
		Start: traceSpec(r, "mid1", 8, 4, 0, &trace).Start,
	})
	hi, _ := r.q.Submit(Spec{
		Name: "hi", Request: broker.Request{Procs: 8, PPN: 4}, Priority: 9,
		Start: traceSpec(r, "hi", 8, 4, 0, &trace).Start,
	})
	mid2, _ := r.q.Submit(Spec{
		Name: "mid2", Request: broker.Request{Procs: 8, PPN: 4}, Priority: 5,
		Start: traceSpec(r, "mid2", 8, 4, 0, &trace).Start,
	})
	want := []int{hi, mid1, mid2, lo}
	if p := jobIDs(r.q.pending); len(p) != 4 || p[0] != want[0] || p[1] != want[1] || p[2] != want[2] || p[3] != want[3] {
		t.Fatalf("pending %v, want %v (priority order, ties FIFO)", p, want)
	}
}

// TestReserveRoutesOnlyPolicylessSubmissions pins which submissions the
// reserving policy places: one that names no policy (what nlarm-alloc
// -submit sends unless -policy is given) is routed to Config.Reserve,
// one that names a policy is answered by exactly that policy.
func TestReserveRoutesOnlyPolicylessSubmissions(t *testing.T) {
	r := newRig(t, 27, 0.9)
	rp := alloc.NewReservingPolicy(alloc.NetLoadAware{}, 90*time.Second)
	r.b.RegisterPolicy(rp)
	withQueue(t, r, Config{Reserve: rp})
	for _, c := range []struct{ policy, want string }{
		{"", rp.Name()},
		{"random", "random"},
	} {
		spec := instantSpec("routed", nil)
		spec.Request.Policy = c.policy
		id, err := r.q.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		j, _ := r.q.Job(id)
		if j.State != StateDone || j.Response.Policy != c.want {
			t.Fatalf("policy %q: state %v, answered by %q, want %q", c.policy, j.State, j.Response.Policy, c.want)
		}
	}
}
