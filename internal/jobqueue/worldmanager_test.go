package jobqueue

import (
	"testing"
	"time"

	"nlarm/internal/broker"
	"nlarm/internal/metrics"
	"nlarm/internal/monitor"
)

func TestWorldManagerSubmitRunsJob(t *testing.T) {
	r := newRig(t, 20, 0.9)
	m := NewWorldManager(r.q, r.w)
	id, err := m.Submit(broker.SubmitRequest{
		Name: "md-test", App: "minimd", Size: 8, Iterations: 20,
		Request: broker.Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	info, ok := m.Status(id)
	if !ok {
		t.Fatal("no status")
	}
	if info.State != string(StateRunning) {
		t.Fatalf("state %s right after calm submit", info.State)
	}
	if len(info.Nodes) != 2 || len(info.Hostfile) != 2 {
		t.Fatalf("nodes %v hostfile %v", info.Nodes, info.Hostfile)
	}
	// Drive the world until the job completes.
	deadline := r.sched.Now().Add(30 * time.Minute)
	for {
		info, _ = m.Status(id)
		if info.State == string(StateDone) {
			break
		}
		if r.sched.Now().After(deadline) {
			t.Fatalf("job stuck in %s", info.State)
		}
		r.sched.RunFor(10 * time.Second)
	}
	if info.Elapsed <= 0 {
		t.Fatalf("no elapsed time recorded: %+v", info)
	}
	qs := m.QueueStats()
	if qs.Done != 1 || qs.Running != 0 {
		t.Fatalf("queue stats %+v", qs)
	}
}

func TestWorldManagerMiniFE(t *testing.T) {
	r := newRig(t, 21, 0.9)
	m := NewWorldManager(r.q, r.w)
	id, err := m.Submit(broker.SubmitRequest{
		App: "minife", Size: 32, Iterations: 20,
		Request: broker.Request{Procs: 8, PPN: 4, Alpha: 0.4, Beta: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := m.Status(id)
	if info.Name != "minife-32" {
		t.Fatalf("default name %q", info.Name)
	}
}

func TestWorldManagerValidatesApp(t *testing.T) {
	r := newRig(t, 22, 0.9)
	m := NewWorldManager(r.q, r.w)
	if _, err := m.Submit(broker.SubmitRequest{App: "hpl", Size: 10, Request: broker.Request{Procs: 4}}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := m.Submit(broker.SubmitRequest{App: "minimd", Size: 8, Request: broker.Request{Procs: 0}}); err == nil {
		t.Fatal("zero procs accepted")
	}
	// Refused before a shape is built: the shape loops over every rank.
	if _, err := m.Submit(broker.SubmitRequest{App: "minimd", Size: 8, Request: broker.Request{Procs: 1 << 40}}); err == nil {
		t.Fatal("2^40 procs accepted")
	}
	hosts := 0
	for _, n := range r.w.Cluster().Nodes {
		hosts += n.Cores
	}
	if _, err := m.Submit(broker.SubmitRequest{App: "minimd", Size: 8, Request: broker.Request{Procs: hosts + 1}}); err == nil {
		t.Fatalf("%d procs accepted on %d cores", hosts+1, hosts)
	}
	if _, err := m.Submit(broker.SubmitRequest{App: "minimd", Size: 8, Request: broker.Request{Procs: 2*r.w.Cluster().Size() + 1, PPN: 2}}); err == nil {
		t.Fatal("procs above nodes × PPN accepted")
	}
	if _, ok := m.Status(12345); ok {
		t.Fatal("ghost job has status")
	}
}

func TestManagedServerEndToEnd(t *testing.T) {
	r := newRig(t, 23, 0.9)
	m := NewWorldManager(r.q, r.w)
	srv, err := broker.NewServerOpts(r.b, m, "127.0.0.1:0", broker.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := broker.Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, err := c.Submit(broker.SubmitRequest{
		App: "minimd", Size: 8, Iterations: 10,
		Request: broker.Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.JobStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != string(StateRunning) && info.State != string(StateDone) {
		t.Fatalf("wire status %+v", info)
	}
	qs, err := c.QueueStats()
	if err != nil {
		t.Fatal(err)
	}
	if qs.Running+qs.Done != 1 {
		t.Fatalf("wire queue stats %+v", qs)
	}
	if _, err := c.JobStatus(999); err == nil {
		t.Fatal("ghost job status over wire succeeded")
	}
}

func TestUnmanagedServerRejectsSubmit(t *testing.T) {
	r := newRig(t, 24, 0.9)
	srv, err := broker.NewServerOpts(r.b, nil, "127.0.0.1:0", broker.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := broker.Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(broker.SubmitRequest{App: "minimd", Size: 8, Request: broker.Request{Procs: 4}}); err == nil {
		t.Fatal("unmanaged server accepted submit")
	}
}

func TestWorldManagerPredictions(t *testing.T) {
	r := newRig(t, 25, 0.9)
	m := NewWorldManager(r.q, r.w).WithPredictions(func() (*metrics.Snapshot, error) {
		return monitor.ReadSnapshot(rigStore(r), r.sched.Now())
	})
	id, err := m.Submit(broker.SubmitRequest{
		App: "minimd", Size: 16, Iterations: 50,
		Request: broker.Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := m.Status(id)
	if info.PredictedElapsed <= 0 {
		t.Fatalf("no prediction recorded: %+v", info)
	}
	// Run to completion and compare magnitudes.
	deadline := r.sched.Now().Add(time.Hour)
	for info.State != string(StateDone) && !r.sched.Now().After(deadline) {
		r.sched.RunFor(10 * time.Second)
		info, _ = m.Status(id)
	}
	if info.Elapsed <= 0 {
		t.Fatalf("job never finished: %+v", info)
	}
	ratio := info.Elapsed.Seconds() / info.PredictedElapsed.Seconds()
	if ratio < 0.05 || ratio > 20 {
		t.Fatalf("prediction wildly off: predicted %v actual %v", info.PredictedElapsed, info.Elapsed)
	}
}
