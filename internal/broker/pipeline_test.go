package broker

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nlarm/internal/loadgen"
)

// startServer spins a broker server for pipelining tests and tears it
// down with the test.
func startServer(t *testing.T, seed uint64, opts ServerOptions) (*rig, *Server) {
	t.Helper()
	r := newRig(t, seed, loadgen.Config{})
	srv, err := NewServerOpts(r.b, nil, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return r, srv
}

// procsOf sums a response's per-node process counts — the echo that
// ties a response back to the request that asked for it.
func procsOf(resp Response) int {
	total := 0
	for _, n := range resp.Procs {
		total += n
	}
	return total
}

// TestClientPipelineNoCrossWiring is the regression test for the
// round-trip serialization fix: the old client held one lock across
// send+receive, so interleaved concurrent calls were impossible and an
// ID-less interleaving would have handed responses to the wrong
// callers. Here many goroutines share one Client, each asking for a
// distinct process count, and every response must answer its own
// request.
func TestClientPipelineNoCrossWiring(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		_, srv := startServer(t, 41, ServerOptions{Batching: &BatcherOptions{MaxBatch: 32}})
		c, err := Dial(srv.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		const workers = 8
		const rounds = 30
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			want := w + 1 // distinct procs per goroutine
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					resp, err := c.Allocate(Request{Procs: want, Force: true})
					if err != nil {
						errs <- fmt.Errorf("procs=%d: %w", want, err)
						return
					}
					if got := procsOf(resp); got != want {
						errs <- fmt.Errorf("asked for %d procs, response placed %d: cross-wired", want, got)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestClientPipelinesConcurrently proves requests actually overlap on
// one connection: with a batching server and no dispatcher running,
// every in-flight request parks in the queue — N concurrent calls can
// only all become pending at once if the client pipelines instead of
// serializing whole round trips.
func TestClientPipelinesConcurrently(t *testing.T) {
	r := newRig(t, 42, loadgen.Config{})
	// No dispatcher: requests queue until we Flush, which must still
	// drain the per-connection write buffers.
	srv, err := newServer(r.b, nil, "127.0.0.1:0", ServerOptions{Batching: &BatcherOptions{MaxBatch: 64}}, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	bt := srv.batcher

	c, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const inflight = 10
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Allocate(Request{Procs: 4, Force: true}); err != nil {
				t.Errorf("pipelined allocate: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for bt.QueueDepth() < inflight {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests in flight on one connection: client is serializing round trips", bt.QueueDepth(), inflight)
		}
		time.Sleep(time.Millisecond)
	}
	if served := bt.Flush(); served != inflight {
		t.Fatalf("flush served %d of %d", served, inflight)
	}
	wg.Wait()
}

// TestClientShedCrossesWire: a shed is a server answer, not a transport
// failure. It must reach a Client caller as a *ShedError carrying the
// server's retry hint, and the server must have shed exactly once.
func TestClientShedCrossesWire(t *testing.T) {
	r, srv := startServer(t, 44, ServerOptions{Batching: &BatcherOptions{
		MaxBatch:  16,
		Admission: AdmissionConfig{TenantRate: 1, TenantBurst: 1},
	}})
	c, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Allocate(Request{Procs: 4, Force: true}); err != nil {
		t.Fatalf("first allocate (burst token): %v", err)
	}
	_, err = c.Allocate(Request{Procs: 4, Force: true})
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("second allocate: got %v, want shed", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("shed lost its retry hint over the wire: %+v", se)
	}
	if shedTotal := r.b.Obs().Counter("broker.admit.shed.total").Value(); shedTotal != 1 {
		t.Fatalf("server shed %d requests, want 1", shedTotal)
	}
}

// TestInflightShedCountedPerTenant: an "inflight" shed is booked like
// every other shed — in total, by reason and by tenant — so the per-tenant
// shed counters sum to broker.admit.shed.total over the wire too. With
// no dispatcher the first pipelined allocate stays queued (in flight)
// and the second, read off the same connection right behind it,
// overruns MaxInflight 1.
func TestInflightShedCountedPerTenant(t *testing.T) {
	r := newRig(t, 45, loadgen.Config{})
	srv, err := newServer(r.b, nil, "127.0.0.1:0", ServerOptions{MaxInflight: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := json.NewEncoder(conn), json.NewDecoder(conn)
	for id := uint64(1); id <= 2; id++ {
		req := wireRequest{ID: id, Tenant: "t", Action: "allocate", Request: Request{Procs: 4, Force: true}}
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	var shed wireResponse
	if err := dec.Decode(&shed); err != nil {
		t.Fatal(err)
	}
	if shed.ID != 2 || !shed.Shed || shed.ShedReason != "inflight" {
		t.Fatalf("first answer %+v, want request 2 shed for inflight", shed)
	}
	var byTenant uint64
	counters := r.b.Obs().Snapshot().Counters
	for name, v := range counters {
		if strings.HasPrefix(name, "broker.admit.shed.tenant.") {
			byTenant += v
		}
	}
	total := counters["broker.admit.shed.total"]
	if total != 1 || counters["broker.admit.shed.inflight"] != 1 || counters["broker.admit.shed.tenant.t"] != 1 || byTenant != total {
		t.Fatalf("shed books: total=%d inflight=%d tenant.t=%d sum(tenant.*)=%d, want 1 each",
			total, counters["broker.admit.shed.inflight"], counters["broker.admit.shed.tenant.t"], byTenant)
	}
	if served := srv.batcher.Flush(); served != 1 {
		t.Fatalf("flush served %d, want the one queued request", served)
	}
	var ok wireResponse
	if err := dec.Decode(&ok); err != nil {
		t.Fatal(err)
	}
	if ok.ID != 1 || !ok.OK {
		t.Fatalf("queued request answered %+v", ok)
	}
}
