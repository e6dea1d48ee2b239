package broker

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"nlarm/internal/loadgen"
	"nlarm/internal/rng"
)

// collectAlloc enqueues one allocate and returns a fetch function for
// its (eventual) result — enqueue-time errors fail the test.
func collectAlloc(t testing.TB, bt *Batcher, tenant string, req Request) func() (Response, error) {
	t.Helper()
	var (
		mu   sync.Mutex
		resp Response
		err  error
		done bool
	)
	if eerr := bt.EnqueueAllocate(tenant, req, func(r Response, e error) {
		mu.Lock()
		resp, err, done = r, e, true
		mu.Unlock()
	}); eerr != nil {
		t.Fatalf("enqueue: %v", eerr)
	}
	return func() (Response, error) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			t.Fatal("result fetched before flush delivered it")
		}
		return resp, err
	}
}

// TestBatchSameGeneration is the coalescing guarantee: every request
// served by one flush is priced against the same snapshot fingerprint,
// and a monitoring republish between batches moves the whole next batch
// to the new fingerprint — never a mix.
func TestBatchSameGeneration(t *testing.T) {
	r := newRig(t, 21, loadgen.Config{})
	bt := NewBatcher(r.b, nil, BatcherOptions{MaxBatch: 64})

	const n = 24
	fetch := make([]func() (Response, error), n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			fetch[i] = collectAlloc(t, bt, fmt.Sprintf("tenant-%d", i%3), Request{Procs: 4, PPN: 4})
		}()
	}
	wg.Wait()
	if served := bt.Flush(); served != n {
		t.Fatalf("flush served %d of %d", served, n)
	}

	first, err := fetch[0]()
	if err != nil {
		t.Fatal(err)
	}
	if first.SnapshotFP == 0 {
		t.Fatal("response carries no snapshot fingerprint")
	}
	for i := 1; i < n; i++ {
		resp, err := fetch[i]()
		if err != nil {
			t.Fatal(err)
		}
		if resp.SnapshotFP != first.SnapshotFP {
			t.Fatalf("request %d priced against fp %x, batch started at %x", i, resp.SnapshotFP, first.SnapshotFP)
		}
	}

	// Republish monitoring data: the next batch must move to the new
	// generation wholesale.
	r.sched.RunFor(10 * time.Second)
	next := collectAlloc(t, bt, "", Request{Procs: 4, PPN: 4})
	if bt.Flush() != 1 {
		t.Fatal("second flush served nothing")
	}
	resp, err := next()
	if err != nil {
		t.Fatal(err)
	}
	if resp.SnapshotFP == first.SnapshotFP {
		t.Fatal("republished snapshot did not change the batch fingerprint")
	}
}

// TestBatchEquivalentToSequential is the bit-identical property: a
// seeded random request stream answered by AllocateBatch must equal the
// same stream answered by back-to-back Allocate calls on an identically
// built broker over the same store — every field, including repeated
// members, wait answers, and errors. The stream ends with repeated
// forced, plain and refused requests; at the second wait threshold
// every unforced request waits. A third identically built broker
// answers the stream over TCP, one request at a time from one client:
// the wire adds a batcher and an encoding, never a different decision.
func TestBatchEquivalentToSequential(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, waitLoad := range []float64{0, 1e-9} {
				t.Run(fmt.Sprintf("wait%g", waitLoad), func(t *testing.T) {
					batchEquivalentToSequential(t, seed, Config{Seed: 999, WaitLoadPerCore: waitLoad})
				})
			}
		})
	}
}

// batchEquivalentToSequential checks one seed's stream on three brokers
// built with cfg: sequential, batched and over the wire.
func batchEquivalentToSequential(t *testing.T, seed uint64, cfg Config) {
	r := newRig(t, seed, loadgen.Config{})
	seqB := New(r.st, r.sched, cfg)
	batB := New(r.st, r.sched, cfg)
	wireB := New(r.st, r.sched, cfg)

	policies := []string{"", "net-load-aware", "load-aware", "sequential", "random", "bogus"}
	rnd := rng.New(seed * 77)
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{
			Procs:   2 + int(rnd.Uint64()%8),
			PPN:     1 + int(rnd.Uint64()%4),
			Alpha:   float64(rnd.Uint64()%10) / 10,
			Policy:  policies[rnd.Uint64()%uint64(len(policies))],
			Force:   rnd.Uint64()%4 == 0,
			Explain: rnd.Uint64()%7 == 0,
		}
		if reqs[i].Alpha > 0 {
			reqs[i].Beta = 1 - reqs[i].Alpha
		}
		// Runs of identical requests: a batch prices each repeat.
		if i > 0 && rnd.Uint64()%3 == 0 {
			reqs[i] = reqs[i-1]
		}
	}
	reqs = append(reqs, Request{Procs: 6, PPN: 2, Force: true}, Request{Procs: 6, PPN: 2, Force: true},
		Request{Procs: 4}, Request{Procs: 4}, Request{Procs: -1, Force: true}, Request{Procs: -1, Force: true})

	want := make([]BatchResult, len(reqs))
	for i, req := range reqs {
		resp, err := seqB.Allocate(req)
		want[i] = BatchResult{Response: resp, Err: err}
	}
	got := batB.AllocateBatch(reqs)

	for i := range reqs {
		if (want[i].Err == nil) != (got[i].Err == nil) {
			t.Fatalf("req %d (%+v): sequential err=%v batched err=%v", i, reqs[i], want[i].Err, got[i].Err)
		}
		if want[i].Err != nil {
			if want[i].Err.Error() != got[i].Err.Error() {
				t.Fatalf("req %d: error text diverged: %q vs %q", i, want[i].Err, got[i].Err)
			}
			continue
		}
		if !reflect.DeepEqual(want[i].Response, got[i].Response) {
			t.Fatalf("req %d (%+v): responses diverged\nsequential: %+v\nbatched:    %+v",
				i, reqs[i], want[i].Response, got[i].Response)
		}
	}
	// Both paths must leave the same audit trail behind.
	if seqD, batD := seqB.Decisions(0), batB.Decisions(0); !reflect.DeepEqual(seqD, batD) {
		for i := range seqD {
			if i < len(batD) && !reflect.DeepEqual(seqD[i], batD[i]) {
				t.Fatalf("decision %d diverged\nsequential: %+v\nbatched:    %+v", i, seqD[i], batD[i])
			}
		}
		t.Fatalf("decision records diverged: sequential %d, batched %d", len(seqD), len(batD))
	}

	srv, err := NewServerOpts(wireB, nil, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, req := range reqs {
		resp, err := c.Allocate(req)
		if (want[i].Err == nil) != (err == nil) || (err != nil && err.Error() != want[i].Err.Error()) {
			t.Fatalf("req %d (%+v): in-process err=%v wire err=%v", i, req, want[i].Err, err)
		}
		w := want[i].Response
		if !reflect.DeepEqual(resp.Nodes, w.Nodes) || !reflect.DeepEqual(resp.Procs, w.Procs) ||
			resp.Recommendation != w.Recommendation || resp.SnapshotFP != w.SnapshotFP {
			t.Fatalf("req %d (%+v): wire answer diverged\nin-process: %+v\nwire:       %+v", i, req, w, resp)
		}
	}
	if !reflect.DeepEqual(seqB.Decisions(0), wireB.Decisions(0)) {
		t.Fatal("wire path left different decision records than in-process Allocate")
	}
}

// TestShedUnderBurst drives a burst far past the token bucket and queue
// bounds: the overflow gets explicit ShedError answers with a positive
// retry hint, the books balance exactly (admitted + shed == offered),
// and the obs counters agree with both.
func TestShedUnderBurst(t *testing.T) {
	r := newRig(t, 22, loadgen.Config{})
	bt := NewBatcher(r.b, nil, BatcherOptions{
		MaxBatch:  64,
		Admission: AdmissionConfig{TenantRate: 5, TenantBurst: 3, QueueDepth: 64},
	})

	const offered = 40
	admitted, shed := 0, 0
	for i := 0; i < offered; i++ {
		err := bt.EnqueueAllocate("bursty", Request{Procs: 4, PPN: 4}, func(Response, error) {})
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrShed):
			var se *ShedError
			if !errors.As(err, &se) {
				t.Fatalf("shed error has wrong concrete type: %T", err)
			}
			if se.RetryAfter <= 0 {
				t.Fatalf("shed without retry hint: %+v", se)
			}
			if se.Reason != "rate" {
				t.Fatalf("expected rate shed, got %q", se.Reason)
			}
			shed++
		default:
			t.Fatalf("unexpected enqueue error: %v", err)
		}
	}
	if admitted != 3 {
		t.Fatalf("burst admitted %d, want the burst allowance 3", admitted)
	}
	if admitted+shed != offered {
		t.Fatalf("books don't balance: admitted %d + shed %d != offered %d", admitted, shed, offered)
	}
	reg := r.b.Obs()
	if got := reg.Counter("broker.admit.admitted.total").Value(); got != uint64(admitted) {
		t.Fatalf("admitted counter %d, want %d", got, admitted)
	}
	if got := reg.Counter("broker.admit.shed.total").Value(); got != uint64(shed) {
		t.Fatalf("shed counter %d, want %d", got, shed)
	}
	if bt.Flush() != admitted {
		t.Fatal("flush did not serve the admitted burst")
	}

	// Virtual time passing refills the bucket at TenantRate.
	r.sched.RunFor(time.Second)
	refilled := 0
	for i := 0; i < 10; i++ {
		if bt.EnqueueAllocate("bursty", Request{Procs: 4}, func(Response, error) {}) == nil {
			refilled++
		}
	}
	if refilled != 3 {
		t.Fatalf("1s at rate 5 (burst cap 3) refilled %d admissions, want 3", refilled)
	}
}

// TestBatcherCloseFailsQueued: Close answers still-queued requests with
// ErrBatcherClosed and rejects later enqueues outright.
func TestBatcherCloseFailsQueued(t *testing.T) {
	r := newRig(t, 23, loadgen.Config{})
	bt := NewBatcher(r.b, nil, BatcherOptions{})
	var mu sync.Mutex
	var errs []error
	for i := 0; i < 5; i++ {
		if err := bt.EnqueueAllocate("", Request{Procs: 4}, func(_ Response, e error) {
			mu.Lock()
			errs = append(errs, e)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	bt.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(errs) != 5 {
		t.Fatalf("%d of 5 queued callbacks ran at close", len(errs))
	}
	for _, e := range errs {
		if !errors.Is(e, ErrBatcherClosed) {
			t.Fatalf("queued request failed with %v, want ErrBatcherClosed", e)
		}
	}
	if err := bt.EnqueueAllocate("", Request{Procs: 4}, nil); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("enqueue after close: %v", err)
	}
}

// TestServerCloseWithInflightBatches hammers a batching server from many
// pipelined clients and closes it mid-storm: every in-flight call must
// return (success or error) promptly — no goroutine may hang on a
// response that will never come.
func TestServerCloseWithInflightBatches(t *testing.T) {
	r := newRig(t, 24, loadgen.Config{})
	srv, err := NewServerOpts(r.b, nil, "127.0.0.1:0", ServerOptions{
		Batching: &BatcherOptions{MaxBatch: 16},
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 16
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr(), time.Second)
			if err != nil {
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Allocate(Request{Procs: 4, PPN: 4}); err != nil {
					return // server closing: any error is a valid unblock
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the storm build
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("clients still blocked 10s after server close")
	}
}

// TestConcurrentRefreshSweepsOnce holds what the snapshot cache promises
// concurrent callers: batches priced at once against a warmed, unchanged
// store all carry the one fingerprint, and none sweeps the store again.
// Each caller waits its turn in SnapshotCache.Refresh and takes the
// unchanged path.
func TestConcurrentRefreshSweepsOnce(t *testing.T) {
	r := newRig(t, 29, loadgen.Config{})
	warm, err := r.b.Allocate(Request{Procs: 4, PPN: 4, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := r.b.Obs()
	changed, unchanged := reg.Counter("monitor.snapcache.refresh.changed"), reg.Counter("monitor.snapcache.refresh.unchanged")
	swept, skipped := changed.Value(), unchanged.Value()

	const callers = 8
	reqs := []Request{{Procs: 4, PPN: 4, Force: true}, {Procs: 8, PPN: 4, Force: true, Policy: "load-aware"}}
	results := make([][]BatchResult, callers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			results[g] = r.b.AllocateBatch(reqs)
		}()
	}
	start.Done()
	wg.Wait()

	for g, res := range results {
		for i, br := range res {
			if br.Err != nil {
				t.Fatalf("caller %d request %d: %v", g, i, br.Err)
			}
			if br.Response.SnapshotFP != warm.SnapshotFP {
				t.Fatalf("caller %d request %d priced against fp %x, store unchanged at %x", g, i, br.Response.SnapshotFP, warm.SnapshotFP)
			}
		}
	}
	if got := changed.Value(); got != swept {
		t.Fatalf("unchanged store swept %d more times", got-swept)
	}
	if got := unchanged.Value() - skipped; got != callers {
		t.Fatalf("%d refreshes took the unchanged path, want one a caller (%d)", got, callers)
	}
}
