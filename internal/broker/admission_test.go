package broker

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"nlarm/internal/loadgen"
	"nlarm/internal/rng"
)

// jain computes the Jain fairness index over per-tenant served counts:
// 1.0 is perfectly fair, 1/n is maximally unfair.
func jain(xs ...float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// TestFairnessJainIndex is the headline fairness property: a hog tenant
// offering 10x the load of a meek tenant must not crowd the meek tenant
// out. Whenever both have work queued, the round robin splits each
// batch evenly, so served throughput
// lands within epsilon of half/half (Jain index >= 0.95) across seeds
// and arrival orders.
func TestFairnessJainIndex(t *testing.T) {
	for _, seed := range []uint64{3, 11, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := newRig(t, seed, loadgen.Config{})
			bt := NewBatcher(r.b, nil, BatcherOptions{
				MaxBatch: 4,
				// No rate limit: fairness must come from the round-robin dequeue
				// alone. The bounded queue sheds the hog's excess backlog.
				Admission: AdmissionConfig{QueueDepth: 8},
			})

			served := map[string]int{}
			record := func(tenant string) func(Response, error) {
				return func(_ Response, err error) {
					if err == nil {
						served[tenant]++ // Flush runs callbacks on this goroutine
					}
				}
			}

			// Each round the hog offers 20 and the meek offers 2 against a
			// batch capacity of 4 — the meek's offered load exactly equals
			// its fair share. Arrival order is shuffled per seed so the
			// result cannot depend on who enqueues first.
			const rounds = 50
			rnd := rng.New(seed)
			req := Request{Procs: 4, PPN: 4}
			for round := 0; round < rounds; round++ {
				arrivals := make([]string, 0, 22)
				for i := 0; i < 20; i++ {
					arrivals = append(arrivals, "hog")
				}
				arrivals = append(arrivals, "meek", "meek")
				for i := len(arrivals) - 1; i > 0; i-- {
					j := int(rnd.Uint64() % uint64(i+1))
					arrivals[i], arrivals[j] = arrivals[j], arrivals[i]
				}
				for _, tenant := range arrivals {
					err := bt.EnqueueAllocate(tenant, req, record(tenant))
					if err != nil && !errors.Is(err, ErrShed) {
						t.Fatalf("enqueue: %v", err)
					}
				}
				bt.Flush()
			}
			for bt.QueueDepth() > 0 {
				bt.Flush()
			}

			hog, meek := float64(served["hog"]), float64(served["meek"])
			if meek == 0 {
				t.Fatal("meek tenant starved outright")
			}
			if idx := jain(hog, meek); idx < 0.95 {
				t.Fatalf("Jain index %.4f < 0.95 (hog served %v, meek served %v)", idx, hog, meek)
			}
			if ratio := hog / (hog + meek); ratio > 0.6 {
				t.Fatalf("hog took %.0f%% of admitted throughput, want ~half", 100*ratio)
			}

			// The obs per-tenant served counters must tell the same story
			// the callbacks did.
			reg := r.b.Obs()
			for tenant, n := range served {
				if got := reg.Counter("broker.batch.served.tenant." + tenant).Value(); got != uint64(n) {
					t.Fatalf("served counter for %s = %d, callbacks saw %d", tenant, got, n)
				}
			}
		})
	}
}

// TestShedQueueFull pins the queue-depth bound: with rate limiting off,
// the (depth+1)-th pending request for a tenant sheds with reason
// "queue-full" and a positive retry hint, while another tenant's queue
// is unaffected.
func TestShedQueueFull(t *testing.T) {
	r := newRig(t, 13, loadgen.Config{})
	bt := NewBatcher(r.b, nil, BatcherOptions{
		MaxBatch:  64,
		Admission: AdmissionConfig{QueueDepth: 4},
	})
	for i := 0; i < 4; i++ {
		if err := bt.EnqueueAllocate("full", Request{Procs: 4}, func(Response, error) {}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	err := bt.EnqueueAllocate("full", Request{Procs: 4}, func(Response, error) {})
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "queue-full" || se.RetryAfter <= 0 {
		t.Fatalf("overflow enqueue: got %v, want queue-full shed with retry hint", err)
	}
	if got := r.b.Obs().Counter("broker.admit.shed.queue-full").Value(); got != 1 {
		t.Fatalf("queue-full shed counter = %d, want 1", got)
	}
	// A different tenant still has a whole queue of its own.
	if err := bt.EnqueueAllocate("other", Request{Procs: 4}, func(Response, error) {}); err != nil {
		t.Fatalf("independent tenant shed by a full neighbor: %v", err)
	}
}

// TestShedErrorMatching pins the error-matching contract shed handling
// is built on: errors.Is selects ErrShed through wrapping, errors.As
// recovers the retry hint, and non-shed errors do not match.
func TestShedErrorMatching(t *testing.T) {
	se := &ShedError{Tenant: "t", RetryAfter: 20 * time.Millisecond, Reason: "rate"}
	if !errors.Is(se, ErrShed) {
		t.Fatal("ShedError does not match ErrShed")
	}
	wrapped := fmt.Errorf("front door: %w", se)
	if !errors.Is(wrapped, ErrShed) {
		t.Fatal("wrapped ShedError does not match ErrShed")
	}
	var out *ShedError
	if !errors.As(wrapped, &out) || out.RetryAfter != 20*time.Millisecond {
		t.Fatal("errors.As lost the retry hint through wrapping")
	}
	if errors.Is(errors.New("broker: request shed"), ErrShed) {
		t.Fatal("string twin must not match the sentinel")
	}
	if errors.Is(ErrBatcherClosed, ErrShed) {
		t.Fatal("batcher-closed must not read as shed")
	}
}

// TestWRRDeterministic: the round-robin dequeue is a pure function of
// the arrival sequence — two admissions fed identically drain
// identically, which the batched/sequential equivalence property quietly
// depends on.
func TestWRRDeterministic(t *testing.T) {
	build := func() *admission {
		a := newAdmission(AdmissionConfig{QueueDepth: 64})
		now := time.Unix(1000, 0)
		for i := 0; i < 30; i++ {
			tenant := []string{"c", "a", "b"}[i%3]
			if shed := a.admit(&pendingItem{tenant: tenant, alloc: &Request{Procs: i}}, now); shed != nil {
				t.Fatalf("unexpected shed: %v", shed)
			}
		}
		return a
	}
	drainOrder := func(a *admission) []int {
		var got []int
		for {
			items := a.dequeue(7)
			if len(items) == 0 {
				return got
			}
			for _, it := range items {
				got = append(got, it.alloc.Procs)
			}
		}
	}
	first := drainOrder(build())
	second := drainOrder(build())
	if len(first) != 30 {
		t.Fatalf("drained %d of 30", len(first))
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("dequeue order not deterministic:\n%v\n%v", first, second)
	}
	// One item per tenant per sweep, tenants in sorted-name order: the
	// first sweep takes a's, b's and c's oldest items (arrivals 1, 2, 0).
	if want := []int{1, 2, 0}; !reflect.DeepEqual(first[:3], want) {
		t.Fatalf("first round-robin sweep took %v, want %v", first[:3], want)
	}
}

// TestBurstDefaultRounding pins the TenantBurst default to
// max(1, ceil(TenantRate)). The old int(rate+0.999) rounding collapsed
// fractional rates just above an integer (1.0005 → 1) and overflowed
// nothing, but mis-sized the bucket for exactly the tenants whose rate
// was not integral.
func TestBurstDefaultRounding(t *testing.T) {
	cases := []struct {
		rate  float64
		burst int
	}{
		{0, 1},      // no rate limit still gets a 1-token bucket
		{0.25, 1},   // sub-1 rates keep the floor
		{1, 1},      // exact integers are untouched
		{1.0005, 2}, // just-above-integer rates round up, not down
		{2.5, 3},    // plain fractional
		{1000.25, 1001},
	}
	for _, c := range cases {
		got := AdmissionConfig{TenantRate: c.rate}.withDefaults().TenantBurst
		if got != c.burst {
			t.Errorf("rate %g: burst %d, want %d", c.rate, got, c.burst)
		}
	}
	// An explicit burst always wins over the derived default.
	if got := (AdmissionConfig{TenantRate: 9.5, TenantBurst: 2}).withDefaults().TenantBurst; got != 2 {
		t.Errorf("explicit burst overridden: got %d", got)
	}
}

// TestRateShedRetryAfter pins the rate-shed retry hint: with the bucket
// drained to a known level, RetryAfter is the time for the missing
// token fraction to refill at TenantRate, floored at 1ms.
func TestRateShedRetryAfter(t *testing.T) {
	now := t0
	a := newAdmission(AdmissionConfig{TenantRate: 2}) // burst 2
	item := func() *pendingItem { return &pendingItem{tenant: "a", alloc: &Request{Procs: 2}} }
	// Drain the burst allowance at a frozen clock.
	for i := 0; i < 2; i++ {
		if shed := a.admit(item(), now); shed != nil {
			t.Fatalf("burst request %d shed: %v", i, shed)
		}
	}
	// tokens == 0: one full token at 2 req/s takes 500ms.
	shed := a.admit(item(), now)
	if shed == nil || shed.Reason != "rate" {
		t.Fatalf("expected rate shed, got %+v", shed)
	}
	if d := shed.RetryAfter - 500*time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("RetryAfter = %v, want 500ms", shed.RetryAfter)
	}
	// 400ms later the bucket holds 0.8 tokens: 0.2 missing → 100ms.
	shed = a.admit(item(), now.Add(400*time.Millisecond))
	if shed == nil || shed.Reason != "rate" {
		t.Fatalf("expected rate shed, got %+v", shed)
	}
	if d := shed.RetryAfter - 100*time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("RetryAfter = %v, want 100ms", shed.RetryAfter)
	}
	// Nearly refilled: the hint never drops below the 1ms floor.
	shed = a.admit(item(), now.Add(499999*time.Microsecond))
	if shed == nil {
		t.Fatal("expected rate shed just before refill")
	}
	if shed.RetryAfter < time.Millisecond {
		t.Fatalf("RetryAfter = %v, want >= 1ms floor", shed.RetryAfter)
	}
}
