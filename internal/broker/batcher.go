package broker

import "sync"

// BatcherOptions tunes the batched front door.
type BatcherOptions struct {
	// MaxBatch caps how many requests one dispatch prices against a
	// single snapshot generation. Default 256.
	MaxBatch int
	// Admission configures the token-bucket + fairness front end.
	Admission AdmissionConfig
}

func (o BatcherOptions) withDefaults() BatcherOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	return o
}

// Batcher coalesces allocate and submit requests and prices each batch
// against a single snapshot generation (one snapshot refresh and one
// cost-model fetch amortized across the batch, sequential in-batch
// application so stateful policies and Equation-3 reservations stay
// consistent). Requests pass per-tenant token-bucket admission on entry
// and are dequeued round-robin across tenants, so one hot tenant cannot
// starve the rest; rejected requests get an explicit
// *ShedError with a retry hint instead of silently queuing forever.
//
// A Batcher is driven either by Start (a dispatcher goroutine, what the
// Server uses) or by explicit Flush calls (what deterministic tests
// use). Both apply batches on one goroutine at a time.
type Batcher struct {
	b    *Broker
	mgr  Manager // optional; nil rejects submits
	opts BatcherOptions
	// afterBatch, when set, runs after each batch's callbacks have all
	// been invoked — the server uses it to flush per-connection write
	// buffers once per batch instead of once per response.
	afterBatch func()

	mu     sync.Mutex
	cond   *sync.Cond
	adm    *admission
	closed bool

	flushMu sync.Mutex // serializes Flush bodies against each other
	// allocReqs and allocItems are Flush's per-batch lists, reused under
	// flushMu.
	allocReqs  []Request
	allocItems []*pendingItem
	wg         sync.WaitGroup
}

// NewBatcher builds a batcher over b. mgr may be nil, in which case
// submit enqueues are rejected (matching a Server with no Manager).
func NewBatcher(b *Broker, mgr Manager, opts BatcherOptions) *Batcher {
	bt := &Batcher{b: b, mgr: mgr, opts: opts.withDefaults(), adm: newAdmission(opts.Admission)}
	bt.cond = sync.NewCond(&bt.mu)
	return bt
}

// EnqueueAllocate admits and queues one allocation request. done is
// called exactly once with the result — from a later Flush/dispatch, or
// with ErrBatcherClosed if the batcher shuts down first. A non-nil
// return (*ShedError or ErrBatcherClosed) means the request was never
// queued and done will not be called.
func (bt *Batcher) EnqueueAllocate(tenant string, req Request, done func(Response, error)) error {
	r := req
	return bt.enqueue(&pendingItem{tenant: tenant, alloc: &r, doneAlloc: done})
}

// EnqueueSubmit admits and queues one job submission; semantics match
// EnqueueAllocate.
func (bt *Batcher) EnqueueSubmit(tenant string, req SubmitRequest, done func(int, error)) error {
	r := req
	return bt.enqueue(&pendingItem{tenant: tenant, submit: &r, doneSubmit: done})
}

func (bt *Batcher) enqueue(item *pendingItem) error {
	now := bt.b.rt.Now()
	bt.mu.Lock()
	if bt.closed {
		bt.mu.Unlock()
		return ErrBatcherClosed
	}
	shed := bt.adm.admit(item, now)
	depth := bt.adm.depth
	bt.mu.Unlock()
	obs := bt.b.obs
	obs.Gauge("broker.admit.queue.depth").Set(float64(depth))
	if shed != nil {
		bt.b.countShed(shed)
		return shed
	}
	obs.Counter("broker.admit.admitted.total").Inc()
	bt.cond.Signal()
	return nil
}

// countShed books one admission rejection: in total, by reason and by
// tenant, so the per-reason and the per-tenant counters each sum to the
// total.
func (b *Broker) countShed(shed *ShedError) {
	b.obs.Counter("broker.admit.shed.total").Inc()
	b.obs.Counter("broker.admit.shed." + shed.Reason).Inc()
	b.obs.Counter("broker.admit.shed.tenant." + tenantLabel(shed.Tenant)).Inc()
}

// QueueDepth reports the total number of queued requests (diagnostic).
func (bt *Batcher) QueueDepth() int {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	return bt.adm.depth
}

// Start launches the dispatcher goroutine. It returns immediately; stop
// it with Close.
func (bt *Batcher) Start() {
	bt.wg.Add(1)
	go bt.dispatch()
}

// dispatch prices whatever is queued the moment it frees up, so batches
// form naturally under load — while one batch is being applied, new
// arrivals coalesce behind it — and an idle server adds no latency.
func (bt *Batcher) dispatch() {
	defer bt.wg.Done()
	for {
		bt.mu.Lock()
		for bt.adm.depth == 0 && !bt.closed {
			bt.cond.Wait()
		}
		if bt.closed {
			bt.mu.Unlock()
			return
		}
		bt.mu.Unlock()
		bt.Flush()
	}
}

// Flush dequeues and applies one batch synchronously, returning how many
// requests it served. Safe to call concurrently with the dispatcher and
// with enqueues; batch application itself is serialized.
func (bt *Batcher) Flush() int {
	bt.flushMu.Lock()
	defer bt.flushMu.Unlock()

	bt.mu.Lock()
	items := bt.adm.dequeue(bt.opts.MaxBatch)
	depth := bt.adm.depth
	bt.mu.Unlock()
	if len(items) == 0 {
		return 0
	}
	obs := bt.b.obs
	obs.Gauge("broker.admit.queue.depth").Set(float64(depth))
	obs.Counter("broker.batch.flushes").Inc()
	obs.Histogram("broker.batch.size", 1, 2, 4, 8, 16, 32, 64, 128, 256, 512).Observe(float64(len(items)))

	// One snapshot generation for the whole batch: allocates are priced
	// in admission (round-robin) order against it. Submits only hand the job to
	// the manager here — their allocation happens at launch time — so
	// applying them after the batch's allocates does not change any
	// pricing, and keeps the allocate path a single tight loop.
	allocReqs, allocItems := bt.allocReqs[:0], bt.allocItems[:0]
	for _, item := range items {
		if item.alloc != nil {
			allocReqs = append(allocReqs, *item.alloc)
			allocItems = append(allocItems, item)
		}
	}
	if len(allocReqs) > 0 {
		results := bt.b.AllocateBatch(allocReqs)
		for i, item := range allocItems {
			obs.Counter("broker.batch.served.tenant." + tenantLabel(item.tenant)).Inc()
			item.doneAlloc(results[i].Response, results[i].Err)
		}
	}
	clear(allocItems) // served items are not kept alive until the next batch
	bt.allocReqs, bt.allocItems = allocReqs, allocItems
	for _, item := range items {
		if item.submit == nil {
			continue
		}
		obs.Counter("broker.batch.served.tenant." + tenantLabel(item.tenant)).Inc()
		if bt.mgr == nil {
			item.doneSubmit(0, errNoManager)
			continue
		}
		id, err := bt.mgr.Submit(*item.submit)
		item.doneSubmit(id, err)
	}
	if bt.afterBatch != nil {
		bt.afterBatch()
	}
	return len(items)
}

// Close stops the dispatcher and fails every still-queued request with
// ErrBatcherClosed. A batch already being applied completes first; Close
// returns once the dispatcher has exited and the queue is drained.
func (bt *Batcher) Close() {
	bt.mu.Lock()
	if bt.closed {
		bt.mu.Unlock()
		return
	}
	bt.closed = true
	bt.cond.Broadcast()
	bt.mu.Unlock()
	bt.wg.Wait()

	// The dispatcher is gone; any batch in a concurrent Flush finishes
	// under flushMu, then the leftovers are failed.
	bt.flushMu.Lock()
	defer bt.flushMu.Unlock()
	bt.mu.Lock()
	left := bt.adm.drain()
	bt.mu.Unlock()
	for _, item := range left {
		item.fail(ErrBatcherClosed)
	}
	if bt.afterBatch != nil && len(left) > 0 {
		bt.afterBatch()
	}
}

// tenantLabel maps the empty (default) tenant to a printable metrics
// label.
func tenantLabel(t string) string {
	if t == "" {
		return "default"
	}
	return t
}
