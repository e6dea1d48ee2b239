package broker

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// ErrShed is the sentinel error for admission-control rejections: the
// request was dropped before pricing because the tenant exceeded its
// token-bucket rate, its queue was full, or the connection had too many
// requests in flight. Callers match it with errors.Is; the concrete
// *ShedError carries the retry hint.
var ErrShed = errors.New("broker: request shed")

// ErrBatcherClosed is returned by Batcher enqueues after Close, and
// delivered to requests still queued when the batcher shut down.
var ErrBatcherClosed = errors.New("broker: batcher closed")

// ShedError reports an admission-control rejection. It unwraps to
// ErrShed, so errors.Is(err, ErrShed) selects every shed outcome
// regardless of the reason.
type ShedError struct {
	// Tenant is the rejected request's tenant label ("" = default).
	Tenant string
	// RetryAfter is the server's estimate of when capacity frees up:
	// the token bucket's next-token time for rate sheds, one batch
	// window's worth of drain for queue-full sheds. A hint, not a
	// reservation.
	RetryAfter time.Duration
	// Reason is "rate", "queue-full", or "inflight".
	Reason string
}

// Error formats the shed with its reason and retry hint.
func (e *ShedError) Error() string {
	return fmt.Sprintf("broker: request shed (%s, tenant %q, retry after %v)", e.Reason, e.Tenant, e.RetryAfter)
}

// Is reports that a ShedError matches the ErrShed sentinel.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// AdmissionConfig tunes the per-tenant token-bucket admission control in
// front of the batcher. The zero value admits everything (no rate limit,
// default queue depth) — admission only binds when configured.
type AdmissionConfig struct {
	// TenantRate is each tenant's sustained admission rate in requests
	// per second. 0 disables rate limiting.
	TenantRate float64
	// TenantBurst is the token-bucket size (instantaneous burst
	// allowance). Default: max(1, ceil(TenantRate)).
	TenantBurst int
	// QueueDepth bounds each tenant's pending queue; arrivals beyond it
	// are shed. Default 1024.
	QueueDepth int
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.TenantBurst <= 0 {
		// ceil(TenantRate), floored at 1. The old +0.999 trick
		// under-rounded fractional rates just above an integer (e.g.
		// 1.0005 → burst 1 instead of 2), which shrank the bucket and
		// inflated rate-shed RetryAfter hints for those tenants.
		c.TenantBurst = 1
		if b := math.Ceil(c.TenantRate); b > 1 {
			c.TenantBurst = int(b)
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

// pendingItem is one queued front-door request: exactly one of alloc or
// submit is set, and exactly one of the done callbacks is invoked once.
type pendingItem struct {
	tenant     string
	alloc      *Request
	submit     *SubmitRequest
	doneAlloc  func(Response, error)
	doneSubmit func(int, error)
}

// fail delivers err to whichever callback the item carries.
func (p *pendingItem) fail(err error) {
	if p.doneAlloc != nil {
		p.doneAlloc(Response{}, err)
	} else if p.doneSubmit != nil {
		p.doneSubmit(0, err)
	}
}

// tenantState is one tenant's token bucket and FIFO queue. All fields
// are guarded by the owning batcher's mutex.
type tenantState struct {
	name   string
	tokens float64
	last   time.Time
	queue  []*pendingItem
}

// admission is the token-bucket + round-robin front of the batcher. It
// has no lock of its own: every method must be called with the owning
// Batcher's mutex held, which keeps the bucket refill, the queue bounds,
// and the round-robin cursor consistent with the batcher's dispatch
// state.
type admission struct {
	cfg     AdmissionConfig
	tenants map[string]*tenantState
	order   []string // sorted tenant names: deterministic sweep order
	cursor  int      // round-robin position in order, persists across dequeues
	depth   int      // total queued items across tenants
}

func newAdmission(cfg AdmissionConfig) *admission {
	return &admission{cfg: cfg.withDefaults(), tenants: make(map[string]*tenantState)}
}

// state returns (creating if needed) the tenant's bucket and queue.
// New tenants start with a full burst allowance.
func (a *admission) state(tenant string, now time.Time) *tenantState {
	ts, ok := a.tenants[tenant]
	if !ok {
		ts = &tenantState{name: tenant, tokens: float64(a.cfg.TenantBurst), last: now}
		a.tenants[tenant] = ts
		i := sort.SearchStrings(a.order, tenant)
		a.order = append(a.order, "")
		copy(a.order[i+1:], a.order[i:])
		a.order[i] = tenant
		if i < a.cursor {
			a.cursor++ // keep the cursor on the tenant it pointed at
		}
	}
	return ts
}

// admit runs the token bucket and queue-depth checks for one arrival and
// either queues the item or returns the shed verdict. The caller owns
// delivering the ShedError to the request.
func (a *admission) admit(item *pendingItem, now time.Time) *ShedError {
	ts := a.state(item.tenant, now)
	if a.cfg.TenantRate > 0 {
		dt := now.Sub(ts.last).Seconds()
		if dt > 0 {
			ts.tokens += dt * a.cfg.TenantRate
			if max := float64(a.cfg.TenantBurst); ts.tokens > max {
				ts.tokens = max
			}
			ts.last = now
		}
		if ts.tokens < 1 {
			wait := time.Duration((1 - ts.tokens) / a.cfg.TenantRate * float64(time.Second))
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			return &ShedError{Tenant: item.tenant, RetryAfter: wait, Reason: "rate"}
		}
		ts.tokens--
	}
	if len(ts.queue) >= a.cfg.QueueDepth {
		// The queue drains one batch per dispatch; a full queue's retry
		// hint is one queue's worth of service at the tenant's rate, or a
		// nominal dispatch interval when no rate is configured.
		wait := 50 * time.Millisecond
		if a.cfg.TenantRate > 0 {
			wait = time.Duration(float64(a.cfg.QueueDepth) / a.cfg.TenantRate * float64(time.Second))
		}
		return &ShedError{Tenant: item.tenant, RetryAfter: wait, Reason: "queue-full"}
	}
	ts.queue = append(ts.queue, item)
	a.depth++
	return nil
}

// dequeue removes up to max items in round-robin order across tenant
// queues: each sweep visits tenants in sorted-name order starting at the
// persistent cursor, taking one item per tenant per sweep, so two
// tenants with backlogs split a batch evenly no matter how lopsided
// their offered load is.
func (a *admission) dequeue(max int) []*pendingItem {
	if max <= 0 || a.depth == 0 {
		return nil
	}
	var out []*pendingItem
	for len(out) < max && a.depth > 0 {
		progressed := false
		for range a.order {
			if len(out) >= max {
				break
			}
			name := a.order[a.cursor%len(a.order)]
			a.cursor = (a.cursor + 1) % len(a.order)
			ts := a.tenants[name]
			if len(ts.queue) == 0 {
				continue
			}
			item := ts.queue[0]
			copy(ts.queue, ts.queue[1:])
			ts.queue[len(ts.queue)-1] = nil
			ts.queue = ts.queue[:len(ts.queue)-1]
			out = append(out, item)
			a.depth--
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return out
}

// drain removes and returns every queued item (used at Close).
func (a *admission) drain() []*pendingItem {
	var out []*pendingItem
	for _, name := range a.order {
		ts := a.tenants[name]
		out = append(out, ts.queue...)
		ts.queue = nil
	}
	a.depth = 0
	return out
}
