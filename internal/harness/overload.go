package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nlarm/internal/broker"
	"nlarm/internal/rng"
	"nlarm/internal/store"
)

// OverloadConfig parameterizes the overload chaos scenario: a seeded
// multi-tenant burst generator drives the batched front door far past
// its admission limits while store faults degrade the monitoring data
// underneath it. Only the seed varies; the scenario's shape is the
// constants below, tuned so admission sheds heavily, the meek tenant is
// never starved, and a mid-run monitoring blackout forces degraded
// serves without ever tripping the degraded ceiling.
type OverloadConfig struct {
	// Seed drives the world, the request stream, and the store faults.
	Seed uint64
}

const (
	// overloadRounds is the number of offer/flush rounds.
	overloadRounds = 30
	// overloadRoundStep is the virtual time between rounds — it refills
	// token buckets and lets the monitor republish.
	overloadRoundStep = 2 * time.Second
	// overloadMaxBatch caps one flush, so backlogs persist across rounds
	// and fairness is actually contested.
	overloadMaxBatch = 16
	// overloadBlackoutRounds is how many mid-run rounds reject every
	// monitoring write so snapshots age past overloadSnapshotMaxAge and
	// the broker must serve degraded from last-good.
	overloadBlackoutRounds = 8
	// overloadSnapshotMaxAge is the broker staleness threshold, well under
	// the blackout length so degradation provably engages.
	overloadSnapshotMaxAge = 10 * time.Second
	// overloadMaxDegradedFraction is the ceiling on degraded serves as a
	// fraction of all served requests: degradation is expected during the
	// blackout, but fresh serves must dominate the run.
	overloadMaxDegradedFraction = 0.5
)

// overloadAdmission is the front-door config the scenario overloads.
var overloadAdmission = broker.AdmissionConfig{TenantRate: 8, TenantBurst: 8, QueueDepth: 32}

// overloadTenants is the offered load mix, in requests per round: a 10:1
// ratio against a much smaller admitted capacity.
var overloadTenants = []struct {
	name     string
	perRound int
}{{"hog", 40}, {"meek", 4}}

// OverloadReport is the outcome of RunOverload: exact request
// accounting, per-tenant service, and every invariant check.
type OverloadReport struct {
	Seed uint64

	// Offered = Admitted + Shed, exactly; Served + Failed = Admitted,
	// exactly — every request is accounted for, none answered twice.
	Offered  int
	Admitted int
	Shed     int
	Served   int
	Failed   int
	// Degraded counts served responses priced from the last-good snapshot
	// (monitoring blackout); RateSheds/QueueSheds split Shed by reason.
	Degraded   int
	RateSheds  int
	QueueSheds int

	ServedByTenant map[string]int
	ShedByTenant   map[string]int

	StoreFaults uint64

	// The scenario's core invariant is that the frozen registry's
	// counters reconcile exactly with the callback-side accounting above.
	checkedReport
}

// Render formats the report deterministically; two same-seed runs must
// produce identical bytes.
func (r *OverloadReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "overload seed=%d checks=%d\n", r.Seed, len(r.Checks))
	fmt.Fprintf(&b, "requests offered=%d admitted=%d shed=%d (rate=%d queue=%d) served=%d failed=%d degraded=%d\n",
		r.Offered, r.Admitted, r.Shed, r.RateSheds, r.QueueSheds, r.Served, r.Failed, r.Degraded)
	var tenants []string
	for t := range r.ServedByTenant {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		fmt.Fprintf(&b, "tenant %s served=%d shed=%d\n", t, r.ServedByTenant[t], r.ShedByTenant[t])
	}
	fmt.Fprintf(&b, "store faults=%d\n", r.StoreFaults)
	r.renderChecks(&b)
	r.renderMetrics(&b)
	return b.String()
}

// Digest hashes Render; see renderDigest.
func (r *OverloadReport) Digest() uint64 { return renderDigest(r.Render()) }

// RunOverload drives the batched, admission-controlled front door
// through a seeded overload burst with a mid-run monitoring blackout,
// and verifies the books balance exactly:
//
//   - offered == admitted + shed, and served + failed == admitted —
//     every request gets exactly one answer, enqueue-time or batch-time
//   - the obs admission/batch counters match the callback-side counts
//     (total, per shed reason, and per tenant)
//   - no admitted request fails: degradation falls back to the last-good
//     snapshot instead of erroring
//   - degraded serves stay under overloadMaxDegradedFraction, and every degraded
//     response names a reason
//   - every shed carries a positive retry-after hint
//   - the meek tenant is never starved: its served share is at least
//     half its fair share despite the 10:1 offered-load imbalance
//   - the queue fully drains and the depth gauge ends at zero
func RunOverload(cfg OverloadConfig) (*OverloadReport, error) {
	report := &OverloadReport{
		Seed:           cfg.Seed,
		ServedByTenant: map[string]int{},
		ShedByTenant:   map[string]int{},
	}

	// Faults stay quiet through the warm-up so the broker holds a healthy
	// last-good snapshot before the storm starts.
	s, fs, reg, err := newFaultSession(cfg.Seed, cfg.Seed^0xbf58476d1ce4e5b9,
		store.Rates{}, broker.Config{SnapshotMaxAge: overloadSnapshotMaxAge})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	sched, b := s.Sched, s.Broker
	bt := broker.NewBatcher(b, nil, broker.BatcherOptions{
		MaxBatch:  overloadMaxBatch,
		Admission: overloadAdmission,
	})
	defer bt.Close()

	sched.RunFor(30 * time.Second)
	if _, err := b.Allocate(broker.Request{Procs: 4, Force: true}); err != nil {
		return nil, fmt.Errorf("harness: overload warm-up allocation failed: %w", err)
	}
	fs.SetRates(store.Rates{TornWrite: 0.02, StaleRead: 0.05})

	start := sched.Now()
	offset := func() time.Duration { return sched.Now().Sub(start) }
	check := func(name string, ok bool, note string) {
		report.Checks = append(report.Checks, ChaosCheck{At: offset(), Name: name, Ok: ok, Note: note})
	}

	// The blackout sits mid-run: every monitoring Put is rejected outright
	// (PutError, not TornWrite — torn writes persist the value, so data
	// would stay fresh) long enough that node records age past
	// overloadSnapshotMaxAge and the broker must serve degraded.
	blackoutFrom := (overloadRounds - overloadBlackoutRounds) / 2
	blackoutTo := blackoutFrom + overloadBlackoutRounds

	rnd := rng.New(cfg.Seed * 31)
	shapes := [3]broker.Request{
		{Procs: 4, PPN: 4, Force: true},
		{Procs: 8, PPN: 4, Force: true},
		{Procs: 2, PPN: 2, Force: true},
	}
	badRetry, badReason, degradedUnnamed := 0, 0, 0
	for round := 0; round < overloadRounds; round++ {
		if round == blackoutFrom {
			fs.SetRates(store.Rates{PutError: 1})
		}
		if round == blackoutTo {
			fs.SetRates(store.Rates{TornWrite: 0.02, StaleRead: 0.05})
		}
		sched.RunFor(overloadRoundStep)
		for _, tn := range overloadTenants {
			tenant := tn.name
			for i := 0; i < tn.perRound; i++ {
				report.Offered++
				req := shapes[rnd.Uint64()%3]
				err := bt.EnqueueAllocate(tenant, req, func(resp broker.Response, err error) {
					if err != nil {
						report.Failed++
						return
					}
					report.Served++
					report.ServedByTenant[tenant]++
					if resp.Degraded {
						report.Degraded++
						if resp.DegradedReason == "" {
							degradedUnnamed++
						}
					}
				})
				if err == nil {
					report.Admitted++
					continue
				}
				shed, ok := err.(*broker.ShedError)
				if !ok {
					return nil, fmt.Errorf("harness: enqueue failed with non-shed error: %w", err)
				}
				report.Shed++
				report.ShedByTenant[tenant]++
				switch shed.Reason {
				case "rate":
					report.RateSheds++
				case "queue-full":
					report.QueueSheds++
				default:
					badReason++
				}
				if shed.RetryAfter <= 0 {
					badRetry++
				}
			}
		}
		bt.Flush()
	}
	// Drain the backlog: every admitted request must get its answer.
	for bt.QueueDepth() > 0 {
		bt.Flush()
	}

	// Exact request accounting — the front door loses nothing and answers
	// nothing twice.
	check("books-balance", report.Offered == report.Admitted+report.Shed,
		fmt.Sprintf("offered=%d admitted=%d shed=%d", report.Offered, report.Admitted, report.Shed))
	check("callbacks-complete", report.Served+report.Failed == report.Admitted,
		fmt.Sprintf("served=%d failed=%d admitted=%d", report.Served, report.Failed, report.Admitted))
	check("no-hard-failures", report.Failed == 0,
		fmt.Sprintf("failed=%d (degradation must fall back, not error)", report.Failed))
	check("sheds-carry-retry-hint", badRetry == 0, fmt.Sprintf("sheds without hint=%d", badRetry))
	check("shed-reasons-known", badReason == 0 && report.RateSheds+report.QueueSheds == report.Shed,
		fmt.Sprintf("rate=%d queue=%d unknown=%d of %d", report.RateSheds, report.QueueSheds, badReason, report.Shed))
	check("queue-drained", bt.QueueDepth() == 0, fmt.Sprintf("depth=%d", bt.QueueDepth()))

	// Degradation engaged during the blackout, named its reason every
	// time, and never dominated the run.
	check("degradation-engaged", report.Degraded > 0,
		fmt.Sprintf("degraded=%d (blackout rounds %d..%d)", report.Degraded, blackoutFrom, blackoutTo))
	check("degraded-reasons-named", degradedUnnamed == 0, fmt.Sprintf("unnamed=%d", degradedUnnamed))
	frac := 0.0
	if report.Served > 0 {
		frac = float64(report.Degraded) / float64(report.Served)
	}
	check("degraded-under-ceiling", frac <= overloadMaxDegradedFraction,
		fmt.Sprintf("fraction=%.3f ceiling=%.3f", frac, overloadMaxDegradedFraction))

	// Fairness under the overload: the meek tenant's service may not fall
	// below half its equal share of total served throughput.
	fairShare := float64(report.Served) / float64(len(overloadTenants))
	for _, tn := range overloadTenants {
		got := float64(report.ServedByTenant[tn.name])
		offered := float64(tn.perRound * overloadRounds)
		want := fairShare / 2
		if offered < want {
			want = offered // can't serve more than was asked
		}
		check("tenant-not-starved-"+tn.name, got >= want,
			fmt.Sprintf("served=%.0f floor=%.0f fairShare=%.1f", got, want, fairShare))
	}

	// Reconcile the obs counters with the callback-side accounting: both
	// paths count independently, so any drift is a bookkeeping bug.
	report.StoreFaults = fs.TotalFaults()
	report.freeze(fs, reg)
	ctr := report.Metrics.Counters
	checkCounter := func(name string, want uint64) {
		got := ctr[name]
		check("obs-"+name, got == want, fmt.Sprintf("counter=%d want=%d", got, want))
	}
	checkCounter("broker.admit.admitted.total", uint64(report.Admitted))
	checkCounter("broker.admit.shed.total", uint64(report.Shed))
	checkCounter("broker.admit.shed.rate", uint64(report.RateSheds))
	checkCounter("broker.admit.shed.queue-full", uint64(report.QueueSheds))
	for _, tn := range overloadTenants {
		checkCounter("broker.batch.served.tenant."+tn.name, uint64(report.ServedByTenant[tn.name]))
		checkCounter("broker.admit.shed.tenant."+tn.name, uint64(report.ShedByTenant[tn.name]))
	}
	// The warm-up allocation went through Allocate directly, not the
	// batcher, and it was served fresh — so the broker's degraded counter
	// must equal the batch-side degraded count exactly.
	checkCounter("broker.allocate.degraded", uint64(report.Degraded))
	depthGauge := report.Metrics.Gauges["broker.admit.queue.depth"]
	check("obs-queue-depth-zero", depthGauge == 0, fmt.Sprintf("gauge=%v", depthGauge))
	check("store-faults-injected", report.StoreFaults > 0,
		fmt.Sprintf("faults=%d", report.StoreFaults))

	return report, nil
}
