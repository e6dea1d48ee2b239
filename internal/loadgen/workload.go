// Workload specs describe the *submitted job* traffic of a cluster, the
// complement of this package's background load: multi-client cohorts
// whose interarrival gaps follow Poisson (exponential), Gamma, or
// Weibull renewal processes, optionally modulated by a diurnal
// hour-of-day shape, with walltime/size/priority distributions per
// cohort. A WorkloadGen expands a spec into a deterministic, seeded
// arrival stream that the internal/sim event loop schedules; the same
// (spec, seed, start) triple yields a byte-identical stream.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"nlarm/internal/rng"
)

// WorkloadVersion is the current workload-spec schema version. Specs
// recorded into trace headers carry it so future readers can reject or
// migrate old schemas explicitly instead of misparsing them.
const WorkloadVersion = 1

// Dist is a serializable scalar distribution, parameterized by its mean
// and coefficient of variation so specs read like workload papers
// ("mean 600s, CV 2") rather than like sampler internals.
type Dist struct {
	// Kind selects the sampler: "constant", "uniform", "exponential",
	// "gamma", "weibull", or "lognormal". Empty means constant.
	Kind string `json:"kind,omitempty"`
	// Mean is the target mean for every kind except uniform.
	Mean float64 `json:"mean,omitempty"`
	// CV is the coefficient of variation (stddev/mean) for gamma,
	// weibull, and lognormal. Exponential has CV 1 by definition.
	CV float64 `json:"cv,omitempty"`
	// Min/Max bound a uniform distribution; for every other kind they
	// clamp samples when non-zero (Max 0 = no cap).
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
}

// IsZero reports whether the Dist is entirely unset.
func (d Dist) IsZero() bool { return d == Dist{} }

// Sampler draws values from a compiled distribution.
type Sampler func(r *rng.Rand) float64

// weibullShapeCache memoizes weibullShapeForCV by the CV's bit pattern:
// a sweep re-compiles the same workload spec once per run, and the
// 200-step bisection with two Gamma evaluations per step is by far the
// most expensive part. sync.Map because sweep workers compile
// concurrently.
var weibullShapeCache sync.Map

// weibullShapeForCV solves CV^2 = Gamma(1+2/k)/Gamma(1+1/k)^2 - 1 for the
// Weibull shape k by bisection. CV is decreasing in k; the bracket covers
// CV from ~0.005 (k=200) to ~190 (k=0.05). Solutions are memoized per CV.
func weibullShapeForCV(cv float64) (float64, error) {
	if v, ok := weibullShapeCache.Load(math.Float64bits(cv)); ok {
		return v.(float64), nil
	}
	k, err := weibullShapeSolve(cv)
	if err != nil {
		return 0, err
	}
	weibullShapeCache.Store(math.Float64bits(cv), k)
	return k, nil
}

// weibullShapeSolve is the uncached bisection behind weibullShapeForCV.
func weibullShapeSolve(cv float64) (float64, error) {
	cvOf := func(k float64) float64 {
		g1 := math.Gamma(1 + 1/k)
		g2 := math.Gamma(1 + 2/k)
		return math.Sqrt(g2/(g1*g1) - 1)
	}
	lo, hi := 0.05, 200.0
	if cv > cvOf(lo) || cv < cvOf(hi) {
		return 0, fmt.Errorf("loadgen: weibull CV %g out of supported range", cv)
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if cvOf(mid) > cv {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// Compile validates the distribution and returns its sampler. Specs are
// compiled once per generator, so per-sample cost stays at a few rng
// draws even for kinds whose parameters need numeric solving (weibull).
func (d Dist) Compile() (Sampler, error) {
	clamp := func(s Sampler) Sampler {
		lo, hi := d.Min, d.Max
		if lo == 0 && hi == 0 {
			return s
		}
		return func(r *rng.Rand) float64 {
			v := s(r)
			if v < lo {
				v = lo
			}
			if hi > 0 && v > hi {
				v = hi
			}
			return v
		}
	}
	switch d.Kind {
	case "", "constant":
		v := d.Mean
		return func(*rng.Rand) float64 { return v }, nil
	case "uniform":
		if d.Max < d.Min {
			return nil, fmt.Errorf("loadgen: uniform with max %g < min %g", d.Max, d.Min)
		}
		lo, hi := d.Min, d.Max
		return func(r *rng.Rand) float64 { return r.Range(lo, hi) }, nil
	case "exponential":
		if d.Mean <= 0 {
			return nil, fmt.Errorf("loadgen: exponential needs mean > 0, got %g", d.Mean)
		}
		rate := 1 / d.Mean
		return clamp(func(r *rng.Rand) float64 { return r.Exp(rate) }), nil
	case "gamma":
		if d.Mean <= 0 || d.CV <= 0 {
			return nil, fmt.Errorf("loadgen: gamma needs mean > 0 and cv > 0, got mean %g cv %g", d.Mean, d.CV)
		}
		shape := 1 / (d.CV * d.CV)
		scale := d.Mean * d.CV * d.CV
		return clamp(func(r *rng.Rand) float64 { return r.Gamma(shape, scale) }), nil
	case "weibull":
		if d.Mean <= 0 || d.CV <= 0 {
			return nil, fmt.Errorf("loadgen: weibull needs mean > 0 and cv > 0, got mean %g cv %g", d.Mean, d.CV)
		}
		shape, err := weibullShapeForCV(d.CV)
		if err != nil {
			return nil, err
		}
		scale := d.Mean / math.Gamma(1+1/shape)
		return clamp(func(r *rng.Rand) float64 { return r.Weibull(shape, scale) }), nil
	case "lognormal":
		if d.Mean <= 0 || d.CV <= 0 {
			return nil, fmt.Errorf("loadgen: lognormal needs mean > 0 and cv > 0, got mean %g cv %g", d.Mean, d.CV)
		}
		sigma2 := math.Log(1 + d.CV*d.CV)
		mu := math.Log(d.Mean) - sigma2/2
		sigma := math.Sqrt(sigma2)
		return clamp(func(r *rng.Rand) float64 { return r.LogNormal(mu, sigma) }), nil
	default:
		return nil, fmt.Errorf("loadgen: unknown distribution kind %q", d.Kind)
	}
}

// Cohort is one class of submitting clients: a population of identical
// independent streams sharing arrival and job-shape distributions.
type Cohort struct {
	// Name labels the cohort in traces and reports.
	Name string `json:"name"`
	// Clients is the number of independent submission streams (default 1).
	Clients int `json:"clients,omitempty"`
	// Jobs is the total number of jobs the cohort submits across all its
	// clients.
	Jobs int `json:"jobs"`
	// Interarrival is the per-client gap distribution in seconds
	// ("exponential" makes each client a Poisson process; "gamma" and
	// "weibull" give burstier or more regular renewal processes). When
	// DailyJobs is set, Interarrival.Mean may be left 0 — it is derived
	// so the cohort as a whole submits DailyJobs per day in expectation.
	Interarrival Dist `json:"interarrival"`
	// DailyJobs, when > 0, sets the cohort-wide submission rate in jobs
	// per day (overrides Interarrival.Mean).
	DailyJobs float64 `json:"daily_jobs,omitempty"`
	// Hourly is an optional 24-entry diurnal weight vector (hour 0-23,
	// any non-negative scale, not all zero): arrivals speed up in heavy
	// hours and slow down in light ones while the total daily rate is
	// preserved. Nil means a flat day.
	Hourly []float64 `json:"hourly,omitempty"`
	// Procs is the distribution of requested process counts (rounded,
	// floor 1).
	Procs Dist `json:"procs"`
	// PPN is processes per node for the cohort (default 4).
	PPN int `json:"ppn,omitempty"`
	// Walltime is the user walltime estimate in seconds (scheduling
	// input). Zero-valued means no estimate — such jobs never backfill.
	Walltime Dist `json:"walltime,omitempty"`
	// Service is the true run time in seconds. Zero-valued means service
	// equals the sampled walltime (users who estimate exactly).
	Service Dist `json:"service,omitempty"`
	// Priority is the queue-priority distribution (rounded; higher runs
	// first). Zero-valued means priority 0.
	Priority Dist `json:"priority,omitempty"`
}

// Workload is a versioned multi-cohort job-traffic spec. It marshals to
// JSON for spec files and trace headers.
type Workload struct {
	Version int      `json:"version"`
	Name    string   `json:"name,omitempty"`
	Cohorts []Cohort `json:"cohorts"`
}

// TotalJobs returns the job count summed over cohorts.
func (w Workload) TotalJobs() int {
	n := 0
	for _, c := range w.Cohorts {
		n += c.Jobs
	}
	return n
}

// Validate checks the spec without compiling samplers for every field.
func (w Workload) Validate() error {
	if w.Version != WorkloadVersion {
		return fmt.Errorf("loadgen: workload version %d, this build reads version %d", w.Version, WorkloadVersion)
	}
	if len(w.Cohorts) == 0 {
		return fmt.Errorf("loadgen: workload has no cohorts")
	}
	for i, c := range w.Cohorts {
		if c.Jobs <= 0 {
			return fmt.Errorf("loadgen: cohort %d (%q): jobs must be positive", i, c.Name)
		}
		if c.Clients < 0 {
			return fmt.Errorf("loadgen: cohort %d (%q): negative clients", i, c.Name)
		}
		if c.DailyJobs <= 0 && c.Interarrival.Mean <= 0 && c.Interarrival.Kind != "uniform" {
			return fmt.Errorf("loadgen: cohort %d (%q): needs daily_jobs or interarrival.mean", i, c.Name)
		}
		if c.Interarrival.Kind == "uniform" && c.Interarrival.Min < 0 {
			return fmt.Errorf("loadgen: cohort %d (%q): negative interarrival.min %g", i, c.Name, c.Interarrival.Min)
		}
		if c.Hourly != nil {
			if len(c.Hourly) != 24 {
				return fmt.Errorf("loadgen: cohort %d (%q): hourly needs 24 entries, got %d", i, c.Name, len(c.Hourly))
			}
			sum := 0.0
			for h, v := range c.Hourly {
				if v < 0 {
					return fmt.Errorf("loadgen: cohort %d (%q): negative hourly weight at hour %d", i, c.Name, h)
				}
				sum += v
			}
			if sum <= 0 {
				return fmt.Errorf("loadgen: cohort %d (%q): hourly weights all zero", i, c.Name)
			}
		}
	}
	return nil
}

// ParseWorkload decodes and validates a JSON workload spec.
func ParseWorkload(data []byte) (Workload, error) {
	var w Workload
	if err := json.Unmarshal(data, &w); err != nil {
		return Workload{}, fmt.Errorf("loadgen: parse workload: %w", err)
	}
	if err := w.Validate(); err != nil {
		return Workload{}, err
	}
	return w, nil
}

// SinusoidHourly builds a 24-hour diurnal weight vector: a sinusoid of
// the given amplitude (0 <= a < 1) peaking at peakHour, like the
// background generator's diurnal cycle.
func SinusoidHourly(amplitude, peakHour float64) []float64 {
	w := make([]float64, 24)
	for h := range w {
		phase := 2 * math.Pi * (float64(h) + 0.5 - peakHour) / 24
		w[h] = 1 + amplitude*math.Cos(phase)
	}
	return w
}

// Arrival is one generated job submission.
type Arrival struct {
	// At is the submission instant.
	At time.Time
	// Seq is the global arrival index (0-based), the stable tie-break for
	// simultaneous submissions.
	Seq int
	// Cohort and Client identify the submitting stream.
	Cohort string
	Client int
	// Procs/PPN/Priority shape the request.
	Procs    int
	PPN      int
	Priority int
	// Walltime is the user estimate (0 = none); Service the true run time.
	Walltime time.Duration
	Service  time.Duration
}

// clientStream is one client's renewal process.
type clientStream struct {
	cohort int
	client int
	next   float64 // seconds since start
	rnd    *rng.Rand
}

// compiledCohort holds a cohort's compiled samplers and diurnal shape.
type compiledCohort struct {
	spec      Cohort
	remaining int
	gap       Sampler
	procs     Sampler
	walltime  Sampler
	service   Sampler
	priority  Sampler
	// hourly is the normalized (mean 1) diurnal rate vector, nil if flat;
	// dayCap is the operational time one whole day of it holds.
	hourly []float64
	dayCap float64
}

// WorkloadGen expands a Workload into a merged, time-ordered arrival
// stream. It is deterministic: client streams are seeded in canonical
// (cohort, client) order from a single root, and simultaneous arrivals
// break ties by (cohort index, client index). Not safe for concurrent
// use.
type WorkloadGen struct {
	start   time.Time
	cohorts []compiledCohort
	// streams is a binary min-heap ordered by (next, cohort, client).
	streams []clientStream
	seq     int
}

// NewWorkloadGen compiles w and seeds its client streams. The same
// (w, start, seed) triple yields an identical stream.
func NewWorkloadGen(w Workload, start time.Time, seed uint64) (*WorkloadGen, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(seed)
	g := &WorkloadGen{start: start}
	for ci, c := range w.Cohorts {
		clients := c.Clients
		if clients <= 0 {
			clients = 1
		}
		ia := c.Interarrival
		if ia.Kind == "" {
			ia.Kind = "exponential"
		}
		if c.DailyJobs > 0 {
			// Cohort rate R jobs/day split over the clients: per-client
			// mean gap = clients * 86400 / R seconds.
			ia.Mean = float64(clients) * 86400 / c.DailyJobs
		}
		cc := compiledCohort{spec: c, remaining: c.Jobs}
		var err error
		if cc.gap, err = ia.Compile(); err != nil {
			return nil, fmt.Errorf("loadgen: cohort %q interarrival: %w", c.Name, err)
		}
		if cc.procs, err = c.Procs.Compile(); err != nil {
			return nil, fmt.Errorf("loadgen: cohort %q procs: %w", c.Name, err)
		}
		if cc.walltime, err = c.Walltime.Compile(); err != nil {
			return nil, fmt.Errorf("loadgen: cohort %q walltime: %w", c.Name, err)
		}
		if !c.Service.IsZero() {
			if cc.service, err = c.Service.Compile(); err != nil {
				return nil, fmt.Errorf("loadgen: cohort %q service: %w", c.Name, err)
			}
		}
		if cc.priority, err = c.Priority.Compile(); err != nil {
			return nil, fmt.Errorf("loadgen: cohort %q priority: %w", c.Name, err)
		}
		if c.Hourly != nil {
			sum := 0.0
			for _, v := range c.Hourly {
				sum += v
			}
			cc.hourly = make([]float64, 24)
			for h, v := range c.Hourly {
				cc.hourly[h] = v * 24 / sum
				cc.dayCap += cc.hourly[h] * 3600
			}
		}
		g.cohorts = append(g.cohorts, cc)
		for cl := 0; cl < clients; cl++ {
			g.schedule(clientStream{cohort: ci, client: cl, rnd: root.Split()})
		}
	}
	return g, nil
}

// horizon is the latest offset from the start, in seconds, that a
// time.Duration can hold (about 292 years). A stream whose next arrival
// falls past it ends there.
const horizon = float64(math.MaxInt64 / int64(time.Second))

// seconds converts s seconds to a time.Duration, saturating at the
// largest one past horizon (and on NaN) instead of wrapping.
func seconds(s float64) time.Duration {
	if !(s < horizon) {
		return math.MaxInt64
	}
	return time.Duration(s * float64(time.Second))
}

// schedule draws st's next gap and puts the stream back on the heap,
// unless that arrival falls past horizon (or is not a number), which
// retires the stream.
func (g *WorkloadGen) schedule(st clientStream) {
	st.next = g.warp(st.cohort, st.next, g.cohorts[st.cohort].gap(st.rnd))
	if st.next <= horizon {
		g.pushStream(st)
	}
}

// warp maps an operational-time gap (seconds at unit rate) starting at
// offset from (seconds since start) into wall seconds under the cohort's
// piecewise-constant diurnal rate. With a flat shape it is the identity;
// otherwise heavy hours consume operational time faster than wall time,
// preserving the daily integral (the rate vector has mean 1). Any 24
// hours hold dayCap, so a gap of two days or more skips all but the last
// whole day at once, and the hour-by-hour walk stops past horizon.
func (g *WorkloadGen) warp(cohort int, from, gap float64) float64 {
	c := &g.cohorts[cohort]
	if c.hourly == nil {
		return from + gap
	}
	t := from
	if days := math.Floor(gap/c.dayCap) - 1; days > 0 {
		t += days * 86400
		gap -= days * c.dayCap
	}
	for gap > 0 && t <= horizon {
		abs := g.start.Add(seconds(t))
		hour := abs.Hour()
		rate := c.hourly[hour]
		// Wall seconds to the next hour boundary.
		boundary := 3600 - (float64(abs.Minute()*60+abs.Second()) + float64(abs.Nanosecond())/1e9)
		if boundary <= 0 {
			boundary = 3600
		}
		if rate <= 0 {
			t += boundary // dead hour: skip it without consuming the gap
			continue
		}
		if capacity := rate * boundary; gap > capacity {
			gap -= capacity
			t += boundary
		} else {
			t += gap / rate
			gap = 0
		}
	}
	return t
}

// pushStream inserts st into the heap.
func (g *WorkloadGen) pushStream(st clientStream) {
	g.streams = append(g.streams, st)
	i := len(g.streams) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !streamLess(g.streams[i], g.streams[p]) {
			break
		}
		g.streams[i], g.streams[p] = g.streams[p], g.streams[i]
		i = p
	}
}

// popStream removes and returns the earliest stream.
func (g *WorkloadGen) popStream() clientStream {
	top := g.streams[0]
	last := len(g.streams) - 1
	g.streams[0] = g.streams[last]
	g.streams = g.streams[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(g.streams) && streamLess(g.streams[l], g.streams[small]) {
			small = l
		}
		if r < len(g.streams) && streamLess(g.streams[r], g.streams[small]) {
			small = r
		}
		if small == i {
			break
		}
		g.streams[i], g.streams[small] = g.streams[small], g.streams[i]
		i = small
	}
	return top
}

// streamLess orders streams by (next arrival, cohort, client).
func streamLess(a, b clientStream) bool {
	if a.next != b.next {
		return a.next < b.next
	}
	if a.cohort != b.cohort {
		return a.cohort < b.cohort
	}
	return a.client < b.client
}

// Next returns the next arrival in time order, or ok=false when every
// cohort has submitted its job budget.
func (g *WorkloadGen) Next() (Arrival, bool) {
	for len(g.streams) > 0 {
		st := g.popStream()
		c := &g.cohorts[st.cohort]
		if c.remaining <= 0 {
			continue // cohort budget exhausted: retire the stream
		}
		c.remaining--
		a := Arrival{
			At:     g.start.Add(seconds(st.next)),
			Seq:    g.seq,
			Cohort: c.spec.Name,
			Client: st.client,
			PPN:    c.spec.PPN,
		}
		g.seq++
		if a.PPN <= 0 {
			a.PPN = 4
		}
		if p := int(math.Round(c.procs(st.rnd))); p > 1 {
			a.Procs = p
		} else {
			a.Procs = 1
		}
		wt := c.walltime(st.rnd)
		if wt > 0 {
			a.Walltime = seconds(wt)
		}
		svc := wt
		if c.service != nil {
			svc = c.service(st.rnd)
		}
		if svc <= 0 {
			svc = 1
		}
		a.Service = seconds(svc)
		a.Priority = int(math.Round(c.priority(st.rnd)))
		if c.remaining > 0 {
			g.schedule(st)
		}
		return a, true
	}
	return Arrival{}, false
}
