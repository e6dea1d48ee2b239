package loadgen

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"nlarm/internal/rng"
)

var wlStart = time.Date(2020, 3, 2, 0, 0, 0, 0, time.UTC)

// sampleMoments draws n values and returns the empirical mean and CV.
func sampleMoments(t *testing.T, d Dist, seed uint64, n int) (float64, float64) {
	t.Helper()
	s, err := d.Compile()
	if err != nil {
		t.Fatalf("compile %+v: %v", d, err)
	}
	r := rng.New(seed)
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s(r)
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance) / mean
}

// TestDistMoments checks that the compiled samplers hit the (mean, CV)
// the spec promises, across three seeds: Poisson interarrivals
// (exponential, CV 1 by definition), Gamma, Weibull, and lognormal.
func TestDistMoments(t *testing.T) {
	cases := []struct {
		name     string
		d        Dist
		wantMean float64
		wantCV   float64
	}{
		{"poisson-gaps", Dist{Kind: "exponential", Mean: 120}, 120, 1},
		{"gamma-bursty", Dist{Kind: "gamma", Mean: 300, CV: 2}, 300, 2},
		{"gamma-regular", Dist{Kind: "gamma", Mean: 60, CV: 0.5}, 60, 0.5},
		{"weibull-regular", Dist{Kind: "weibull", Mean: 200, CV: 0.7}, 200, 0.7},
		{"weibull-heavy", Dist{Kind: "weibull", Mean: 100, CV: 1.5}, 100, 1.5},
		{"lognormal", Dist{Kind: "lognormal", Mean: 900, CV: 1}, 900, 1},
	}
	const n = 200_000
	for _, tc := range cases {
		for _, seed := range []uint64{1, 42, 20260807} {
			mean, cv := sampleMoments(t, tc.d, seed, n)
			if rel := math.Abs(mean-tc.wantMean) / tc.wantMean; rel > 0.03 {
				t.Errorf("%s seed %d: mean %.2f, want %.2f (off %.1f%%)", tc.name, seed, mean, tc.wantMean, 100*rel)
			}
			if rel := math.Abs(cv-tc.wantCV) / tc.wantCV; rel > 0.06 {
				t.Errorf("%s seed %d: CV %.3f, want %.3f (off %.1f%%)", tc.name, seed, cv, tc.wantCV, 100*rel)
			}
		}
	}
}

// streamSpec is one client submitting jobs with interarrival gaps ia.
func streamSpec(name string, ia Dist, jobs int) Workload {
	return Workload{Version: WorkloadVersion, Cohorts: []Cohort{{
		Name: name, Clients: 1, Jobs: jobs,
		Interarrival: ia,
		Procs:        Dist{Kind: "constant", Mean: 1},
		Walltime:     Dist{Kind: "constant", Mean: 60},
	}}}
}

// TestStreamInterarrivalMoments measures the gaps of actual generated
// streams (single client, so the renewal process is observable) rather
// than raw sampler output.
func TestStreamInterarrivalMoments(t *testing.T) {
	cases := []struct {
		name string
		ia   Dist
		cv   float64
	}{
		{"poisson", Dist{Kind: "exponential", Mean: 90}, 1},
		{"gamma", Dist{Kind: "gamma", Mean: 90, CV: 1.8}, 1.8},
		{"weibull", Dist{Kind: "weibull", Mean: 90, CV: 0.6}, 0.6},
	}
	const jobs = 50_000
	for _, tc := range cases {
		for _, seed := range []uint64{7, 8, 9} {
			w := streamSpec(tc.name, tc.ia, jobs)
			g, err := NewWorkloadGen(w, wlStart, seed)
			if err != nil {
				t.Fatal(err)
			}
			var prev float64
			sum, sum2 := 0.0, 0.0
			count := 0
			for {
				a, ok := g.Next()
				if !ok {
					break
				}
				at := a.At.Sub(wlStart).Seconds()
				if count > 0 {
					gap := at - prev
					sum += gap
					sum2 += gap * gap
				}
				prev = at
				count++
			}
			if count != jobs {
				t.Fatalf("%s seed %d: generated %d arrivals, want %d", tc.name, seed, count, jobs)
			}
			n := float64(count - 1)
			mean := sum / n
			cv := math.Sqrt(sum2/n-mean*mean) / mean
			if rel := math.Abs(mean-tc.ia.Mean) / tc.ia.Mean; rel > 0.03 {
				t.Errorf("%s seed %d: gap mean %.2fs, want %.2fs", tc.name, seed, mean, tc.ia.Mean)
			}
			if rel := math.Abs(cv-tc.cv) / tc.cv; rel > 0.06 {
				t.Errorf("%s seed %d: gap CV %.3f, want %.3f", tc.name, seed, cv, tc.cv)
			}
		}
	}
}

// The daily rate and length of diurnalSpec.
const dailyJobs, days = 2400.0, 7

// diurnalSpec is a cohort pinned at dailyJobs per day with a strong
// afternoon peak.
func diurnalSpec() Workload {
	return Workload{Version: WorkloadVersion, Cohorts: []Cohort{{
		Name: "diurnal", Clients: 32, Jobs: int(dailyJobs) * days,
		Interarrival: Dist{Kind: "exponential"},
		DailyJobs:    dailyJobs,
		Hourly:       SinusoidHourly(0.8, 15),
		Procs:        Dist{Kind: "constant", Mean: 1},
		Walltime:     Dist{Kind: "constant", Mean: 60},
	}}}
}

// TestDiurnalDailyIntegral checks the diurnal warp preserves the daily
// rate: diurnalSpec must submit dailyJobs +/- Poisson noise in every
// simulated day, and visibly more in the peak hour than in the trough.
func TestDiurnalDailyIntegral(t *testing.T) {
	w := diurnalSpec()
	for _, seed := range []uint64{3, 14, 159} {
		g, err := NewWorkloadGen(w, wlStart, seed)
		if err != nil {
			t.Fatal(err)
		}
		perDay := make([]int, days+3)
		perHour := make([]int, 24)
		last := 0.0
		for {
			a, ok := g.Next()
			if !ok {
				break
			}
			sec := a.At.Sub(wlStart).Seconds()
			if sec < last {
				t.Fatalf("seed %d: arrivals out of order: %.3f after %.3f", seed, sec, last)
			}
			last = sec
			day := int(sec / 86400)
			if day >= len(perDay) {
				day = len(perDay) - 1
			}
			perDay[day]++
			perHour[a.At.Hour()]++
		}
		// Poisson noise on a daily count is sqrt(2400) ~ 49; allow 5 sigma.
		// The last generated day is truncated mid-day, so check full days.
		tol := 5 * math.Sqrt(dailyJobs)
		for d := 0; d+1 < days; d++ {
			if diff := math.Abs(float64(perDay[d]) - dailyJobs); diff > tol {
				t.Errorf("seed %d: day %d has %d arrivals, want %.0f +/- %.0f", seed, d, perDay[d], dailyJobs, tol)
			}
		}
		if perHour[15] <= 2*perHour[3] {
			t.Errorf("seed %d: peak hour 15 (%d arrivals) not dominating trough hour 3 (%d) with amplitude 0.8",
				seed, perHour[15], perHour[3])
		}
	}
}

// mixedSpec is two cohorts of bursty and regular renewal streams.
func mixedSpec() Workload {
	return Workload{Version: WorkloadVersion, Cohorts: []Cohort{
		{
			Name: "a", Clients: 8, Jobs: 2000,
			Interarrival: Dist{Kind: "gamma", Mean: 30, CV: 2},
			Procs:        Dist{Kind: "uniform", Min: 1, Max: 64},
			Walltime:     Dist{Kind: "lognormal", Mean: 600, CV: 1},
		},
		{
			Name: "b", Clients: 3, Jobs: 500,
			Interarrival: Dist{Kind: "weibull", Mean: 100, CV: 0.7},
			Procs:        Dist{Kind: "constant", Mean: 16},
			Priority:     Dist{Kind: "constant", Mean: 2},
		},
	}}
}

func TestWorkloadGenDeterminismAndOrdering(t *testing.T) {
	w := mixedSpec()
	gen := func(seed uint64) []Arrival {
		g, err := NewWorkloadGen(w, wlStart, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []Arrival
		for {
			a, ok := g.Next()
			if !ok {
				return out
			}
			out = append(out, a)
		}
	}
	run1, run2, other := gen(5), gen(5), gen(6)
	if len(run1) != w.TotalJobs() {
		t.Fatalf("generated %d arrivals, want %d", len(run1), w.TotalJobs())
	}
	for i := range run1 {
		if run1[i] != run2[i] {
			t.Fatalf("same-seed arrival %d differs: %+v vs %+v", i, run1[i], run2[i])
		}
		if run1[i].Seq != i {
			t.Fatalf("arrival %d has Seq %d", i, run1[i].Seq)
		}
		if i > 0 && run1[i].At.Before(run1[i-1].At) {
			t.Fatalf("arrival %d at %v before arrival %d at %v", i, run1[i].At, i-1, run1[i-1].At)
		}
		if run1[i].Procs < 1 || run1[i].Service <= 0 {
			t.Fatalf("arrival %d has procs %d service %v", i, run1[i].Procs, run1[i].Service)
		}
		if run1[i].Cohort == "b" && (run1[i].Priority != 2 || run1[i].Procs != 16) {
			t.Fatalf("cohort b arrival %d: priority %d procs %d", i, run1[i].Priority, run1[i].Procs)
		}
	}
	same := 0
	for i := range other {
		if other[i].At.Equal(run1[i].At) {
			same++
		}
	}
	if same == len(run1) {
		t.Fatalf("different seeds produced identical arrival times")
	}
}

// roundTripSpec sets every optional cohort field JSON carries.
func roundTripSpec() Workload {
	return Workload{Version: WorkloadVersion, Name: "rt", Cohorts: []Cohort{{
		Name: "c", Clients: 4, Jobs: 10, DailyJobs: 100,
		Interarrival: Dist{Kind: "exponential"},
		Hourly:       SinusoidHourly(0.5, 12),
		Procs:        Dist{Kind: "gamma", Mean: 8, CV: 1, Min: 1, Max: 64},
	}}}
}

func TestWorkloadJSONRoundTrip(t *testing.T) {
	w := roundTripSpec()
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseWorkload(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cohorts[0].DailyJobs != 100 || len(got.Cohorts[0].Hourly) != 24 {
		t.Fatalf("round trip lost fields: %+v", got.Cohorts[0])
	}
}

// minimalSpec is the smallest valid spec, which invalidSpecs break.
func minimalSpec() Workload {
	return Workload{Version: WorkloadVersion, Cohorts: []Cohort{{
		Name: "c", Jobs: 1, Interarrival: Dist{Kind: "exponential", Mean: 10},
	}}}
}

// invalidSpecs each break minimalSpec in one way Validate must refuse.
var invalidSpecs = []struct {
	name   string
	break_ func(*Workload)
}{
	{"bad version", func(w *Workload) { w.Version = 99 }},
	{"no cohorts", func(w *Workload) { w.Cohorts = nil }},
	{"zero jobs", func(w *Workload) { w.Cohorts[0].Jobs = 0 }},
	{"no rate", func(w *Workload) { w.Cohorts[0].Interarrival.Mean = 0 }},
	{"short hourly", func(w *Workload) { w.Cohorts[0].Hourly = []float64{1, 2} }},
	{"negative hourly", func(w *Workload) { w.Cohorts[0].Hourly = make([]float64, 24); w.Cohorts[0].Hourly[5] = -1 }},
	{"all-zero hourly", func(w *Workload) { w.Cohorts[0].Hourly = make([]float64, 24) }},
	{"negative gap", func(w *Workload) { w.Cohorts[0].Interarrival = Dist{Kind: "uniform", Min: -10, Max: 10} }},
}

func TestWorkloadValidationErrors(t *testing.T) {
	for _, tc := range invalidSpecs {
		w := minimalSpec()
		tc.break_(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		}
	}
}

func TestDistCompileErrors(t *testing.T) {
	bad := []Dist{
		{Kind: "nope", Mean: 1},
		{Kind: "uniform", Min: 10, Max: 1},
		{Kind: "exponential"},
		{Kind: "gamma", Mean: 10},
		{Kind: "weibull", Mean: 10, CV: 1e7},
		{Kind: "lognormal", CV: 1},
	}
	for _, d := range bad {
		if _, err := d.Compile(); err == nil {
			t.Errorf("Compile(%+v) accepted an invalid distribution", d)
		}
	}
}

func TestWeibullShapeForCV(t *testing.T) {
	for _, cv := range []float64{0.1, 0.5, 1, 2, 10} {
		k, err := weibullShapeForCV(cv)
		if err != nil {
			t.Fatalf("cv %g: %v", cv, err)
		}
		g1 := math.Gamma(1 + 1/k)
		g2 := math.Gamma(1 + 2/k)
		got := math.Sqrt(g2/(g1*g1) - 1)
		if math.Abs(got-cv)/cv > 1e-6 {
			t.Errorf("cv %g: solved shape %g gives cv %g", cv, k, got)
		}
	}
	// CV 1 is the exponential special case: shape must be ~1.
	if k, _ := weibullShapeForCV(1); math.Abs(k-1) > 1e-6 {
		t.Errorf("weibull shape for CV 1 = %g, want 1", k)
	}
}

// generateWithin expands w (seed 1) on another goroutine and fails the
// test unless every arrival is out within limit.
func generateWithin(t *testing.T, w Workload, limit time.Duration) []Arrival {
	t.Helper()
	done := make(chan []Arrival, 1)
	go func() {
		var out []Arrival
		g, err := NewWorkloadGen(w, wlStart, 1)
		for err == nil {
			a, ok := g.Next()
			if !ok {
				break
			}
			out = append(out, a)
		}
		done <- out
	}()
	select {
	case out := <-done:
		return out
	case <-time.After(limit):
		t.Fatalf("no end to the stream after %v", limit)
		return nil
	}
}

// A diurnal cohort with a huge constant gap used to walk the warp one
// hour per iteration, about 10²⁹⁶ of them. Now its first arrival already
// lies past the horizon, so the stream ends at once; and a 30-day gap,
// which skips whole days, still lands 30 days later to the microsecond.
func TestWarpHugeDiurnalGapReturns(t *testing.T) {
	w := Workload{Version: WorkloadVersion, Cohorts: []Cohort{{
		Name: "huge", Clients: 2, Jobs: 3, Interarrival: Dist{Kind: "constant", Mean: 1e300},
		Hourly: SinusoidHourly(0.5, 12), Procs: Dist{Mean: 1},
	}}}
	if got := generateWithin(t, w, 5*time.Second); len(got) != 0 {
		t.Fatalf("%d arrivals past the horizon, the first at %v", len(got), got[0].At)
	}
	const month = 30 * 86400
	w.Cohorts[0].Interarrival.Mean = month
	got := generateWithin(t, w, 5*time.Second)
	if len(got) != 3 {
		t.Fatalf("%d arrivals, want 3", len(got))
	}
	for i := 2; i < len(got); i++ {
		if d := got[i].At.Sub(got[i-2].At) - month*time.Second; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("arrival %d is %v off one month after arrival %d", i, d, i-2)
		}
	}
}

// A stream whose next arrival lies past what a time.Duration holds
// (about 292 years) used to wrap to an instant before the previous one,
// and so did a walltime that long. Now the stream ends at the horizon,
// and the walltime (and with it the service time) saturates there.
func TestStreamEndsAtDurationHorizon(t *testing.T) {
	const gap = 1e9 // seconds: the tenth arrival would be at 1e10
	w := streamSpec("long", Dist{Kind: "constant", Mean: gap}, 20)
	w.Cohorts[0].Walltime.Mean = 1e300
	got := generateWithin(t, w, 5*time.Second)
	if len(got) != 9 {
		t.Fatalf("%d arrivals, want the 9 before the horizon", len(got))
	}
	for i, a := range got {
		if want := wlStart.Add(time.Duration(i+1) * gap * time.Second); !a.At.Equal(want) {
			t.Fatalf("arrival %d at %v, want %v", i, a.At, want)
		}
		if a.Walltime != math.MaxInt64 || a.Service != math.MaxInt64 {
			t.Fatalf("arrival %d: walltime %v, service %v, want both saturated", i, a.Walltime, a.Service)
		}
	}
}

// FuzzParseWorkload feeds arbitrary bytes to ParseWorkload, seeded with
// every spec the tests above use. No input may panic, and for an
// accepted spec the first 64 arrivals come out in time order, each with
// at least one process and one process per node. Specs with more than
// 4,096 client streams are skipped: seeding them costs memory, not
// coverage.
func FuzzParseWorkload(f *testing.F) {
	seeds := []Workload{diurnalSpec(), mixedSpec(), roundTripSpec(), minimalSpec(),
		streamSpec("poisson", Dist{Kind: "exponential", Mean: 90}, 10),
		streamSpec("weibull", Dist{Kind: "weibull", Mean: 90, CV: 0.6}, 10)}
	for _, tc := range invalidSpecs {
		w := minimalSpec()
		tc.break_(&w)
		seeds = append(seeds, w)
	}
	for _, w := range seeds {
		b, err := json.Marshal(w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		w, err := ParseWorkload(b)
		if err != nil {
			return
		}
		streams := 0
		for _, c := range w.Cohorts {
			if streams += max(c.Clients, 1); c.Clients > 1<<12 || streams > 1<<12 {
				t.Skip("too many client streams")
			}
		}
		g, err := NewWorkloadGen(w, wlStart, 1)
		if err != nil {
			return // a distribution that does not compile
		}
		var prev time.Time
		for i := 0; i < 64; i++ {
			a, ok := g.Next()
			if !ok {
				break
			}
			if i > 0 && a.At.Before(prev) {
				t.Fatalf("arrival %d at %v, before %v", i, a.At, prev)
			}
			if a.Procs < 1 || a.PPN < 1 {
				t.Fatalf("arrival %d: procs %d, ppn %d", i, a.Procs, a.PPN)
			}
			prev = a.At
		}
	})
}
