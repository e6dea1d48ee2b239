// Package forecast implements Network-Weather-Service-style time-series
// forecasting for resource measurements. The paper builds directly on
// NWS's idea (§2: "It then applies various time series methods and uses
// the method that exhibits smallest prediction error for next forecast")
// and notes that "statistical methods can be used to model variations in
// system parameters" (§1). This package provides exactly that mechanism:
// an ensemble of cheap one-step-ahead predictors whose accuracy is
// tracked continuously, with the historically-best predictor answering
// each forecast query.
//
// The monitor feeds each node attribute (and optionally each network
// pair) through a Forecaster; the allocator can then rank nodes by where
// load is *going*, not only where it is.
package forecast

import (
	"fmt"
	"math"
	"sort"
)

// Predictor produces one-step-ahead predictions from a stream of
// observations.
type Predictor interface {
	// Name identifies the method in error reports.
	Name() string
	// Observe feeds the next measurement.
	Observe(v float64)
	// Predict returns the prediction for the next measurement; ok is
	// false until the method has enough history.
	Predict() (value float64, ok bool)
}

// --- individual methods ------------------------------------------------------

// lastValue predicts the most recent observation (random-walk model).
type lastValue struct {
	v   float64
	has bool
}

func (p *lastValue) Name() string { return "last" }
func (p *lastValue) Observe(v float64) {
	p.v = v
	p.has = true
}
func (p *lastValue) Predict() (float64, bool) { return p.v, p.has }

// runningMean predicts the mean of everything seen.
type runningMean struct {
	sum float64
	n   int
}

func (p *runningMean) Name() string { return "running-mean" }
func (p *runningMean) Observe(v float64) {
	p.sum += v
	p.n++
}
func (p *runningMean) Predict() (float64, bool) {
	if p.n == 0 {
		return 0, false
	}
	return p.sum / float64(p.n), true
}

// windowMean predicts the mean of the last k observations.
type windowMean struct {
	k    int
	buf  []float64
	next int
	full bool
}

func newWindowMean(k int) *windowMean { return &windowMean{k: k, buf: make([]float64, k)} }

func (p *windowMean) Name() string { return fmt.Sprintf("mean-%d", p.k) }
func (p *windowMean) Observe(v float64) {
	p.buf[p.next] = v
	p.next = (p.next + 1) % p.k
	if p.next == 0 {
		p.full = true
	}
}
func (p *windowMean) Predict() (float64, bool) {
	n := p.k
	if !p.full {
		n = p.next
	}
	if n == 0 {
		return 0, false
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += p.buf[i]
	}
	return sum / float64(n), true
}

// windowMedian predicts the median of the last k observations — robust to
// the load spikes Figure 1 shows.
type windowMedian struct {
	k    int
	buf  []float64
	next int
	full bool
}

func newWindowMedian(k int) *windowMedian { return &windowMedian{k: k, buf: make([]float64, k)} }

func (p *windowMedian) Name() string { return fmt.Sprintf("median-%d", p.k) }
func (p *windowMedian) Observe(v float64) {
	p.buf[p.next] = v
	p.next = (p.next + 1) % p.k
	if p.next == 0 {
		p.full = true
	}
}
func (p *windowMedian) Predict() (float64, bool) {
	n := p.k
	if !p.full {
		n = p.next
	}
	if n == 0 {
		return 0, false
	}
	tmp := append([]float64(nil), p.buf[:n]...)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2], true
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2, true
}

// expSmooth predicts via exponential smoothing with factor alpha.
type expSmooth struct {
	alpha float64
	s     float64
	has   bool
}

func (p *expSmooth) Name() string { return fmt.Sprintf("exp-%.1f", p.alpha) }
func (p *expSmooth) Observe(v float64) {
	if !p.has {
		p.s = v
		p.has = true
		return
	}
	p.s = p.alpha*v + (1-p.alpha)*p.s
}
func (p *expSmooth) Predict() (float64, bool) { return p.s, p.has }

// ar1 predicts with a mean-reverting AR(1) model whose coefficient is
// estimated online from lag-1 autocovariance.
type ar1 struct {
	n                  int
	mean, m2           float64 // running mean and M2 (Welford)
	lag1Cov            float64
	prev               float64
	hasPrev            bool
	minHistoryForModel int
}

func newAR1() *ar1 { return &ar1{minHistoryForModel: 8} }

func (p *ar1) Name() string { return "ar1" }

func (p *ar1) Observe(v float64) {
	if p.hasPrev {
		// Incremental lag-1 covariance against the current mean estimate.
		p.lag1Cov += (p.prev - p.mean) * (v - p.mean)
	}
	p.n++
	delta := v - p.mean
	p.mean += delta / float64(p.n)
	p.m2 += delta * (v - p.mean)
	p.prev = v
	p.hasPrev = true
}

func (p *ar1) Predict() (float64, bool) {
	if p.n < p.minHistoryForModel {
		if !p.hasPrev {
			return 0, false
		}
		return p.prev, true
	}
	variance := p.m2 / float64(p.n)
	phi := 0.0
	if variance > 1e-12 {
		phi = (p.lag1Cov / float64(p.n-1)) / variance
	}
	// Clamp to the stationary region.
	if phi > 0.99 {
		phi = 0.99
	}
	if phi < -0.99 {
		phi = -0.99
	}
	return p.mean + phi*(p.prev-p.mean), true
}

// --- the selecting ensemble --------------------------------------------------

// Forecaster runs an ensemble of predictors, scores each by the mean
// squared error of its past one-step-ahead predictions, and answers
// Forecast queries with the best method so far (the NWS selection rule).
// Not safe for concurrent use.
type Forecaster struct {
	predictors []Predictor
	pending    []float64 // last prediction per method
	hasPending []bool
	sqErrSum   []float64
	errCount   []int
	observed   int
}

// New returns a forecaster with the default NWS-like ensemble: last
// value, running mean, sliding means/medians over 5 and 20 samples,
// exponential smoothing at 0.2/0.5/0.8, and adaptive AR(1).
func New() *Forecaster {
	return NewWith(
		&lastValue{},
		&runningMean{},
		newWindowMean(5),
		newWindowMean(20),
		newWindowMedian(5),
		newWindowMedian(20),
		&expSmooth{alpha: 0.2},
		&expSmooth{alpha: 0.5},
		&expSmooth{alpha: 0.8},
		newAR1(),
	)
}

// NewWith builds a forecaster over a custom ensemble. It panics on an
// empty ensemble.
func NewWith(ps ...Predictor) *Forecaster {
	if len(ps) == 0 {
		panic("forecast: empty ensemble")
	}
	return &Forecaster{
		predictors: ps,
		pending:    make([]float64, len(ps)),
		hasPending: make([]bool, len(ps)),
		sqErrSum:   make([]float64, len(ps)),
		errCount:   make([]int, len(ps)),
	}
}

// Observe feeds the next measurement: each method's outstanding
// prediction is scored against it, then the method sees the value and
// issues its next prediction.
func (f *Forecaster) Observe(v float64) {
	for i, p := range f.predictors {
		if f.hasPending[i] {
			d := f.pending[i] - v
			f.sqErrSum[i] += d * d
			f.errCount[i]++
		}
		p.Observe(v)
		f.pending[i], f.hasPending[i] = p.Predict()
	}
	f.observed++
}

// N returns the number of observations so far.
func (f *Forecaster) N() int { return f.observed }

// Forecast returns the prediction of the method with the lowest mean
// squared error so far, along with the method's name. Before any method
// has a scored prediction it falls back to the last value; ok is false
// with no data at all.
func (f *Forecaster) Forecast() (value float64, method string, ok bool) {
	best := -1
	bestErr := math.Inf(1)
	for i := range f.predictors {
		if !f.hasPending[i] || f.errCount[i] == 0 {
			continue
		}
		mse := f.sqErrSum[i] / float64(f.errCount[i])
		if mse < bestErr {
			bestErr = mse
			best = i
		}
	}
	if best >= 0 {
		return f.pending[best], f.predictors[best].Name(), true
	}
	// No scored method yet: any pending prediction (last value is always
	// available after one observation).
	for i := range f.predictors {
		if f.hasPending[i] {
			return f.pending[i], f.predictors[i].Name(), true
		}
	}
	return 0, "", false
}
