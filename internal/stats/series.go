// Package stats implements the numerical machinery the paper's allocator
// relies on: time-windowed running means (the 1/5/15-minute histories kept
// by the monitoring daemons), sum-normalization and sign-unification of
// attributes, the Simple Additive Weights (SAW) scoring method, and the
// summary statistics (mean, median, max, coefficient of variation) used in
// the evaluation section.
package stats

import (
	"fmt"
	"time"
)

// Sample is a timestamped observation.
type Sample struct {
	T time.Time
	V float64
}

// TimeSeries is a bounded window of timestamped samples. Samples older
// than MaxAge relative to the newest sample are discarded on insertion.
// The zero value is not usable; call NewTimeSeries.
type TimeSeries struct {
	maxAge  time.Duration
	samples []Sample // ascending by T
}

// NewTimeSeries returns a series that retains samples for maxAge.
// It panics if maxAge <= 0.
func NewTimeSeries(maxAge time.Duration) *TimeSeries {
	if maxAge <= 0 {
		panic(fmt.Sprintf("stats: NewTimeSeries(%v): maxAge must be positive", maxAge))
	}
	return &TimeSeries{maxAge: maxAge}
}

// Add appends a sample. Out-of-order samples (t before the newest) are
// rejected with an error so monitoring bugs surface instead of silently
// corrupting running means.
func (ts *TimeSeries) Add(t time.Time, v float64) error {
	if n := len(ts.samples); n > 0 && t.Before(ts.samples[n-1].T) {
		return fmt.Errorf("stats: out-of-order sample at %v (newest %v)", t, ts.samples[n-1].T)
	}
	ts.samples = append(ts.samples, Sample{T: t, V: v})
	ts.trim(t)
	return nil
}

func (ts *TimeSeries) trim(now time.Time) {
	cutoff := now.Add(-ts.maxAge)
	i := 0
	for i < len(ts.samples) && ts.samples[i].T.Before(cutoff) {
		i++
	}
	if i > 0 {
		ts.samples = append(ts.samples[:0], ts.samples[i:]...)
	}
}

// Last returns the newest sample, if any.
func (ts *TimeSeries) Last() (Sample, bool) {
	if len(ts.samples) == 0 {
		return Sample{}, false
	}
	return ts.samples[len(ts.samples)-1], true
}

// MeanOver returns the mean of samples with T in (now-window, now].
// ok is false when no sample falls in the window.
func (ts *TimeSeries) MeanOver(now time.Time, window time.Duration) (mean float64, ok bool) {
	cutoff := now.Add(-window)
	sum, n := 0.0, 0
	for i := len(ts.samples) - 1; i >= 0; i-- {
		s := ts.samples[i]
		if s.T.After(now) {
			continue
		}
		if !s.T.After(cutoff) {
			break
		}
		sum += s.V
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Windowed are the paper's 1/5/15-minute running means of an attribute.
type Windowed struct {
	M1, M5, M15 float64
}

// Means returns the 1/5/15-minute running means ending at now. Windows
// with no samples fall back to the newest sample's value (the paper's
// daemons always have at least the instantaneous reading), and to 0 when
// the series is empty.
func (ts *TimeSeries) Means(now time.Time) Windowed {
	fallback := 0.0
	if last, ok := ts.Last(); ok {
		fallback = last.V
	}
	pick := func(w time.Duration) float64 {
		if m, ok := ts.MeanOver(now, w); ok {
			return m
		}
		return fallback
	}
	return Windowed{
		M1:  pick(1 * time.Minute),
		M5:  pick(5 * time.Minute),
		M15: pick(15 * time.Minute),
	}
}
