// Package stats implements the numerical machinery around the paper's
// allocator: time-windowed running means (the 1/5/15-minute histories kept
// by the monitoring daemons) and the summary statistics (mean, median,
// max, coefficient of variation) used in the evaluation section. Equations
// 1 and 2's normalisation and scoring live with the cost model, in
// internal/alloc.
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
	maxAge time.Duration
	// Live samples are t[head:], v[head:], ascending by t (UnixNano).
	// Trimming advances head; the dead prefix is compacted away once it
	// outgrows the live part, so an Add moves O(1) samples amortised.
	head int
	t    []int64
	v    []float64
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
	at := t.UnixNano()
	if n := len(ts.t); n > 0 && at < ts.t[n-1] {
		return fmt.Errorf("stats: out-of-order sample at %v (newest %v)", t, time.Unix(0, ts.t[n-1]))
	}
	ts.t = append(ts.t, at)
	ts.v = append(ts.v, v)
	cutoff := at - int64(ts.maxAge)
	for ts.t[ts.head] < cutoff {
		ts.head++
	}
	if ts.head > len(ts.t)/2 {
		n := copy(ts.t, ts.t[ts.head:])
		copy(ts.v, ts.v[ts.head:])
		ts.t, ts.v, ts.head = ts.t[:n], ts.v[:n], 0
	}
	return nil
}

// Last returns the newest sample, if any.
func (ts *TimeSeries) Last() (Sample, bool) {
	n := len(ts.t)
	if n == 0 {
		return Sample{}, false
	}
	return Sample{T: time.Unix(0, ts.t[n-1]), V: ts.v[n-1]}, true
}

// Windowed are the paper's 1/5/15-minute running means of an attribute.
type Windowed struct {
	M1, M5, M15 float64
}

// windows are the running-mean spans of Windowed, shortest first.
var windows = [3]time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute}

// Means returns the 1/5/15-minute running means ending at now: the mean
// of the samples with T in (now-window, now]. Windows with no samples
// fall back to the newest sample's value (the paper's daemons always
// have at least the instantaneous reading), and to 0 when the series is
// empty. One newest-to-oldest walk serves all three windows: each
// window's sum is a prefix of the next one's, added in the same order.
func (ts *TimeSeries) Means(now time.Time) Windowed {
	fallback := 0.0
	if n := len(ts.t); n > 0 {
		fallback = ts.v[n-1]
	}
	at := now.UnixNano()
	var mean [3]float64
	sum, count, w := 0.0, 0, 0
	for i := len(ts.t) - 1; i >= ts.head; i-- {
		if ts.t[i] > at {
			continue
		}
		for w < len(windows) && ts.t[i] <= at-int64(windows[w]) {
			mean[w] = meanOr(sum, count, fallback)
			w++
		}
		if w == len(windows) {
			break
		}
		sum += ts.v[i]
		count++
	}
	for ; w < len(windows); w++ {
		mean[w] = meanOr(sum, count, fallback)
	}
	return Windowed{M1: mean[0], M5: mean[1], M15: mean[2]}
}

func meanOr(sum float64, n int, fallback float64) float64 {
	if n == 0 {
		return fallback
	}
	return sum / float64(n)
}
