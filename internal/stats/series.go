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

// TimeSeries is a bounded window of timestamped samples of k columns
// sampled at the same instants (NodeStateD keeps four attributes in one
// series). Samples older than MaxAge relative to the newest sample are
// discarded on insertion. The zero value is not usable; call
// NewTimeSeries.
type TimeSeries struct {
	maxAge time.Duration
	k      int
	// Live samples are t[head:] and v[head*k:], ascending by t
	// (UnixNano); sample i's columns are v[i*k : i*k+k]. Trimming
	// advances head; the dead prefix is compacted away once it outgrows
	// the live part, so an Add moves O(1) samples amortised.
	head int
	t    []int64
	v    []float64
}

// NewTimeSeries returns a series of k columns that retains samples for
// maxAge. It panics if maxAge <= 0 or k < 1.
func NewTimeSeries(maxAge time.Duration, k int) *TimeSeries {
	if maxAge <= 0 || k < 1 {
		panic(fmt.Sprintf("stats: NewTimeSeries(%v, %d): maxAge and k must be positive", maxAge, k))
	}
	return &TimeSeries{maxAge: maxAge, k: k}
}

// Add appends a sample of one value per column; it panics unless len(v)
// is the series' k. Out-of-order samples (t before the newest) are
// rejected with an error so monitoring bugs surface instead of silently
// corrupting running means.
func (ts *TimeSeries) Add(t time.Time, v ...float64) error {
	if len(v) != ts.k {
		panic(fmt.Sprintf("stats: Add of %d values to a %d-column series", len(v), ts.k))
	}
	at := t.UnixNano()
	if n := len(ts.t); n > 0 && at < ts.t[n-1] {
		return fmt.Errorf("stats: out-of-order sample at %v (newest %v)", t, time.Unix(0, ts.t[n-1]))
	}
	ts.t = append(ts.t, at)
	ts.v = append(ts.v, v...)
	cutoff := at - int64(ts.maxAge)
	for ts.t[ts.head] < cutoff {
		ts.head++
	}
	if ts.head > len(ts.t)/2 {
		n := copy(ts.t, ts.t[ts.head:])
		copy(ts.v, ts.v[ts.head*ts.k:])
		ts.t, ts.v, ts.head = ts.t[:n], ts.v[:n*ts.k], 0
	}
	return nil
}

// Windowed are the paper's 1/5/15-minute running means of an attribute.
type Windowed struct {
	M1, M5, M15 float64
}

// windows are the running-mean spans of Windowed, shortest first.
var windows = [3]time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute}

// Means writes each column's 1/5/15-minute running means ending at now
// into dst, which must hold k entries: the mean of the samples with T in
// (now-window, now]. Windows with no samples fall back to the column's
// newest value (the paper's daemons always have at least the
// instantaneous reading), and to 0 when the series is empty. The window
// boundaries are found once for all columns; each column then sums its
// values newest first from 0, each window's sum a prefix of the next
// one's.
func (ts *TimeSeries) Means(now time.Time, dst []Windowed) {
	k := ts.k
	if len(dst) != k {
		panic(fmt.Sprintf("stats: Means into %d entries of a %d-column series", len(dst), k))
	}
	// Samples are ascending, so those after now are a suffix: the
	// windows end at end, and window w starts at from[w].
	at := now.UnixNano()
	end := len(ts.t)
	for end > ts.head && ts.t[end-1] > at {
		end--
	}
	var from [len(windows)]int
	i := end
	for w, span := range windows {
		for i > ts.head && ts.t[i-1] > at-int64(span) {
			i--
		}
		from[w] = i
	}
	for c := range dst {
		fallback := 0.0
		if n := len(ts.t); n > 0 {
			fallback = ts.v[(n-1)*k+c]
		}
		var mean [len(windows)]float64
		sum, i := 0.0, end
		for w := range windows {
			for ; i > from[w]; i-- {
				sum += ts.v[(i-1)*k+c]
			}
			mean[w] = meanOr(sum, end-from[w], fallback)
		}
		dst[c] = Windowed{M1: mean[0], M5: mean[1], M15: mean[2]}
	}
}

func meanOr(sum float64, n int, fallback float64) float64 {
	if n == 0 {
		return fallback
	}
	return sum / float64(n)
}
