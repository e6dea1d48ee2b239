// Package stats implements the numerical machinery around the paper's
// allocator: time-windowed running means (the 1/5/15-minute histories kept
// by the monitoring daemons) and the summary statistics (mean, median,
// max, coefficient of variation) used in the evaluation section. Equations
// 1 and 2's normalisation and scoring live with the cost model, in
// internal/alloc.
package stats

import (
	"fmt"
	"math"
	"time"
)

// Windowed are the paper's 1/5/15-minute running means of an attribute.
type Windowed struct {
	M1, M5, M15 float64
}

// Series is a timestamped series of k int64 columns sampled at the same
// instants (NodeStateD keeps four attributes in one series), with up to
// three running windows ending at its newest sample: window w holds the
// samples with t in (newest-spans[w], newest]. Each window keeps an exact
// integer sum per column, adding a sample on Add and subtracting it as it
// ages out, so a mean costs O(1) and no summation order can move it.
// Samples older than the longest window are dropped. The zero value is
// not usable; call NewSeries.
type Series struct {
	k     int
	spans []time.Duration
	// rows holds one row per sample, its time (UnixNano) then its k
	// columns, ascending by time. Window w starts at row head[w]; rows
	// before the longest window's are dead, and compacted away once they
	// outgrow the live part, so an Add moves O(1) rows amortised.
	head [3]int
	rows []int64
	sum  []int64 // sum[w*k+c] is column c's sum over window w
}

// NewSeries returns a series of k columns with a window of each span,
// shortest first; spans is kept, not copied. It panics unless k >= 1 and
// there are one to three spans, positive and ascending.
func NewSeries(k int, spans ...time.Duration) *Series {
	ok := k >= 1 && len(spans) >= 1 && len(spans) <= 3 && spans[0] > 0
	for i := 1; ok && i < len(spans); i++ {
		ok = spans[i] > spans[i-1]
	}
	if !ok {
		panic(fmt.Sprintf("stats: NewSeries(%d, %v): want k >= 1 and 1-3 positive ascending spans", k, spans))
	}
	return &Series{k: k, spans: spans, sum: make([]int64, len(spans)*k)}
}

// Add appends a sample of one value per column; it panics unless len(v)
// is the series' k. Out-of-order samples (t before the newest) are
// rejected with an error so monitoring bugs surface instead of silently
// corrupting running means.
func (s *Series) Add(t time.Time, v ...int64) error {
	k, r := s.k, s.k+1
	if len(v) != k {
		panic(fmt.Sprintf("stats: Add of %d values to a %d-column series", len(v), k))
	}
	at := t.UnixNano()
	if n := len(s.rows); n > 0 && at < s.rows[n-r] {
		return fmt.Errorf("stats: out-of-order sample at %v (newest %v)", t, time.Unix(0, s.rows[n-r]))
	}
	s.rows = append(append(s.rows, at), v...)
	for w, span := range s.spans {
		sum := s.sum[w*k : w*k+k]
		for c, x := range v {
			sum[c] += x
		}
		i := s.head[w]
		for ; s.rows[i*r] <= at-int64(span); i++ {
			for c, x := range s.rows[i*r+1 : i*r+r] {
				sum[c] -= x
			}
		}
		s.head[w] = i
	}
	if h := s.head[len(s.spans)-1]; h*r > len(s.rows)/2 {
		s.rows = s.rows[:copy(s.rows, s.rows[h*r:])]
		for w := range s.spans {
			s.head[w] -= h
		}
	}
	return nil
}

// Mean returns column c's mean over window w, rounded as Round rounds:
// to the nearest integer, halves away from zero. Every window holds the
// newest sample, so after a gap longer than a window its mean is that
// sample (the paper's daemons always have at least the instantaneous
// reading); before the first Add every mean is 0.
func (s *Series) Mean(w, c int) int64 {
	n := int64(len(s.rows)/(s.k+1) - s.head[w])
	if n == 0 {
		return 0
	}
	sum := s.sum[w*s.k+c]
	if sum < 0 {
		return -((-sum + n/2) / n)
	}
	return (sum + n/2) / n
}

// Round returns v·unit, computed in float64, rounded to the nearest
// integer with halves away from zero: the fixed resolution at which a
// monitor sample enters a Series, in units of 1/unit.
func Round(v, unit float64) int64 { return int64(math.Round(v * unit)) }
