// Package trace records named time series from simulation runs and
// exports them as CSV — the raw material behind the paper's Figures 1
// and 2 (two-day resource-usage traces) and for any post-hoc analysis of
// experiment runs with external plotting tools.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Point is one sample of a series.
type Point struct {
	T time.Time
	V float64
}

// Series is a named, unit-annotated time series.
type Series struct {
	Name   string
	Unit   string
	Points []Point
}

// Stats returns min, mean and max of the series (zeros when empty).
func (s *Series) Stats() (minV, mean, maxV float64) {
	if len(s.Points) == 0 {
		return 0, 0, 0
	}
	minV, maxV = s.Points[0].V, s.Points[0].V
	sum := 0.0
	for _, p := range s.Points {
		if p.V < minV {
			minV = p.V
		}
		if p.V > maxV {
			maxV = p.V
		}
		sum += p.V
	}
	return minV, sum / float64(len(s.Points)), maxV
}

// Recorder collects series. Safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	series map[string]*Series
	order  []string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Record appends a sample to the named series, creating it (with unit)
// on first use.
func (r *Recorder) Record(name, unit string, t time.Time, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name, Unit: unit}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Series returns a copy of the named series, or nil.
func (r *Recorder) Series(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		return nil
	}
	cp := *s
	cp.Points = append([]Point(nil), s.Points...)
	return &cp
}

// Names returns the series names in creation order.
func (r *Recorder) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// WriteCSV exports every series in long form:
// series,unit,timestamp_rfc3339,seconds_since_start,value.
func (r *Recorder) WriteCSV(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := fmt.Fprintln(w, "series,unit,timestamp,seconds,value"); err != nil {
		return err
	}
	var start time.Time
	haveStart := false
	for _, name := range r.order {
		for _, p := range r.series[name].Points {
			if !haveStart || p.T.Before(start) {
				start = p.T
				haveStart = true
			}
		}
	}
	esc := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	for _, name := range r.order {
		s := r.series[name]
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%.3f,%g\n",
				esc(name), esc(s.Unit), p.T.Format(time.RFC3339), p.T.Sub(start).Seconds(), p.V); err != nil {
				return err
			}
		}
	}
	return nil
}
