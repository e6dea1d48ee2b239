package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestRecordAndRead(t *testing.T) {
	r := NewRecorder()
	r.Record("load", "", t0, 1)
	r.Record("load", "", t0.Add(time.Second), 2)
	r.Record("bw", "MB/s", t0, 100)
	s := r.Series("load")
	if s == nil || len(s.Points) != 2 || s.Points[1].V != 2 {
		t.Fatalf("series %+v", s)
	}
	if names := r.Names(); len(names) != 2 || names[0] != "load" || names[1] != "bw" {
		t.Fatalf("names %v", names)
	}
	if r.Series("ghost") != nil {
		t.Fatal("ghost series")
	}
}

func TestSeriesCopyIsolation(t *testing.T) {
	r := NewRecorder()
	r.Record("x", "", t0, 1)
	s := r.Series("x")
	s.Points[0].V = 99
	if r.Series("x").Points[0].V != 1 {
		t.Fatal("Series returned aliased storage")
	}
}

func TestStats(t *testing.T) {
	s := &Series{Points: []Point{{t0, 2}, {t0, 8}, {t0, 5}}}
	minV, mean, maxV := s.Stats()
	if minV != 2 || maxV != 8 || mean != 5 {
		t.Fatalf("stats %g %g %g", minV, mean, maxV)
	}
	var empty Series
	if a, b, c := empty.Stats(); a != 0 || b != 0 || c != 0 {
		t.Fatal("empty stats nonzero")
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	r.Record("load", "", t0, 1.5)
	r.Record("load", "", t0.Add(2*time.Second), 2.5)
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines %v", lines)
	}
	if !strings.HasPrefix(lines[0], "series,unit,timestamp,seconds,value") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(lines[2], ",2.000,2.5") {
		t.Fatalf("second sample line %q", lines[2])
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record("shared", "", t0.Add(time.Duration(i)*time.Millisecond), float64(i))
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.Series("shared").Points); got != 800 {
		t.Fatalf("points %d", got)
	}
}
