package trace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nlarm/internal/harness"
)

// The monitoring traces of Figures 1 and 2 used to be written as CSV by
// this package's Recorder; they are now harness.Table rows. These tests
// keep the long-form layout that Recorder defined pinned from here.

// TestWriteCSV checks the long-form header, one row per sample, and the
// seconds and value columns of a two-sample series.
func TestWriteCSV(t *testing.T) {
	d := &harness.Fig1Data{Hours: []float64{0, 0.5}, LoadA: []float64{1.5, 2.5}}
	var b strings.Builder
	if err := d.Table().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines %v", lines)
	}
	if lines[0] != "series,unit,timestamp,seconds,value" {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasSuffix(lines[2], ",1800.000,2.5") {
		t.Fatalf("second sample line %q", lines[2])
	}
}

// TestWriteCSVGolden pins Figure 1's CSV for a five-sample fixture byte
// for byte. The golden was written by Recorder.WriteCSV, before the
// figure moved to harness.Table, and is never rewritten.
func TestWriteCSVGolden(t *testing.T) {
	d := &harness.Fig1Data{NodeA: 3, NodeB: 7}
	for i := 0; i < 5; i++ {
		x := float64(i)
		d.Hours = append(d.Hours, 0.25*x)
		d.LoadA = append(d.LoadA, 0.5+0.25*x)
		d.LoadB = append(d.LoadB, 2-0.1*x)
		d.LoadAvg = append(d.LoadAvg, 1.0/3+x)
		d.NetA = append(d.NetA, 12.5*x)
		d.NetB = append(d.NetB, 1e-7*x)
		d.NetAvg = append(d.NetAvg, 117.1875+x)
		d.UtilAvg = append(d.UtilAvg, 40+2*x)
		d.MemAvg = append(d.MemAvg, 1234567+x)
	}
	var got bytes.Buffer
	if err := d.Table().WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "figure1.csv.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("figure 1 CSV drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got.Bytes(), want)
	}
}
