package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestChaosReportRenderGolden pins ChaosReport.Render byte-for-byte for
// one small seeded run — the report (fault log, checks, recovery
// accounting, and the embedded obs metrics section) is a public artifact,
// so format drift must be a deliberate, reviewed change (-update).
func TestChaosReportRenderGolden(t *testing.T) {
	report, err := RunChaos(ChaosConfig{Seed: 11, Windows: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(report.Render())

	path := filepath.Join("testdata", "chaos_report_seed11.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos report render drifted from %s (rerun with -update after intentional changes)\n--- got ---\n%s", path, got)
	}
}

// TestTraceTableCSVGolden pins the long-form CSV that Figures 1 and 2
// write, byte for byte: two series of five samples, one name carrying a
// comma that must come out as ';'. The golden predates traceTable and is
// never rewritten.
func TestTraceTableCSVGolden(t *testing.T) {
	base := time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)
	times := make([]time.Time, 5)
	load, procs := make([]float64, 5), make([]float64, 5)
	for i := range times {
		times[i] = base.Add(time.Duration(i) * 10 * time.Second)
		load[i] = 0.5 + 0.25*float64(i)
		procs[i] = float64(4 * i)
	}
	tab := traceTable(times, traceSeries{"node0.cpu_load", "load", load}, traceSeries{"cluster,total", "procs", procs})
	var got bytes.Buffer
	if err := tab.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "series.csv.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("trace CSV drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got.Bytes(), want)
	}
}
