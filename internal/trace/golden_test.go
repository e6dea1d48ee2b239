package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Fatalf("output does not match %s (rerun with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// goldenRecorder builds the fixture: two series with fixed timestamps
// (including comma-bearing names that exercise CSV escaping).
func goldenRecorder() *Recorder {
	base := time.Date(2020, 3, 2, 8, 0, 0, 0, time.UTC)
	r := NewRecorder()
	for i := 0; i < 5; i++ {
		at := base.Add(time.Duration(i) * 10 * time.Second)
		r.Record("node0.cpu_load", "load", at, 0.5+0.25*float64(i))
		r.Record("cluster,total", "procs", at, float64(4*i))
	}
	return r
}

func TestWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "series.csv.golden", buf.Bytes())
}
