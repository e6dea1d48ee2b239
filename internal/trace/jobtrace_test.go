package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleRecords() []JobRecord {
	return []JobRecord{
		{ID: 0, Cohort: "batch", Procs: 32, PPN: 8, SubmitSec: 0, StartSec: 0, EndSec: 600, WalltimeSec: 900, Nodes: 4},
		{ID: 2, Cohort: "array", Client: 3, Procs: 4, PPN: 4, Priority: 1, SubmitSec: 30, StartSec: 30, EndSec: 150, WalltimeSec: 180, Nodes: 1, Backfilled: true},
		{ID: 1, Cohort: "batch", Procs: 9000, PPN: 8, SubmitSec: 10, StartSec: -1, EndSec: -1, Nodes: 1125},
	}
}

func TestJobTraceRoundTrip(t *testing.T) {
	scen := json.RawMessage(`{"nodes":64,"seed":9}`)
	var buf bytes.Buffer
	tw, err := NewJobTraceWriter(&buf, JobTraceHeader{Seed: 9, Scenario: scen})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := tw.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Records() != len(want) {
		t.Fatalf("writer counted %d records, want %d", tw.Records(), len(want))
	}
	hdr, recs, digest, err := ReadJobTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Kind != JobTraceKind || hdr.Version != JobTraceVersion || hdr.Seed != 9 {
		t.Fatalf("header round trip lost fields: %+v", hdr)
	}
	if string(hdr.Scenario) != string(scen) {
		t.Fatalf("scenario round trip: %s", hdr.Scenario)
	}
	if len(recs) != len(want) {
		t.Fatalf("read %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d round trip: %+v != %+v", i, recs[i], want[i])
		}
	}
	if digest != tw.Digest() {
		t.Fatalf("reader digest %s != writer digest %s", digest, tw.Digest())
	}
}

func TestJobTraceWriterDeterministicBytes(t *testing.T) {
	write := func() (string, string) {
		var buf bytes.Buffer
		tw, err := NewJobTraceWriter(&buf, JobTraceHeader{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range sampleRecords() {
			if err := tw.Write(&rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String(), tw.Digest()
	}
	b1, d1 := write()
	b2, d2 := write()
	if b1 != b2 || d1 != d2 {
		t.Fatalf("two identical writes produced different bytes or digests")
	}
}

func TestJobTraceRejectsWrongKindAndVersion(t *testing.T) {
	if _, _, _, err := ReadJobTrace(strings.NewReader(`{"kind":"other","version":1}` + "\n")); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if _, _, _, err := ReadJobTrace(strings.NewReader(`{"kind":"nlarm-jobtrace","version":99}` + "\n")); err == nil {
		t.Fatal("future version accepted")
	}
	if _, _, _, err := ReadJobTrace(strings.NewReader("")); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, _, _, err := ReadJobTrace(strings.NewReader(`{"kind":"nlarm-jobtrace","version":1}` + "\nnot json\n")); err == nil {
		t.Fatal("malformed record accepted")
	}
}

// TestJobTraceV1BackwardCompat pins the version-1 compatibility contract
// the replay tool relies on: a writer pinned to version 1 emits a
// version-1 header and records byte-identical to what the version-1
// writer produced (the cost fields are omitempty and absent), and the
// reader accepts both live versions while rejecting anything outside the
// range.
func TestJobTraceV1BackwardCompat(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewJobTraceWriter(&buf, JobTraceHeader{Version: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := tw.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Exact bytes of the version-1 format: json.Marshal field order with
	// no cost columns.
	wantFirst := `{"kind":"nlarm-jobtrace","version":1,"seed":7}` + "\n" +
		`{"id":0,"cohort":"batch","procs":32,"ppn":8,"submit_sec":0,"start_sec":0,"end_sec":600,"walltime_sec":900,"nodes":4}` + "\n"
	if got := buf.String(); !strings.HasPrefix(got, wantFirst) {
		t.Fatalf("v1-pinned writer bytes changed:\ngot  %q\nwant prefix %q", got[:min(len(got), len(wantFirst))], wantFirst)
	}
	hdr, recs, _, err := ReadJobTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reader rejected v1 trace: %v", err)
	}
	if hdr.Version != 1 || len(recs) != 3 {
		t.Fatalf("v1 read: version %d, %d records", hdr.Version, len(recs))
	}
	if _, err := NewJobTraceWriter(&bytes.Buffer{}, JobTraceHeader{Version: 3}); err == nil {
		t.Fatal("writer accepted unwritable future version")
	}
	if _, _, _, err := ReadJobTrace(strings.NewReader(`{"kind":"nlarm-jobtrace","version":0}` + "\n")); err == nil {
		t.Fatal("version 0 accepted")
	}
}

// TestJobTraceCostFieldsRoundTrip exercises the version-2 cost columns.
func TestJobTraceCostFieldsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewJobTraceWriter(&buf, JobTraceHeader{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecords()[0]
	rec.CLCost = 3.25
	rec.NLCost = 0.125
	if err := tw.Write(&rec); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"cl_cost":3.25`) || !strings.Contains(buf.String(), `"nl_cost":0.125`) {
		t.Fatalf("cost fields missing from v2 record: %s", buf.String())
	}
	hdr, recs, _, err := ReadJobTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != JobTraceVersion {
		t.Fatalf("default header version %d, want %d", hdr.Version, JobTraceVersion)
	}
	if recs[0] != rec {
		t.Fatalf("cost round trip: %+v != %+v", recs[0], rec)
	}
}

func TestDiffJobRecords(t *testing.T) {
	a := sampleRecords()
	b := sampleRecords()
	if diffs := DiffJobRecords(a, b, 10); len(diffs) != 0 {
		t.Fatalf("identical records diffed: %v", diffs)
	}
	b[1].StartSec = 31
	diffs := DiffJobRecords(a, b, 10)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "record 1") {
		t.Fatalf("want one diff on record 1, got %v", diffs)
	}
	if diffs := DiffJobRecords(a, b[:2], 10); len(diffs) == 0 {
		t.Fatal("length mismatch not reported")
	}
	// maxDiffs caps the output.
	var c []JobRecord
	for i := range a {
		r := a[i]
		r.EndSec += 1000
		c = append(c, r)
	}
	if diffs := DiffJobRecords(a, c, 2); len(diffs) != 2 {
		t.Fatalf("maxDiffs 2 returned %d diffs", len(diffs))
	}
}

// rewriteJobTrace re-serializes a parsed trace through JobTraceWriter.
func rewriteJobTrace(t *testing.T, hdr JobTraceHeader, recs []JobRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewJobTraceWriter(&buf, hdr)
	if err != nil {
		t.Fatalf("writer refused an accepted header %+v: %v", hdr, err)
	}
	for _, rec := range recs {
		if err := tw.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadJobTrace feeds arbitrary bytes to the reader behind
// nlarm-replay -trace. It must never panic; an accepted trace has the
// job-trace kind and a readable version; and rewriting an accepted trace
// through JobTraceWriter reaches a fixed point at the second rewrite
// (the first may normalise spacing, key order or unknown fields).
func FuzzReadJobTrace(f *testing.F) {
	var buf bytes.Buffer
	tw, err := NewJobTraceWriter(&buf, JobTraceHeader{Seed: 9, Scenario: json.RawMessage(`{"nodes":64}`)})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		rec.CLCost, rec.NLCost = 1.5, 0.25
		if err := tw.Write(&rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		f.Fatal(err)
	}
	trace := buf.Bytes()
	f.Add(trace)
	for _, cut := range []int{1, 20, len(trace) / 2, len(trace) - 3} {
		f.Add(trace[:cut])
	}
	f.Add([]byte(`{"kind":"nlarm-jobtrace","version":1,"seed":7}` + "\n" + `{"id":0,"procs":32,"submit_sec":0,"start_sec":0,"end_sec":600,"nodes":4}` + "\n"))
	f.Add([]byte(`{"kind":"other","version":2}` + "\n"))
	f.Add([]byte(`{"kind":"nlarm-jobtrace","version":3}` + "\n"))
	f.Add([]byte(`{"kind":"nlarm-jobtrace","version":2}` + "\n\n   \n" + `{"id":1}` + "\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, _, err := ReadJobTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if hdr.Kind != JobTraceKind || hdr.Version < JobTraceMinVersion || hdr.Version > JobTraceVersion {
			t.Fatalf("accepted header %+v", hdr)
		}
		once := rewriteJobTrace(t, hdr, recs)
		hdr, recs, _, err = ReadJobTrace(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("rewritten trace rejected: %v\n%s", err, once)
		}
		if twice := rewriteJobTrace(t, hdr, recs); !bytes.Equal(once, twice) {
			t.Fatalf("second rewrite differs:\n%s\n%s", once, twice)
		}
	})
}
