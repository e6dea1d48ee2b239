package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"nlarm/internal/rng"
)

// recordLine writes rec through tw and returns the bytes that reached
// out, with Write's error.
func recordLine(t testing.TB, tw *JobTraceWriter, out *bytes.Buffer, rec JobRecord) ([]byte, error) {
	t.Helper()
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	n := out.Len()
	err := tw.Write(&rec)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(out.Bytes()[n:]), err
}

// checkRecordLine is the encoder's property: Write emits json.Marshal's
// bytes and a newline, and fails exactly when json.Marshal fails,
// writing nothing. It reports whether rec took the canon path.
func checkRecordLine(t testing.TB, tw *JobTraceWriter, out *bytes.Buffer, rec JobRecord) bool {
	t.Helper()
	want, wantErr := json.Marshal(rec)
	if wantErr == nil {
		want = append(want, '\n')
	}
	got, gotErr := recordLine(t, tw, out, rec)
	if (gotErr != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
		t.Fatalf("%#v:\n got %q (err %v)\nwant %q (err %v)", rec, got, gotErr, want, wantErr)
	}
	_, ok := appendJobRecord(nil, &rec)
	return ok
}

func newTestWriter(t testing.TB) (*JobTraceWriter, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	tw, err := NewJobTraceWriter(&out, JobTraceHeader{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tw, &out
}

// TestJobRecordMatchesJSON checks the canon writer against json.Marshal
// on the inputs encoding/json treats specially: every omitempty member at
// zero and at -0.0, the rejected -1 start and end, floats at the edges
// of %f and %e, the integer extremes, and cohorts that need escaping,
// which must take the fallback and still match. NaN and ±Inf in any
// float member must fail on both paths.
func TestJobRecordMatchesJSON(t *testing.T) {
	negZero := math.Copysign(0, -1)
	base := JobRecord{ID: 7, Cohort: "batch", Client: 3, Procs: 32, PPN: 8, Priority: 1,
		SubmitSec: 12.5, StartSec: 30, EndSec: 630.25, WalltimeSec: 900, Nodes: 4, Backfilled: true,
		CLCost: 1.75, NLCost: 0.125}
	cases := []struct {
		name  string
		edit  func(*JobRecord)
		canon bool
	}{
		{"full", func(*JobRecord) {}, true},
		{"zero record", func(r *JobRecord) { *r = JobRecord{} }, true},
		{"omitempty at zero", func(r *JobRecord) {
			r.Cohort, r.Client, r.PPN, r.Priority, r.WalltimeSec, r.Backfilled, r.CLCost, r.NLCost = "", 0, 0, 0, 0, false, 0, 0
		}, true},
		{"omitempty at -0.0", func(r *JobRecord) { r.WalltimeSec, r.CLCost, r.NLCost = negZero, negZero, negZero }, true},
		{"required at -0.0", func(r *JobRecord) { r.SubmitSec, r.StartSec, r.EndSec = negZero, negZero, negZero }, true},
		{"rejected", func(r *JobRecord) { r.StartSec, r.EndSec, r.CLCost, r.NLCost = -1, -1, 0, 0 }, true},
		{"1e-7", func(r *JobRecord) { r.SubmitSec, r.CLCost = 1e-7, -1e-7 }, true},
		{"5e-324", func(r *JobRecord) { r.StartSec, r.NLCost = 5e-324, -5e-324 }, true},
		{"1e21", func(r *JobRecord) { r.EndSec, r.WalltimeSec = 1e21, -1e21 }, true},
		{"just under 1e21", func(r *JobRecord) { r.EndSec = math.Nextafter(1e21, 0) }, true},
		{"1e-6", func(r *JobRecord) { r.SubmitSec, r.CLCost = 1e-6, math.Nextafter(1e-6, 0) }, true},
		{"MaxFloat64", func(r *JobRecord) { r.NLCost = math.MaxFloat64 }, true},
		{"MaxInt64", func(r *JobRecord) {
			r.ID, r.Client, r.Procs, r.PPN, r.Priority, r.Nodes = math.MaxInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64
		}, true},
		{"MinInt64", func(r *JobRecord) { r.ID, r.Client, r.Priority = math.MinInt64, math.MinInt64, -1 }, true},
		{"cohort DEL", func(r *JobRecord) { r.Cohort = "a\x7fb" }, true},
		{"cohort <", func(r *JobRecord) { r.Cohort = "a<b" }, false},
		{"cohort >", func(r *JobRecord) { r.Cohort = "a>b" }, false},
		{"cohort &", func(r *JobRecord) { r.Cohort = "R&D" }, false},
		{`cohort "`, func(r *JobRecord) { r.Cohort = `say "hi"` }, false},
		{`cohort \`, func(r *JobRecord) { r.Cohort = `a\b` }, false},
		{"cohort newline", func(r *JobRecord) { r.Cohort = "a\nb" }, false},
		{"cohort é", func(r *JobRecord) { r.Cohort = "équipe" }, false},
		{"cohort U+2028", func(r *JobRecord) { r.Cohort = "a\u2028b" }, false},
		{"cohort invalid UTF-8", func(r *JobRecord) { r.Cohort = "a\xffb" }, false},
	}
	tw, out := newTestWriter(t)
	for _, tc := range cases {
		rec := base
		tc.edit(&rec)
		if fast := checkRecordLine(t, tw, out, rec); fast != tc.canon {
			t.Errorf("%s: canon path %v, want %v", tc.name, fast, tc.canon)
		}
	}
	members := []func(*JobRecord) *float64{
		func(r *JobRecord) *float64 { return &r.SubmitSec },
		func(r *JobRecord) *float64 { return &r.StartSec },
		func(r *JobRecord) *float64 { return &r.EndSec },
		func(r *JobRecord) *float64 { return &r.WalltimeSec },
		func(r *JobRecord) *float64 { return &r.CLCost },
		func(r *JobRecord) *float64 { return &r.NLCost },
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, member := range members {
			rec := base
			*member(&rec) = bad
			records := tw.Records()
			if checkRecordLine(t, tw, out, rec) {
				t.Errorf("%v in %#v took the canon path", bad, rec)
			}
			if tw.Records() != records {
				t.Fatalf("a refused record was counted")
			}
		}
	}
	// A refused record leaves the writer usable.
	checkRecordLine(t, tw, out, base)
}

// recordGen draws job records with the values encoding/json treats
// specially mixed in among ordinary ones.
type recordGen struct{ r *rng.Rand }

func (g recordGen) float() float64 {
	switch g.r.Intn(10) {
	case 0:
		return [...]float64{0, math.Copysign(0, -1), -1, 1e-7, 5e-324, 1e21, -1e21, 1e-6,
			math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}[g.r.Intn(14)]
	case 1:
		return g.r.NormMS(0, 1) * 1e-9
	case 2:
		return g.r.NormMS(0, 1) * 1e25
	default:
		return g.r.NormMS(0, 1) * math.Pow(10, float64(g.r.Intn(12)-3))
	}
}

func (g recordGen) int() int {
	switch g.r.Intn(8) {
	case 0:
		return [...]int{0, -1, math.MaxInt64, math.MinInt64}[g.r.Intn(4)]
	case 1:
		return int(g.r.Uint64())
	default:
		return g.r.Intn(600) - 50
	}
}

func (g recordGen) cohort() string {
	if g.r.Intn(3) > 0 {
		return []string{"batch", "interactive", "array", "", "a b/c-1"}[g.r.Intn(5)]
	}
	parts := []string{"a", "Z", "0", "-", " ", "<", ">", "&", `"`, `\`, "\n", "\t", "\x7f", "é", "\u2028", "\xff"}
	var b []byte
	for n := g.r.Intn(6); n > 0; n-- {
		b = append(b, parts[g.r.Intn(len(parts))]...)
	}
	return string(b)
}

func (g recordGen) record() JobRecord {
	return JobRecord{ID: g.int(), Cohort: g.cohort(), Client: g.int(), Procs: g.int(), PPN: g.int(),
		Priority: g.int(), SubmitSec: g.float(), StartSec: g.float(), EndSec: g.float(),
		WalltimeSec: g.float(), Nodes: g.int(), Backfilled: g.r.Intn(2) == 0, CLCost: g.float(), NLCost: g.float()}
}

// TestJobRecordRandomMatchesJSON is the same property on seeded random
// records, most of which must take the canon path.
func TestJobRecordRandomMatchesJSON(t *testing.T) {
	g := recordGen{rng.New(42)}
	tw, out := newTestWriter(t)
	fast := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		if checkRecordLine(t, tw, out, g.record()) {
			fast++
		}
	}
	if fast < trials/4 {
		t.Fatalf("only %d of %d records took the canon path", fast, trials)
	}
}

// FuzzJobRecordEncode checks the encoder's property on arbitrary members.
func FuzzJobRecordEncode(f *testing.F) {
	g := recordGen{rng.New(7)}
	for i := 0; i < 16; i++ {
		r := g.record()
		f.Add(int64(r.ID), r.Cohort, int64(r.Client), int64(r.Procs), int64(r.PPN), int64(r.Priority),
			r.SubmitSec, r.StartSec, r.EndSec, r.WalltimeSec, int64(r.Nodes), r.Backfilled, r.CLCost, r.NLCost)
	}
	tw, out := newTestWriter(f)
	f.Fuzz(func(t *testing.T, id int64, cohort string, client, procs, ppn, priority int64,
		submit, start, end, walltime float64, nodes int64, backfilled bool, cl, nl float64) {
		out.Reset()
		checkRecordLine(t, tw, out, JobRecord{ID: int(id), Cohort: cohort, Client: int(client), Procs: int(procs),
			PPN: int(ppn), Priority: int(priority), SubmitSec: submit, StartSec: start, EndSec: end,
			WalltimeSec: walltime, Nodes: int(nodes), Backfilled: backfilled, CLCost: cl, NLCost: nl})
	})
}

// TestJobTraceWriteAllocatesNothing guards the canon path: once its line
// buffer has grown, writing a record allocates nothing.
func TestJobTraceWriteAllocatesNothing(t *testing.T) {
	tw, err := NewJobTraceWriter(io.Discard, JobTraceHeader{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := JobRecord{ID: 123456, Cohort: "interactive", Client: 41, Procs: 12, PPN: 4, Priority: 1,
		SubmitSec: 86400.123456789, StartSec: 86512.5, EndSec: 87012.000001, WalltimeSec: 450,
		Nodes: 3, Backfilled: true, CLCost: 2.718281828459045, NLCost: 1e-7}
	if err := tw.Write(&rec); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		rec.ID++
		if err := tw.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a warm Write allocates %v times, want 0", n)
	}
}
