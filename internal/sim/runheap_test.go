package sim

import (
	"sort"
	"testing"
	"time"

	"nlarm/internal/heapq"
	"nlarm/internal/rng"
)

// TestRunLessMatchesTime checks the run heap's integer keys against
// time.Time's own order: runLess agrees with Before/Equal-then-seq on
// every pair, and the heap pops in that order. The end times include
// the zero time, year 9999, instants outside UnixNano's 1678–2262 range,
// the same instant in UTC and in fixed zones, and 1 ns neighbours.
func TestRunLessMatchesTime(t *testing.T) {
	ist := time.FixedZone("IST", 5*3600+1800)
	west := time.FixedZone("", -(3*3600 + 15*60))
	last := time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC)
	ends := []time.Time{
		{}, time.Time{}.Add(1), last, last.In(ist), last.Add(-1),
		scenarioEpoch, scenarioEpoch.In(ist), scenarioEpoch.In(west), time.Date(2020, 3, 2, 13, 30, 0, 0, ist),
		scenarioEpoch.Add(1), scenarioEpoch.Add(-1),
		time.Date(1600, 6, 1, 0, 0, 0, 5, time.UTC), time.Date(2300, 6, 1, 0, 0, 0, 5, ist),
	}
	r := rng.New(11)
	for i := 0; i < 40; i++ {
		e := time.Date(1+r.Intn(9999), time.Month(1+r.Intn(12)), 1+r.Intn(28), r.Intn(24), r.Intn(60), r.Intn(60),
			r.Intn(1e9), time.UTC)
		ends = append(ends, e, e.Add(1), e.In(west))
	}
	refLess := func(a, b runEntry) bool {
		if !a.job.end.Equal(b.job.end) {
			return a.job.end.Before(b.job.end)
		}
		return a.seq < b.seq
	}
	// Each end time three times, under distinct shuffled start sequences.
	seqs := make([]int, 3*len(ends))
	for i := range seqs {
		seqs[i] = i
	}
	r.Shuffle(len(seqs), func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })
	entries := make([]runEntry, len(seqs))
	for i, seq := range seqs {
		entries[i] = newRunEntry(&simJob{end: ends[i%len(ends)]}, seq)
	}
	for _, a := range entries {
		for _, b := range entries {
			if got, want := runLess(a, b), refLess(a, b); got != want {
				t.Fatalf("runLess(%v #%d, %v #%d) = %v, want %v", a.job.end, a.seq, b.job.end, b.seq, got, want)
			}
		}
	}
	var h []runEntry
	for _, e := range entries {
		h = heapq.Push(h, e, runLess)
	}
	want := append([]runEntry(nil), entries...)
	sort.SliceStable(want, func(i, j int) bool { return refLess(want[i], want[j]) })
	for i := range want {
		var got runEntry
		if got, h = heapq.Pop(h, runLess); got.job == want[i].job {
			continue
		}
		t.Fatalf("pop %d: %v #%d, want %v #%d", i, got.job.end, got.seq, want[i].job.end, want[i].seq)
	}
}
