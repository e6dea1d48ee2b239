package sim

import (
	"math"
	"sort"
	"testing"
	"time"

	"nlarm/internal/heapq"
	"nlarm/internal/rng"
)

// TestRunLessMatchesTime checks the event keys, integer nanoseconds
// since the scenario start, against time.Time's own order: runLess
// agrees with Before/Equal-then-seq on every pair, and the heap pops in
// that order. The instants span the whole time.Duration range on both
// sides of a start in a fixed zone, and include the same instant in UTC
// and in other zones, and 1 ns neighbours.
func TestRunLessMatchesTime(t *testing.T) {
	ist := time.FixedZone("IST", 5*3600+1800)
	west := time.FixedZone("", -(3*3600 + 15*60))
	start := scenarioEpoch.In(west)
	span := time.Duration(math.MaxInt64)
	ats := []time.Time{
		start, scenarioEpoch, scenarioEpoch.In(ist), time.Date(2020, 3, 2, 13, 30, 0, 0, ist),
		start.Add(1), start.Add(-1), start.Add(span), start.Add(span - 1).In(ist), start.Add(-span), start.Add(1 - span),
	}
	r := rng.New(11)
	for i := 0; i < 40; i++ {
		at := start.Add(time.Duration(r.Uint64()&math.MaxInt64) - span/2)
		ats = append(ats, at, at.Add(1), at.In(ist))
	}
	// Each instant three times, under distinct shuffled sequences; the
	// job's id indexes its instant.
	seqs := make([]int, 3*len(ats))
	for i := range seqs {
		seqs[i] = i
	}
	r.Shuffle(len(seqs), func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })
	entries := make([]runEntry, len(seqs))
	for i, seq := range seqs {
		at := ats[i%len(ats)]
		entries[i] = runEntry{int64(at.Sub(start)), seq, &simJob{id: i % len(ats)}}
	}
	refLess := func(a, b runEntry) bool {
		if ta, tb := ats[a.job.id], ats[b.job.id]; !ta.Equal(tb) {
			return ta.Before(tb)
		}
		return a.seq < b.seq
	}
	for _, a := range entries {
		for _, b := range entries {
			if got, want := runLess(a, b), refLess(a, b); got != want {
				t.Fatalf("runLess(%v #%d, %v #%d) = %v, want %v", ats[a.job.id], a.seq, ats[b.job.id], b.seq, got, want)
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
		t.Fatalf("pop %d: %v #%d, want %v #%d", i, ats[got.job.id], got.seq, ats[want[i].job.id], want[i].seq)
	}
}
