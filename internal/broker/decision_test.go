package broker

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nlarm/internal/alloc"
	"nlarm/internal/cluster"
	"nlarm/internal/loadgen"
)

// shardedBroker builds a broker over r's store whose 8-node cluster is
// above the shard threshold, so every cost model takes the hierarchical
// (non-dense) representation.
func shardedBroker(t *testing.T, r *rig, cfg Config) *Broker {
	t.Helper()
	cl, err := cluster.BuildUniform(2, 4, 8, 3.0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shard = alloc.ShardOptions{
		Plan:         alloc.NewShardPlan(cl.Topo.Shards(4), "topology"),
		Threshold:    4,
		MaxShardSize: 4,
		TopK:         1,
	}
	return New(r.st, r.sched, cfg)
}

// TestShardedDecisionPricesNetworkCost is the regression for the
// decision-log pricing hole: contributions only read the dense NLUnit
// matrix, which sharded models leave empty, so every decision above the
// shard threshold reported NetworkCost 0 and all-zero per-node NL. The
// pair accessor routes through the model's own representation.
func TestShardedDecisionPricesNetworkCost(t *testing.T) {
	r := newRig(t, 5, loadgen.Config{})
	b := shardedBroker(t, r, Config{Seed: 5})
	if _, err := b.Allocate(Request{Procs: 8, PPN: 4, Alpha: 0.5, Beta: 0.5}); err != nil {
		t.Fatal(err)
	}
	recs := b.Decisions(1)
	if len(recs) != 1 {
		t.Fatalf("decisions: %d", len(recs))
	}
	rec := recs[0]
	if rec.NetworkCost <= 0 {
		t.Fatalf("sharded decision NetworkCost = %g, want > 0", rec.NetworkCost)
	}
	nlSum := 0.0
	for _, c := range rec.Contributions {
		nlSum += c.NL
	}
	if nlSum <= 0 {
		t.Fatalf("sharded decision has all-zero per-node NL: %+v", rec.Contributions)
	}
	// The endpoint-charged column sums must still reconcile with the
	// pair-once total.
	if diff := nlSum - 2*rec.NetworkCost; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("NL column sum %g != 2 x NetworkCost %g", nlSum, rec.NetworkCost)
	}
}

// TestDecisionRingEviction pins the ring contract: the ring's total counts
// every decision ever recorded, Decisions(0) returns the retained window
// oldest first, and Decisions(limit) is the most recent limit of those.
func TestDecisionRingEviction(t *testing.T) {
	r := newRig(t, 6, loadgen.Config{})
	b := New(r.st, r.sched, Config{Seed: 6, DecisionLog: 4})
	for i := 0; i < 7; i++ {
		if _, err := b.Allocate(Request{Procs: 2, PPN: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.decisions.Total(); got != 7 {
		t.Fatalf("decisions.Total = %d, want 7 (evicted decisions must still count)", got)
	}
	recs := b.Decisions(0)
	if len(recs) != 4 {
		t.Fatalf("retained %d decisions, want ring size 4", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(4 + i); rec.Seq != want {
			t.Fatalf("Decisions(0)[%d].Seq = %d, want %d (oldest first)", i, rec.Seq, want)
		}
	}
	last := b.Decisions(2)
	if len(last) != 2 || last[0].Seq != 6 || last[1].Seq != 7 {
		t.Fatalf("Decisions(2) = %v, want Seq 6,7", seqsOf(last))
	}
	if got := b.Decisions(99); len(got) != 4 {
		t.Fatalf("Decisions(99) returned %d records, want the 4 retained", len(got))
	}
}

func seqsOf(recs []DecisionRecord) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out
}

// TestDecisionSeqMonotonicUnderConcurrency hammers the decision ring
// from both entry points at once (run with -race): direct Allocate
// callers on many goroutines racing the batcher's dispatcher, which
// finishes batched decisions on its own goroutine. Seq assignment and
// the ring append happen under one lock, so the retained records must
// come back in strictly increasing Seq order with no gaps lost inside
// the window.
func TestDecisionSeqMonotonicUnderConcurrency(t *testing.T) {
	r := newRig(t, 7, loadgen.Config{})
	const (
		workers = 8
		perW    = 16
		batched = 32
	)
	total := workers*perW + batched
	b := New(r.st, r.sched, Config{Seed: 7, DecisionLog: total})
	bt := NewBatcher(b, nil, BatcherOptions{})
	bt.Start()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				req := Request{Procs: 2 + 2*(w%3), PPN: 2}
				if w%2 == 0 {
					req.Force = true
				}
				_, _ = b.Allocate(req)
			}
		}(w)
	}
	wg.Add(batched)
	for i := 0; i < batched; i++ {
		err := bt.EnqueueAllocate("t", Request{Procs: 2, PPN: 2, Force: i%2 == 0},
			func(Response, error) { wg.Done() })
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	bt.Close()
	recs := b.Decisions(0)
	if len(recs) != total {
		t.Fatalf("retained %d decisions, want %d", len(recs), total)
	}
	if got := b.decisions.Total(); got != uint64(total) {
		t.Fatalf("decisions.Total = %d, want %d", got, total)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("Seq not strictly increasing at %d: %d after %d", i, recs[i].Seq, recs[i-1].Seq)
		}
	}
	if recs[0].Seq != 1 || recs[len(recs)-1].Seq != uint64(total) {
		t.Fatalf("Seq window [%d, %d], want [1, %d]", recs[0].Seq, recs[len(recs)-1].Seq, total)
	}
}

// TestCounterfactualOffIsBitIdentical pins the opt-in contract: with
// CounterfactualK = 0 the broker must answer exactly as before the
// feature existed — same responses, same decision records, and no
// "counterfactuals" key in the serialized record.
func TestCounterfactualOffIsBitIdentical(t *testing.T) {
	r := newRig(t, 8, loadgen.Config{})
	plain := New(r.st, r.sched, Config{Seed: 300})
	withK := New(r.st, r.sched, Config{Seed: 300, CounterfactualK: 4})
	reqs := []Request{
		{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7},
		{Procs: 4, PPN: 2},
		{Procs: 6, PPN: 2, Alpha: 0.8, Beta: 0.2, Force: true},
	}
	for i, req := range reqs {
		p, errP := plain.Allocate(req)
		k, errK := withK.Allocate(req)
		if (errP == nil) != (errK == nil) {
			t.Fatalf("req %d: err %v vs %v", i, errP, errK)
		}
		k.counterfactuals = nil
		if !reflect.DeepEqual(p, k) {
			t.Fatalf("req %d: responses diverged with retention on:\nplain %+v\nwithK %+v", i, p, k)
		}
	}
	pRecs, kRecs := plain.Decisions(0), withK.Decisions(0)
	if len(pRecs) != len(kRecs) {
		t.Fatalf("decision counts diverged: %d vs %d", len(pRecs), len(kRecs))
	}
	sawCF := false
	for i := range pRecs {
		if len(pRecs[i].Counterfactuals) != 0 {
			t.Fatalf("k=0 record %d retained counterfactuals: %+v", i, pRecs[i].Counterfactuals)
		}
		if len(kRecs[i].Counterfactuals) > 0 {
			sawCF = true
		}
		k := kRecs[i]
		k.Counterfactuals = nil
		if !reflect.DeepEqual(pRecs[i], k) {
			t.Fatalf("record %d diverged beyond Counterfactuals:\nplain %+v\nwithK %+v", i, pRecs[i], k)
		}
	}
	if !sawCF {
		t.Fatal("k=4 broker never retained a counterfactual candidate")
	}
	// Serialized k=0 records must stay byte-identical to the pre-feature
	// wire format: the key is omitted, not emitted empty.
	data, err := json.Marshal(pRecs)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "counterfactuals") {
		t.Fatalf("k=0 decision JSON leaks the counterfactuals key:\n%s", data)
	}
}

// TestCounterfactualRetention pins what k>0 actually stores: at most k
// rejected candidates, none of them the winner, each priced with the
// raw CL/NL sums regret analysis re-scores.
func TestCounterfactualRetention(t *testing.T) {
	r := newRig(t, 9, loadgen.Config{})
	b := New(r.st, r.sched, Config{Seed: 9, CounterfactualK: 2})
	resp, err := b.Allocate(Request{Procs: 4, PPN: 2, Alpha: 0.5, Beta: 0.5, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := b.Decisions(1)[0]
	if len(rec.Counterfactuals) == 0 {
		t.Fatal("no counterfactuals retained")
	}
	if len(rec.Counterfactuals) > 2 {
		t.Fatalf("retained %d counterfactuals, want <= k=2", len(rec.Counterfactuals))
	}
	if len(resp.Candidates) <= 2 {
		t.Fatalf("test needs more candidates than k, got %d", len(resp.Candidates))
	}
	var chosenStart int
	for _, c := range resp.Candidates {
		if c.Chosen {
			chosenStart = c.Start
		}
	}
	for _, cf := range rec.Counterfactuals {
		if cf.Start == chosenStart {
			t.Fatalf("winner retained as its own counterfactual: %+v", cf)
		}
		if len(cf.Nodes) == 0 {
			t.Fatalf("counterfactual without nodes: %+v", cf)
		}
		if cf.ComputeCost <= 0 {
			t.Fatalf("counterfactual not priced: %+v", cf)
		}
	}
	// Retained candidates are the cheapest rejected ones by decision-time
	// normalized score, cheapest first.
	for i := 1; i < len(rec.Counterfactuals); i++ {
		if rec.Counterfactuals[i].TotalLoad < rec.Counterfactuals[i-1].TotalLoad {
			t.Fatalf("counterfactuals out of order: %+v", rec.Counterfactuals)
		}
	}
	// Serialized records carry the new fields under the documented keys.
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"counterfactuals"`, `"start"`, `"total_load"`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("k>0 decision JSON missing %s:\n%s", key, data)
		}
	}
}

// TestTopRejectedBounds covers the selection helper directly: winner
// excluded, cheapest-by-TotalLoad first with Start as the tie-break,
// bounded at k.
func TestTopRejectedBounds(t *testing.T) {
	cands := []alloc.Candidate{
		{Start: 3, TotalLoad: 0.9},
		{Start: 1, TotalLoad: 0.2}, // winner
		{Start: 4, TotalLoad: 0.5},
		{Start: 0, TotalLoad: 0.5},
		{Start: 2, TotalLoad: 0.3},
	}
	got := alloc.TopRejected(cands, 1, 3)
	if len(got) != 3 {
		t.Fatalf("len %d, want 3", len(got))
	}
	if got[0].Start != 2 || got[1].Start != 0 || got[2].Start != 4 {
		t.Fatalf("order: %v, %v, %v", got[0].Start, got[1].Start, got[2].Start)
	}
	if alloc.TopRejected(cands, 1, 0) != nil {
		t.Fatal("k=0 must retain nothing")
	}
	if got := alloc.TopRejected(cands, 1, 99); len(got) != 4 {
		t.Fatalf("oversized k retained %d, want all 4 rejected", len(got))
	}
}
