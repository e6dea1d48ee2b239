package alloc

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
)

// TestCostModelRefusals pins what Equations 1 and 2 refuse and what they
// price at a degenerate input: a negative attribute value or weight, or
// a window mean that overflows to +Inf, sets CLErr naming the attribute, a zero-sum maximised column prices 0 (CL
// equals the oracle's and a model's that gives the column no weight), and
// a negative measured latency sets NLErr on the dense and the sharded
// model alike.
func TestCostModelRefusals(t *testing.T) {
	base := func() *metrics.Snapshot { return randomSnapshot(rng.New(3), 12, false) }
	first := func(snap *metrics.Snapshot) int { return MonitoredLivehosts(snap)[0] }
	sharded := ShardOptions{Threshold: 2, MaxShardSize: 4}
	for _, tc := range []struct {
		name         string
		edit         func(snap *metrics.Snapshot, w *Weights)
		clErr, nlErr string // "" means accepted
	}{
		{name: "negative attribute", clErr: `"freq"`, edit: func(snap *metrics.Snapshot, _ *Weights) {
			na := snap.Nodes[first(snap)]
			na.FreqGHz = -1
			snap.Nodes[first(snap)] = na
		}},
		{name: "overflowing window mean", clErr: `"avail_mem"`, edit: func(snap *metrics.Snapshot, _ *Weights) {
			na := snap.Nodes[first(snap)]
			na.AvailMemMB = stats.Windowed{M1: math.MaxFloat64, M5: math.MaxFloat64, M15: math.MaxFloat64}
			snap.Nodes[first(snap)] = na
		}},
		{name: "negative weight", clErr: `"cores"`, edit: func(_ *metrics.Snapshot, w *Weights) { w.Cores = -0.1 }},
		{name: "zero-sum maximised column", edit: func(snap *metrics.Snapshot, _ *Weights) {
			for id, na := range snap.Nodes {
				na.FreqGHz = 0
				snap.Nodes[id] = na
			}
		}},
		{name: "negative latency", nlErr: "negative latency", edit: func(snap *metrics.Snapshot, _ *Weights) {
			for k, pl := range snap.Latency {
				if _, ok := snap.Bandwidth[k]; ok {
					pl.Mean1, pl.Last = -5*time.Millisecond, -5*time.Millisecond
					snap.Latency[k] = pl
					return
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, w := base(), PaperWeights()
			tc.edit(snap, &w)
			for _, m := range []*CostModel{NewCostModel(snap, w, false), NewCostModelSharded(snap, w, false, sharded)} {
				for _, e := range []struct {
					err  error
					want string
				}{{m.CLErr(), tc.clErr}, {m.NLErr(), tc.nlErr}} {
					if (e.err != nil) != (e.want != "") || (e.err != nil && !strings.Contains(e.err.Error(), e.want)) {
						t.Fatalf("sharded=%v: error %v, want %q", m.Sharded(), e.err, e.want)
					}
				}
			}
			if tc.clErr != "" || tc.nlErr != "" {
				return
			}
			m := NewCostModel(snap, w, false)
			checkModel(t, m, newOracle(snap, w), Request{Procs: 1})
			unweighted := w
			unweighted.Freq = 0
			if !sameBits(m.CL, NewCostModel(snap, unweighted, false).CL) {
				t.Fatal("a zero-sum column moved CL")
			}
		})
	}
}

// TestModelEntryPointsRefuseOtherWeights pins that the entry points that
// take a priced model refuse a request whose weights differ from the
// model's, with errWeights, instead of re-pricing, and serve the request
// that carries the model's weights.
func TestModelEntryPointsRefuseOtherWeights(t *testing.T) {
	snap := randomSnapshot(rng.New(5), 16, false)
	w := PaperWeights()
	w.Cores, w.Users = 0.05, 0.05
	m := NewCostModel(snap, w, false)
	caps := make([]int, m.Len())
	for i := range caps {
		caps[i] = 4
	}
	var sc AllocScratch
	entries := map[string]func(req Request) error{
		"net-load-aware": func(req Request) error {
			_, err := NetLoadAware{}.AllocateModel(m, req, rng.New(1))
			return err
		},
		"load-aware": func(req Request) error {
			_, err := LoadAware{}.AllocateModel(m, req, rng.New(1))
			return err
		},
		"explain": func(req Request) error {
			_, _, err := NetLoadAware{}.AllocateExplainModel(m, req)
			return err
		},
		"constrained": func(req Request) error {
			_, err := NetLoadAware{}.AllocateConstrained(m, req, caps, nil, &sc)
			return err
		},
	}
	paper := Request{Procs: 8, PPN: 4}
	own := paper
	own.Weights = w
	for name, allocate := range entries {
		if err := allocate(paper); !errors.Is(err, errWeights) {
			t.Errorf("%s: paper-weight request on a re-weighted model: error %v, want errWeights", name, err)
		}
		if err := allocate(own); err != nil {
			t.Errorf("%s: request with the model's weights: %v", name, err)
		}
	}
}

// fuzzOps are the snapshot edits FuzzCostModel decodes, one per 4-byte op.
const (
	opCPULoad = iota
	opCPUUtilM1
	opFlowRate
	opAvailMemM5
	opCores
	opFreq
	opTotalMem
	opUsers
	opLatency
	opAvail
	opPeak
	opUnmeasure
	opUnpublish
	opOverflowMean
	numFuzzOps
)

// fuzzSnapshot decodes fuzz bytes into a snapshot of at most 12 nodes:
// randomSnapshot's stream seeded by the first 8 bytes (hostile when the
// ninth is odd) over 1 + (tenth mod 12) nodes, then each following 4-byte
// op edits it: op[0] names the edit, op[1] the node (or, with op[2], the
// pair) and op[3] the value — zero, negative, huge (up to 2.55e18, inside
// int64 so Equation 3's ceiling converts) or ordinary. opOverflowMean
// instead makes one windowed attribute's (op[3] mod 4) mean overflow to
// +Inf.
func fuzzSnapshot(data []byte) *metrics.Snapshot {
	var head [10]byte
	copy(head[:], data)
	snap := randomSnapshot(rng.New(binary.LittleEndian.Uint64(head[:8])), 1+int(head[9])%12, head[8]%2 == 1)
	ids := append([]int(nil), snap.Livehosts...)
	for ops := data[min(len(data), 10):]; len(ops) >= 4; ops = ops[4:] {
		op, sel := ops[0]%numFuzzOps, float64(ops[3])
		v := sel / 8
		switch ops[3] % 4 {
		case 0:
			v = 0
		case 1:
			v = -sel - 1
		case 2:
			v = sel * 1e16
		}
		u, x := ids[int(ops[1])%len(ids)], ids[int(ops[2])%len(ids)]
		if op >= opLatency && op <= opUnmeasure {
			if u == x {
				continue
			}
			k := metrics.Pair(u, x)
			switch op {
			case opLatency:
				d := time.Duration(v)
				snap.Latency[k] = metrics.PairLatency{U: k.U, V: k.V, Timestamp: t0, Last: d, Mean1: d}
			case opAvail, opPeak:
				pb := snap.Bandwidth[k]
				pb.U, pb.V, pb.Timestamp = k.U, k.V, t0
				if op == opAvail {
					pb.AvailBps = v
				} else {
					pb.PeakBps = v
				}
				snap.Bandwidth[k] = pb
			case opUnmeasure:
				delete(snap.Latency, k)
			}
			continue
		}
		na, ok := snap.Nodes[u]
		if !ok {
			continue
		}
		switch op {
		case opCPULoad:
			na.CPULoad = stats.Windowed{M1: v, M5: v, M15: v}
		case opCPUUtilM1:
			na.CPUUtilPct.M1 = v
		case opFlowRate:
			na.FlowRateBps = stats.Windowed{M1: v, M5: v, M15: v}
		case opAvailMemM5:
			na.AvailMemMB.M5 = v
		case opCores:
			na.Cores = int(v)
		case opFreq:
			na.FreqGHz = v
		case opTotalMem:
			na.TotalMemMB = v
		case opUsers:
			na.Users = int(v)
		case opUnpublish:
			delete(snap.Nodes, u)
			continue
		case opOverflowMean:
			// M5 + M15 overflows, so the window mean is +Inf; M1, which
			// Equation 3 reads as the load, keeps its value.
			w := []*stats.Windowed{&na.CPULoad, &na.CPUUtilPct, &na.FlowRateBps, &na.AvailMemMB}[ops[3]%4]
			w.M5, w.M15 = math.MaxFloat64, math.MaxFloat64
		}
		snap.Nodes[u] = na
	}
	return snap
}

// fuzzSeed encodes randomSnapshot(rng.New(seed), n, hostile) followed by
// ops, in fuzzSnapshot's format.
func fuzzSeed(seed uint64, n int, hostile bool, ops ...[4]byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, seed)
	h := byte(0)
	if hostile {
		h = 1
	}
	b = append(b, h, byte(n-1))
	for _, op := range ops {
		b = append(b, op[:]...)
	}
	return b
}

// FuzzCostModel looks for inputs on which the dense and the sharded cost
// models disagree, or the dense model disagrees with the oracle: neither
// constructor nor an explain allocation on either may panic, both models
// must agree on whether CLErr and NLErr are nil, and whenever the dense
// model accepts, its CL, CLUnit, NLUnit and Equation 3 capacities must
// equal the oracle's bit for bit (checkModel).
func FuzzCostModel(f *testing.F) {
	// The hub's hostile generator, and an all-measured one.
	for s := uint64(1); s <= 16; s++ {
		f.Add(fuzzSeed(s*7919, 2+int(s)%11, true))
	}
	f.Add(fuzzSeed(42, 12, false))
	// One pair at a negative latency, which both models must refuse; zero
	// and huge attributes, a zero-core node, an unmeasured pair and an
	// unpublished node; a huge peak and available bandwidth, and a
	// negative load; an available-memory window whose mean overflows,
	// which both models must refuse.
	f.Add(fuzzSeed(3, 12, false, [4]byte{opLatency, 0, 1, 0x11}))
	f.Add(fuzzSeed(7, 9, false, [4]byte{opFreq, 2, 0, 0}, [4]byte{opAvailMemM5, 3, 0, 0xfe},
		[4]byte{opCores, 4, 0, 0}, [4]byte{opUnmeasure, 0, 5, 0}, [4]byte{opUnpublish, 6, 0, 0}))
	f.Add(fuzzSeed(11, 6, true, [4]byte{opPeak, 1, 2, 0x06}, [4]byte{opAvail, 2, 3, 0xfe}, [4]byte{opCPULoad, 0, 0, 0x01}))
	f.Add(fuzzSeed(5, 8, false, [4]byte{opOverflowMean, 1, 0, 3}))

	w := PaperWeights()
	req := Request{Procs: 6, Alpha: 0.5, Beta: 0.5}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap := fuzzSnapshot(data)
		dense := NewCostModel(snap, w, false)
		sharded := NewCostModelSharded(snap, w, false, ShardOptions{Threshold: 2, MaxShardSize: 4})
		if (dense.CLErr() == nil) != (sharded.CLErr() == nil) || (dense.NLErr() == nil) != (sharded.NLErr() == nil) {
			t.Fatalf("dense CL %v NL %v; sharded CL %v NL %v", dense.CLErr(), dense.NLErr(), sharded.CLErr(), sharded.NLErr())
		}
		NetLoadAware{}.AllocateExplainModel(dense, req)
		NetLoadAware{}.AllocateExplainModel(sharded, req)
		if dense.CLErr() == nil && dense.NLErr() == nil {
			checkModel(t, dense, newOracle(snap, w), req)
		}
	})
}
