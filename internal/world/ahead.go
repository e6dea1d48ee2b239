package world

import (
	"time"
	"unsafe"

	"nlarm/internal/cluster"
	"nlarm/internal/loadgen"
	"nlarm/internal/netmodel"
	"nlarm/internal/simtime"
)

// The world's background — the loadgen.Generator's node loads and
// flows, and every link's bandwidth jitter — evolves on its own: each
// node draws only from its own stream, each link only from its own, and
// nothing a job or probe does feeds back into either. So fills step
// both ahead on the world's grid (start + k·StepSize) into frames, and
// StepTo takes every frame at or before its time.
//
// The frames sit in two batches: while the world reads one, a fill
// writes the other. A fill writes one batch and hands it over; the world
// queues the next fill when it takes a batch. So one fill per world runs
// at a time, and it shares nothing with the world but the batch it hands
// over (never the world's lock). Fills run on the process's run-ahead
// workers (simtime.Ahead), so a world owns no goroutine: nothing needs
// closing, and a dropped world is garbage once its last fill has ended.
// (A goroutine per fill would be as simple, but the runtime never frees
// a goroutine's descriptor, and fills started on one thread and ended on
// another left dozens of them on the heap.)

// ringBytes bounds both batches' frames: every node's load and every
// link's jitter factor. The background flows come on top, each frame's
// in a slice of its own that later fills of its slot reuse.
const ringBytes = 192 << 10

// batch is perBatch consecutive frames of the background.
type batch struct {
	loads  []loadgen.NodeLoad // frame i's at [i·nodes, (i+1)·nodes)
	jitter []float64          // frame i's at [i·links, (i+1)·links)
	flows  [][]netmodel.Flow  // frame i's background flows
	done   chan struct{}      // the fill's handover: one send per fill
}

// ahead is the run-ahead stage and the world's cursor into it.
type ahead struct {
	step            time.Duration
	nodes, links    int
	perBatch        int
	batches         [2]batch
	gen             *loadgen.Generator
	jit             *netmodel.Jitter
	fillK, takenK   int       // the next frame a fill writes; the frames the world took
	fillAt, takenAt time.Time // their grid instants

	// The world's current frame.
	loads  []loadgen.NodeLoad
	flows  []netmodel.Flow
	jitter []float64
}

// newAhead starts stepping gen and jit from start and takes the frame
// at start.
func newAhead(cl *cluster.Cluster, gen *loadgen.Generator, jit *netmodel.Jitter, start time.Time, step time.Duration) *ahead {
	a := &ahead{step: step, nodes: cl.Size(), links: len(jit.Factors()), gen: gen, jit: jit, fillAt: start, takenAt: start}
	frameBytes := a.nodes*int(unsafe.Sizeof(loadgen.NodeLoad{})) + a.links*8
	a.perBatch = max(1, ringBytes/frameBytes/2)
	for i := range a.batches {
		a.batches[i] = batch{
			loads:  make([]loadgen.NodeLoad, a.perBatch*a.nodes),
			jitter: make([]float64, a.perBatch*a.links),
			flows:  make([][]netmodel.Flow, a.perBatch),
			done:   make(chan struct{}, 1),
		}
	}
	gen.Start(start)
	simtime.Ahead(a)
	a.to(start)
	return a
}

// Run is one fill: the next perBatch frames into the batch they belong
// in, then the handover.
func (a *ahead) Run() {
	b := &a.batches[a.fillK/a.perBatch%2]
	for i := range a.perBatch {
		if a.fillK > 0 {
			a.gen.Step(a.fillAt, a.step)
			a.jit.Step(a.step)
		}
		a.gen.Loads(b.loads[i*a.nodes : (i+1)*a.nodes])
		copy(b.jitter[i*a.links:], a.jit.Factors())
		flows := b.flows[i][:0]
		for _, f := range a.gen.Flows() {
			flows = append(flows, netmodel.Flow{Src: f.Src, Dst: f.Dst, RateBps: f.RateBps, Owner: netmodel.BackgroundOwner})
		}
		b.flows[i] = flows
		a.fillK++
		a.fillAt = a.fillAt.Add(a.step)
	}
	b.done <- struct{}{}
}

// to makes the last frame at or before now the current one. Taking the
// first frame of a batch waits for its fill and starts the next, into
// the batch the world has just left. The wait holds the world's lock,
// which a fill never takes, so it ends when the fill does.
func (a *ahead) to(now time.Time) {
	for !a.takenAt.After(now) {
		k := a.takenK
		i := k % a.perBatch
		b := &a.batches[k/a.perBatch%2]
		if i == 0 {
			<-b.done
			simtime.Ahead(a)
		}
		a.loads = b.loads[i*a.nodes : (i+1)*a.nodes]
		a.jitter = b.jitter[i*a.links : (i+1)*a.links]
		a.flows = b.flows[i]
		a.takenK++
		a.takenAt = a.takenAt.Add(a.step)
	}
}

// settle waits until no fill of the world is queued or running. The
// batch that fill wrote stays handed over, for the take that needs it.
func (a *ahead) settle() {
	b := &a.batches[((a.takenK-1)/a.perBatch+1)%2]
	b.done <- <-b.done
}
