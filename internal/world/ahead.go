package world

import (
	"sync"
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
// nothing a job or probe does feeds back into either. So a fill steps
// both ahead on the world's grid (start + k·StepSize) into frames, and
// StepTo takes every frame at or before its time.
//
// The frames sit in a ring of batches. The world reads one batch; the
// fill writes the others in turn, as far as the batch before the world's,
// and parks (returns from Run) once the ring is full. So while the loop
// prices and runs jobs the fill banks up to the whole ring, and a loop
// that outruns it waits only where the ring has run dry. The world
// queues a parked fill again only once half the ring is free: restarting
// it at each batch the world leaves woke a worker every few frames, and
// that cost the live rig more than the frames it banked. One fill per
// world is queued or running at a time, and it shares nothing with the
// world but the batches and the counters under mu (never the world's
// lock). Fills run on the process's run-ahead workers (simtime.Ahead),
// so a world owns no goroutine: nothing needs closing, and a dropped
// world is garbage once its last fill has parked. (A goroutine per fill
// would be as simple, but the runtime never frees a goroutine's
// descriptor, and fills started on one thread and ended on another left
// dozens of them on the heap.)

// ringBytes bounds the whole ring's frames: every node's load and every
// link's jitter factor. The background flows come on top, each frame's
// in a slice of its own that later fills of its slot reuse.
const ringBytes = 192 << 10

// ringBatches is how many batches the ring is cut into. Where ringBytes
// holds fewer frames, each batch is one frame, and there are never fewer
// than two batches: the one the world reads and one to fill.
const ringBatches = 8

// batch is perBatch consecutive frames of the background.
type batch struct {
	loads  []loadgen.NodeLoad // frame i's at [i·nodes, (i+1)·nodes)
	jitter []float64          // frame i's at [i·links, (i+1)·links)
	flows  [][]netmodel.Flow  // frame i's background flows
}

// ahead is the run-ahead stage and the world's cursor into it.
type ahead struct {
	step         time.Duration
	nodes, links int
	perBatch     int
	batches      []batch // batch t in batches[t%len(batches)]
	gen          *loadgen.Generator
	jit          *netmodel.Jitter
	fillK        int       // the next frame the fill writes
	fillAt       time.Time // its grid instant
	takenK       int       // the frames the world took
	takenAt      time.Time // the next one's grid instant

	// mu guards the handover; cond wakes the world when the fill has
	// written a batch or parked.
	mu       sync.Mutex
	cond     sync.Cond
	filled   int  // batches the fill wrote
	released int  // batches the world has left; the fill writes batch t while t < released+len(batches)
	running  bool // the fill is queued or running

	// The world's current frame.
	loads  []loadgen.NodeLoad
	flows  []netmodel.Flow
	jitter []float64
}

// newAhead starts stepping gen and jit from start and takes the frame
// at start.
func newAhead(cl *cluster.Cluster, gen *loadgen.Generator, jit *netmodel.Jitter, start time.Time, step time.Duration) *ahead {
	a := &ahead{step: step, nodes: cl.Size(), links: len(jit.Factors()), gen: gen, jit: jit, fillAt: start, takenAt: start, running: true}
	a.cond.L = &a.mu
	frames := ringBytes / (a.nodes*int(unsafe.Sizeof(loadgen.NodeLoad{})) + a.links*8)
	a.batches = make([]batch, min(ringBatches, max(2, frames)))
	a.perBatch = max(1, frames/len(a.batches))
	for i := range a.batches {
		a.batches[i] = batch{
			loads:  make([]loadgen.NodeLoad, a.perBatch*a.nodes),
			jitter: make([]float64, a.perBatch*a.links),
			flows:  make([][]netmodel.Flow, a.perBatch),
		}
	}
	gen.Start(start)
	simtime.Ahead(a)
	a.to(start)
	return a
}

// Run is the fill: batch after batch while the ring has a free one, then
// it parks.
func (a *ahead) Run() {
	a.mu.Lock()
	for a.filled < a.released+len(a.batches) {
		b := &a.batches[a.filled%len(a.batches)]
		a.mu.Unlock()
		a.fill(b)
		a.mu.Lock()
		a.filled++
		a.cond.Signal()
	}
	a.running = false
	a.cond.Signal()
	a.mu.Unlock()
}

// fill writes the next perBatch frames into b.
func (a *ahead) fill(b *batch) {
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
}

// to makes the last frame at or before now the current one. Taking the
// first frame of a batch leaves the one before. The wait for a batch
// holds the world's lock, which a fill never takes, so it ends when the
// fill has written the batch.
func (a *ahead) to(now time.Time) {
	for !a.takenAt.After(now) {
		k := a.takenK
		i := k % a.perBatch
		t := k / a.perBatch
		b := &a.batches[t%len(a.batches)]
		if i == 0 {
			a.take(t)
		}
		a.loads = b.loads[i*a.nodes : (i+1)*a.nodes]
		a.jitter = b.jitter[i*a.links : (i+1)*a.links]
		a.flows = b.flows[i]
		a.takenK++
		a.takenAt = a.takenAt.Add(a.step)
	}
}

// take frees the batches before t, queues a parked fill once half the
// ring is free, and waits until batch t is written.
func (a *ahead) take(t int) {
	a.mu.Lock()
	a.released = t
	if !a.running && 2*(t+len(a.batches)-a.filled) >= len(a.batches) {
		a.running = true
		a.mu.Unlock()
		simtime.Ahead(a)
		a.mu.Lock()
	}
	for a.filled <= t {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// settle waits until the world's fill has parked: none is then queued or
// running. The batches it wrote stay in the ring, for the takes that
// need them.
func (a *ahead) settle() {
	a.mu.Lock()
	for a.running {
		a.cond.Wait()
	}
	a.mu.Unlock()
}
