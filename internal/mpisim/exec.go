package mpisim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
)

// Env is the view a running MPI job has of the cluster. The simulation
// world implements it.
type Env interface {
	// NodeCores returns the logical core count of node id.
	NodeCores(id int) int
	// NodeFreqGHz returns the CPU clock of node id.
	NodeFreqGHz(id int) float64
	// NodeBackgroundLoad returns the runnable-process count on node id
	// contributed by everything except the asking job (background sessions
	// and other jobs).
	NodeBackgroundLoad(id int, exceptJob int) float64
	// AvailBandwidthBps returns the effective bandwidth between two nodes
	// for the asking job, i.e. excluding the job's own charged traffic.
	AvailBandwidthBps(u, v int, exceptJob int) float64
	// Latency returns the current one-way latency between two nodes.
	Latency(u, v int) time.Duration
}

// NodeFlow is the average network traffic a running job currently imposes
// between two nodes.
type NodeFlow struct {
	Src, Dst int
	RateBps  float64
}

// nodeTraffic is per-iteration traffic aggregated from ranks to nodes.
type nodeTraffic struct {
	a, b  int
	bytes float64
	msgs  int
}

// Result summarizes a finished job.
type Result struct {
	JobID       int
	Name        string
	Nodes       []int
	Ranks       int
	Start       time.Time
	End         time.Time
	Elapsed     time.Duration
	ComputeTime time.Duration // accumulated compute-phase time
	CommTime    time.Duration // accumulated communication-phase time
	// Failed marks a job aborted before completing its iterations (e.g.
	// a node it ran on died — an MPI job loses the whole communicator).
	Failed bool
	// FailureReason describes the abort cause when Failed.
	FailureReason string
}

// CommFraction returns the fraction of run time spent communicating.
func (r Result) CommFraction() float64 {
	total := r.ComputeTime + r.CommTime
	if total == 0 {
		return 0
	}
	return float64(r.CommTime) / float64(total)
}

// Job is one executing MPI program. It is advanced by the simulation
// world; all methods must be called under the world's lock.
type Job struct {
	ID    int
	Shape *Shape
	Place Placement
	Start time.Time

	crossTraffic []nodeTraffic // node-pair traffic (node a != b)
	localBytes   float64       // same-node traffic per iteration
	ranksOn      map[int]int
	nodes        []int

	remSetupSec   float64
	remIters      float64
	elapsed       time.Duration
	computeAcc    time.Duration
	commAcc       time.Duration
	done          bool
	failed        bool
	failureReason string

	// cached from the last rate evaluation, for Flows().
	lastIterSec float64
	lastFlows   []NodeFlow
}

// NewJob prepares a job for execution. The shape and placement are
// validated; traffic is pre-aggregated from rank pairs to node pairs.
func NewJob(id int, shape *Shape, place Placement, start time.Time) (*Job, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if err := place.Validate(shape); err != nil {
		return nil, err
	}
	j := &Job{
		ID:          id,
		Shape:       shape,
		Place:       place,
		Start:       start,
		ranksOn:     place.RanksOn(),
		nodes:       place.Nodes(),
		remSetupSec: shape.SetupSeconds,
		remIters:    float64(shape.Iterations),
	}
	// Visit rank pairs in (Lo, Hi) order and keep node pairs in (a, b)
	// order, so the float sums here, in commSecPerIter and in every link
	// Flows feeds never follow Go's randomised map order.
	pairs := make([]RankPair, 0, len(shape.P2P))
	for rp := range shape.P2P {
		pairs = append(pairs, rp)
	}
	slices.SortFunc(pairs, func(x, y RankPair) int {
		return cmp.Or(cmp.Compare(x.Lo, y.Lo), cmp.Compare(x.Hi, y.Hi))
	})
	at := make(map[[2]int]int)
	for _, rp := range pairs {
		t := shape.P2P[rp]
		na, nb := place.NodeOf[rp.Lo], place.NodeOf[rp.Hi]
		if na == nb {
			j.localBytes += t.Bytes
			continue
		}
		k := [2]int{min(na, nb), max(na, nb)}
		i, ok := at[k]
		if !ok {
			i = len(j.crossTraffic)
			at[k] = i
			j.crossTraffic = append(j.crossTraffic, nodeTraffic{a: k[0], b: k[1]})
		}
		j.crossTraffic[i].bytes += t.Bytes
		j.crossTraffic[i].msgs += t.Msgs
	}
	slices.SortFunc(j.crossTraffic, func(x, y nodeTraffic) int {
		return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
	})
	return j, nil
}

// RanksOnNode returns the number of the job's ranks placed on node id.
func (j *Job) RanksOnNode(id int) int { return j.ranksOn[id] }

// localMemBandwidth approximates intra-node (shared-memory) MPI transfer
// bandwidth in bytes/sec.
const localMemBandwidth = 4e9

// computeSecPerIter returns the current duration of one compute phase:
// the slowest node's per-rank compute time, accounting for clock speed and
// core contention from background load and co-located jobs. Contention is
// modeled against *physical* cores (the testbed's logical counts are
// hyperthreaded pairs): once runnable processes exceed physical cores,
// every process slows proportionally.
func (j *Job) computeSecPerIter(env Env) float64 {
	worst := 0.0
	for _, n := range j.nodes {
		physCores := float64(env.NodeCores(n)) / 2
		if physCores < 1 {
			physCores = 1
		}
		occupancy := env.NodeBackgroundLoad(n, j.ID) + float64(j.ranksOn[n])
		share := 1.0
		if occupancy > physCores {
			share = physCores / occupancy
		}
		speed := env.NodeFreqGHz(n) / j.Shape.RefFreqGHz * share
		if speed <= 0 {
			speed = 1e-6
		}
		t := j.Shape.ComputeSecPerIter / speed
		if t > worst {
			worst = t
		}
	}
	return worst
}

// commSecPerIter returns the current duration of one communication phase
// and remembers the per-pair transfer rates for Flows.
func (j *Job) commSecPerIter(env Env) float64 {
	// Point-to-point: pairwise exchanges proceed in parallel; the phase
	// lasts as long as the slowest node-pair transfer, but a node talking
	// to many peers serializes on its access link.
	pairMax := 0.0
	perNodeBytes := make(map[int]float64)
	for _, nt := range j.crossTraffic {
		bw := env.AvailBandwidthBps(nt.a, nt.b, j.ID)
		if bw <= 0 {
			bw = 1
		}
		lat := env.Latency(nt.a, nt.b).Seconds()
		t := float64(nt.msgs)*lat + nt.bytes/bw
		if t > pairMax {
			pairMax = t
		}
		perNodeBytes[nt.a] += nt.bytes
		perNodeBytes[nt.b] += nt.bytes
	}
	nodeMax := 0.0
	for a, bytes := range perNodeBytes {
		// Serialization floor: all of a node's traffic crosses its access
		// link; price it at the best bandwidth the node sees to any peer.
		best := 0.0
		for _, nt := range j.crossTraffic {
			if nt.a != a && nt.b != a {
				continue
			}
			peer := nt.a
			if peer == a {
				peer = nt.b
			}
			if bw := env.AvailBandwidthBps(a, peer, j.ID); bw > best {
				best = bw
			}
		}
		if best <= 0 {
			continue
		}
		if t := bytes / best; t > nodeMax {
			nodeMax = t
		}
	}
	local := j.localBytes / localMemBandwidth
	t := math.Max(pairMax, nodeMax) + local

	if n := j.Shape.CollectivesPerIter; n > 0 {
		one := allreduceCost(env, j.nodes, j.Shape.CollectiveBytes, j.ID)
		t += (time.Duration(n) * one).Seconds()
	}
	return t
}

// evalRates recomputes the current iteration time and the flow set.
func (j *Job) evalRates(env Env) (compSec, commSec float64) {
	compSec = j.computeSecPerIter(env)
	commSec = j.commSecPerIter(env)
	iterSec := compSec + commSec
	if iterSec <= 0 {
		iterSec = 1e-9
	}
	j.lastIterSec = iterSec
	j.lastFlows = j.lastFlows[:0]
	for _, nt := range j.crossTraffic {
		j.lastFlows = append(j.lastFlows, NodeFlow{Src: nt.a, Dst: nt.b, RateBps: nt.bytes / iterSec})
	}
	return compSec, commSec
}

// Advance runs the job for up to dt under current conditions. It returns
// the portion of dt actually consumed (less than dt only when the job
// finishes mid-step) and whether the job is now done.
func (j *Job) Advance(env Env, dt time.Duration) (used time.Duration, done bool) {
	if j.done {
		return 0, true
	}
	if dt <= 0 {
		return 0, j.done
	}
	remaining := dt.Seconds()
	consumed := 0.0

	if j.remSetupSec > 0 {
		step := math.Min(j.remSetupSec, remaining)
		j.remSetupSec -= step
		remaining -= step
		consumed += step
		j.computeAcc += time.Duration(step * float64(time.Second))
	}
	if remaining > 0 && j.remIters > 0 {
		compSec, commSec := j.evalRates(env)
		iterSec := compSec + commSec
		itersPossible := remaining / iterSec
		itersDone := math.Min(itersPossible, j.remIters)
		j.remIters -= itersDone
		spent := itersDone * iterSec
		remaining -= spent
		consumed += spent
		j.computeAcc += time.Duration(itersDone * compSec * float64(time.Second))
		j.commAcc += time.Duration(itersDone * commSec * float64(time.Second))
	}
	usedDur := time.Duration(consumed * float64(time.Second))
	j.elapsed += usedDur
	if j.remSetupSec <= 0 && j.remIters <= 1e-9 {
		j.remIters = 0
		j.done = true
	}
	return usedDur, j.done
}

// Flows returns the network traffic the job currently imposes, based on
// the rates of its last Advance. Finished jobs impose no traffic.
func (j *Job) Flows() []NodeFlow {
	if j.done || j.lastIterSec == 0 {
		return nil
	}
	return j.lastFlows
}

// Abort marks the job failed (a participating node died, MPI tears the
// job down). Aborting a finished job is a no-op.
func (j *Job) Abort(reason string) {
	if j.done {
		return
	}
	j.done = true
	j.failed = true
	j.failureReason = reason
}

// Result summarizes the finished job. It panics if the job is not done.
func (j *Job) Result() Result {
	if !j.done {
		panic(fmt.Sprintf("mpisim: Result on running job %d", j.ID))
	}
	return Result{
		JobID:         j.ID,
		Name:          j.Shape.Name,
		Nodes:         j.nodes,
		Ranks:         j.Shape.Ranks,
		Start:         j.Start,
		End:           j.Start.Add(j.elapsed),
		Elapsed:       j.elapsed,
		ComputeTime:   j.computeAcc,
		CommTime:      j.commAcc,
		Failed:        j.failed,
		FailureReason: j.failureReason,
	}
}
