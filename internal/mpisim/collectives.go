package mpisim

import (
	"math"
	"time"
)

// allreduceCost prices one MPI_Allreduce of bytes per rank over the given
// nodes under the environment's current latency/bandwidth, with the
// recursive-doubling α-β model of Thakur et al.'s MPICH algorithms:
// ⌈log₂ p⌉·(α + m·β), where p is the number of *nodes* (intra-node stages
// ride shared memory), α the mean pairwise latency (the stages traverse
// different pairs) and 1/β the worst pair's bandwidth (the bottleneck
// edge). The job (exceptJob) is excluded from its own bandwidth view. A
// single-node allreduce costs only the shared-memory copy.
func allreduceCost(env Env, nodes []int, bytes float64, exceptJob int) time.Duration {
	if len(nodes) == 1 {
		return time.Duration(bytes / localMemBandwidth * float64(time.Second))
	}
	latSum, pairs := 0.0, 0
	minBW := math.Inf(1)
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			latSum += env.Latency(nodes[i], nodes[j]).Seconds()
			pairs++
			if bw := env.AvailBandwidthBps(nodes[i], nodes[j], exceptJob); bw < minBW {
				minBW = bw
			}
		}
	}
	alpha := latSum / float64(pairs)
	if minBW <= 0 || math.IsInf(minBW, 1) {
		minBW = 1
	}
	sec := float64(log2Ceil(len(nodes))) * (alpha + bytes/minBW)
	return time.Duration(sec * float64(time.Second))
}

// log2Ceil returns ceil(log2(n)) with log2Ceil(1) == 0.
func log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	k := 0
	for v := n - 1; v > 0; v >>= 1 {
		k++
	}
	return k
}
