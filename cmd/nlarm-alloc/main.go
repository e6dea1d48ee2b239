// nlarm-alloc is the user-facing client of the resource broker: it
// requests an allocation and prints an MPI hostfile (or the broker's
// recommendation to wait), ready to paste into mpiexec -f.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nlarm/internal/broker"
)

var (
	addr    = flag.String("addr", "127.0.0.1:7077", "broker address")
	procs   = flag.Int("np", 8, "total number of MPI processes")
	ppn     = flag.Int("ppn", 0, "processes per node (0 = broker decides from Equation 3)")
	alpha   = flag.Float64("alpha", 0, "compute-load weight (0 with beta=0 means 0.5/0.5)")
	beta    = flag.Float64("beta", 0, "network-load weight")
	policy  = flag.String("policy", "", "allocation policy (random, sequential, load-aware, net-load-aware; empty = the broker's default)")
	force   = flag.Bool("force", false, "allocate even when the broker recommends waiting")
	explain = flag.Bool("explain", false, "also print every candidate sub-graph the heuristic considered")
	list    = flag.Bool("policies", false, "list the broker's policies and exit")

	submit = flag.String("submit", "", "submit a job instead of allocating: app name (minimd, minife or stencil2d)")
	size   = flag.Int("size", 16, "problem size for -submit (miniMD s / miniFE nx / stencil2d N)")
	iters  = flag.Int("iters", 0, "iteration count for -submit (0 = app default)")
	name   = flag.String("name", "", "job name for -submit")
	wall   = flag.Duration("walltime", 0, "estimated run time for -submit (0 = unknown; only estimated jobs can backfill)")
	prio   = flag.Int("priority", 0, "queue priority for -submit (higher runs earlier, ties keep submission order)")
	status = flag.Int("status", 0, "print the status of a submitted job ID and exit")
	queue  = flag.Bool("queue", false, "print queue statistics and exit")
)

func main() {
	flag.Parse()

	c, err := broker.Dial(*addr, 5*time.Second)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	if *list {
		pols, err := c.Policies()
		if err != nil {
			fatal(err)
		}
		for _, p := range pols {
			fmt.Println(p)
		}
		return
	}
	if *queue {
		qs, err := c.QueueStats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pending=%d running=%d done=%d failed=%d\n", qs.Pending, qs.Running, qs.Done, qs.Failed)
		return
	}
	if *status > 0 {
		info, err := c.JobStatus(*status)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("job %d (%s): %s attempts=%d waits=%d", info.ID, info.Name, info.State, info.Attempts, info.WaitAnswers)
		if info.Backfilled {
			fmt.Printf(" backfilled")
		}
		if info.PredictedElapsed > 0 {
			fmt.Printf(" predicted=%.2fs", info.PredictedElapsed.Seconds())
		}
		if info.Elapsed > 0 {
			fmt.Printf(" elapsed=%.2fs", info.Elapsed.Seconds())
		}
		if info.Error != "" {
			fmt.Printf(" error=%q", info.Error)
		}
		fmt.Println()
		for _, h := range info.Hostfile {
			fmt.Println(" ", h)
		}
		return
	}
	if *submit != "" {
		id, err := c.Submit(broker.SubmitRequest{
			Name: *name, App: *submit, Size: *size, Iterations: *iters,
			Request:  broker.Request{Procs: *procs, PPN: *ppn, Alpha: *alpha, Beta: *beta, Policy: *policy},
			Walltime: *wall, Priority: *prio,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("submitted job %d; poll with -status %d\n", id, id)
		return
	}

	resp, err := c.Allocate(broker.Request{
		Procs:   *procs,
		PPN:     *ppn,
		Alpha:   *alpha,
		Beta:    *beta,
		Policy:  *policy,
		Force:   *force,
		Explain: *explain,
	})
	if err != nil {
		fatal(err)
	}
	if resp.Recommendation == broker.RecommendWait {
		fmt.Fprintf(os.Stderr, "broker recommends WAITING: cluster load %.2f per core; re-run with -force to override\n",
			resp.ClusterLoad)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "# policy=%s nodes=%d cluster-load=%.2f/core snapshot-age=%v\n",
		resp.Policy, len(resp.Nodes), resp.ClusterLoad, resp.SnapshotAge.Round(time.Second))
	for _, line := range resp.Hostfile {
		fmt.Println(line)
	}
	if *explain {
		for _, cand := range resp.Candidates {
			mark := " "
			if cand.Chosen {
				mark = "*"
			}
			spill := ""
			if cand.Spill {
				spill = " spill"
			}
			fmt.Fprintf(os.Stderr, "%s candidate start=%d total=%.6f%s nodes=%v\n",
				mark, cand.Start, cand.TotalLoad, spill, cand.Nodes)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nlarm-alloc:", err)
	os.Exit(1)
}
