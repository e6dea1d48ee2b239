// nlarm-broker runs the full resource-manager stack as a real daemon: the
// simulated shared cluster advancing in wall-clock time, the monitoring
// daemons publishing into a store (in-memory or a directory, mirroring
// the paper's NFS layout), and the broker answering allocation requests
// over TCP (see cmd/nlarm-alloc for the client).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/broker"
	"nlarm/internal/cluster"
	"nlarm/internal/jobqueue"
	"nlarm/internal/metrics"
	"nlarm/internal/monitor"
	"nlarm/internal/obs"
	"nlarm/internal/simtime"
	"nlarm/internal/store"
	"nlarm/internal/world"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7077", "TCP listen address")
		seed     = flag.Uint64("seed", 42, "simulation seed")
		storeDir = flag.String("store", "", "directory for the shared store (empty = in-memory)")
		stateSec = flag.Duration("nodestate-period", 5*time.Second, "NodeStateD sampling period")
		latSec   = flag.Duration("latency-period", time.Minute, "LatencyD sweep period")
		bwSec    = flag.Duration("bandwidth-period", 5*time.Minute, "BandwidthD sweep period")
		retrySec = flag.Duration("queue-retry", 30*time.Second, "job-queue retry period")
		backfill = flag.Bool("backfill", true, "EASY-backfill walltimed jobs around a blocked queue head")
		agingSec = flag.Duration("aging-bound", 30*time.Minute, "stop backfilling once any queued job has waited this long")
		dumpMet  = flag.Bool("dump-metrics", false, "render the instrumentation registry to stdout on shutdown")
		shardThr = flag.Int("shard-threshold", alloc.DefaultShardThreshold, "node count at and above which the hierarchical (sharded) cost model kicks in; <= 0 disables sharding")
		inflight = flag.Int("max-inflight", 0, "outstanding batched requests allowed per connection before shedding (0 = default 1024, negative = unlimited)")
		rate     = flag.Float64("tenant-rate", 0, "per-tenant sustained admission rate in requests/second (0 = no rate limit)")
		depth    = flag.Int("queue-depth", 0, "per-tenant pending-queue bound; arrivals beyond it are shed (0 = default 1024)")
		cfK      = flag.Int("counterfactual-k", 0, "retain the k cheapest rejected candidates (with priced CL/NL) in each decision record for offline regret analysis (0 = off)")
	)
	flag.Parse()

	cl, err := cluster.BuildIITK()
	if err != nil {
		fatal(err)
	}
	var st store.Store
	if *storeDir != "" {
		st, err = store.NewFile(*storeDir)
		if err != nil {
			fatal(err)
		}
	} else {
		st = store.NewMem()
	}

	rt := simtime.NewRealRuntime()
	defer rt.Close()
	w := world.New(cl, world.Config{Seed: *seed, StepSize: 250 * time.Millisecond}, rt.Now())
	stopWorld := w.Attach(rt)
	defer stopWorld()

	// One registry spans the whole stack; the server's "metrics" action
	// and --dump-metrics both read it.
	reg := obs.NewRegistry()
	ist := store.Instrument(st, reg, rt.Now)
	// Outermost generation tracking: daemons stamp every published key,
	// and the broker's snapshot cache re-reads only stamped changes.
	vst := store.Version(ist)

	mgr := monitor.NewManager(&monitor.WorldProber{W: w}, vst, monitor.Config{
		NodeStatePeriod: *stateSec,
		LatencyPeriod:   *latSec,
		BandwidthPeriod: *bwSec,
		Obs:             reg,
	})
	if err := mgr.Start(rt); err != nil {
		fatal(err)
	}
	defer mgr.Stop()

	// The sharded cost model is planned along the cluster's switch tree;
	// below the threshold it is the exhaustive dense path bit for bit, so
	// enabling it here is free at paper scale and saves the O(n²) wall at
	// fleet scale. Shard size and top-k take alloc's defaults.
	shard := alloc.ShardOptions{Threshold: *shardThr}
	if *shardThr > 0 {
		shard.Plan = alloc.NewShardPlan(cl.Topo.Shards(alloc.DefaultMaxShardSize), "topology")
	}
	b := broker.New(vst, rt, broker.Config{Seed: *seed, Obs: reg, Shard: shard, CounterfactualK: *cfK})
	// The reserving wrapper closes the monitoring lag for back-to-back
	// queue launches and shadow-prices the waiting head's claim while the
	// backfill pass evaluates candidates.
	res := alloc.NewReservingPolicy(alloc.NetLoadAware{}, 90*time.Second)
	b.RegisterPolicy(res)
	// Job submission: queued jobs run as simulated MPI jobs in the world.
	queue := jobqueue.New(b, rt, jobqueue.Config{
		RetryPeriod: *retrySec,
		Backfill:    *backfill,
		AgingBound:  *agingSec,
		Reserve:     res,
		Obs:         reg,
	})
	if err := queue.Start(); err != nil {
		fatal(err)
	}
	defer queue.Stop()
	mgrJobs := jobqueue.NewWorldManager(queue, w).WithPredictions(func() (*metrics.Snapshot, error) {
		return monitor.ReadSnapshot(vst, rt.Now())
	})
	// The batched front door prices coalesced requests against one
	// snapshot generation and sheds excess load explicitly.
	srv, err := broker.NewServerOpts(b, mgrJobs, *addr, broker.ServerOptions{
		MaxInflight: *inflight,
		Batching: &broker.BatcherOptions{
			Admission: broker.AdmissionConfig{
				TenantRate: *rate,
				QueueDepth: *depth,
			},
		},
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()

	fmt.Printf("nlarm-broker: %d-node cluster, listening on %s\n", cl.Size(), srv.Addr())
	fmt.Printf("nlarm-broker: monitoring %d policies=%v store=%s\n",
		cl.Size(), b.Policies(), storeDesc(*storeDir))
	fmt.Println("nlarm-broker: waiting for the first bandwidth sweep before allocations succeed...")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("nlarm-broker: shutting down")
	if *dumpMet {
		fmt.Print(reg.Render())
	}
}

func storeDesc(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nlarm-broker:", err)
	os.Exit(1)
}
