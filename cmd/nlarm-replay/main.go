// nlarm-replay inspects a store directory with archived monitoring
// snapshots (written by nlarm-monitor -archive) and re-runs allocation
// decisions offline: list the archive, dump a snapshot summary, or ask
// "what would policy X have chosen at time T?".
//
// With -trace it instead verifies a recorded job trace (written by
// nlarm-experiments -run sim -sim-trace): the scenario embedded in the
// trace header is re-run from its seed and every scheduling decision is
// diffed against the recorded one.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/metrics"
	"nlarm/internal/replay"
	"nlarm/internal/rng"
	"nlarm/internal/sim"
	"nlarm/internal/store"
	"nlarm/internal/trace"
)

func main() {
	var (
		storeDir = flag.String("store", "nlarm-store", "store directory with archive/ snapshots")
		list     = flag.Bool("list", false, "list archived snapshot timestamps and exit")
		at       = flag.String("at", "", "replay instant (RFC3339; empty = newest snapshot)")
		policy   = flag.String("policy", "net-load-aware", "policy to re-run (random, sequential, load-aware, net-load-aware)")
		procs    = flag.Int("np", 0, "re-run an allocation for this many processes (0 = only summarize)")
		ppn      = flag.Int("ppn", 4, "processes per node for the re-run")
		alpha    = flag.Float64("alpha", 0.3, "compute-load weight")
		beta     = flag.Float64("beta", 0.7, "network-load weight")
		seed     = flag.Uint64("seed", 1, "random stream for stochastic policies")
		tracePth = flag.String("trace", "", "verify a recorded job trace instead of reading a store")
	)
	flag.Parse()

	if *tracePth != "" {
		if err := verifyJobTrace(*tracePth); err != nil {
			fatal(err)
		}
		return
	}

	st, err := store.NewFile(*storeDir)
	if err != nil {
		fatal(err)
	}
	times, err := replay.Timestamps(st)
	if err != nil {
		fatal(err)
	}
	if len(times) == 0 {
		fatal(fmt.Errorf("no archived snapshots under %s/archive (run nlarm-monitor -archive <period>)", *storeDir))
	}
	if *list {
		for _, t := range times {
			fmt.Println(t.Format(time.RFC3339))
		}
		return
	}

	instant := times[len(times)-1]
	if *at != "" {
		parsed, err := time.Parse(time.RFC3339, *at)
		if err != nil {
			fatal(fmt.Errorf("bad -at: %w", err))
		}
		instant = parsed
	}
	snap, err := replay.LoadAt(st, instant)
	if err != nil {
		fatal(err)
	}
	summarize(snap)

	if *procs > 0 {
		var pol alloc.Policy
		for _, p := range alloc.PaperPolicies() {
			if p.Name() == *policy {
				pol = p
			}
		}
		if pol == nil {
			fatal(fmt.Errorf("unknown policy %q", *policy))
		}
		a, err := alloc.Allocate(pol, snap, alloc.Request{
			Procs: *procs, PPN: *ppn, Alpha: *alpha, Beta: *beta,
		}, rng.New(*seed))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%s would have chosen at %s:\n", pol.Name(), snap.Taken.Format(time.RFC3339))
		for _, n := range a.Nodes {
			fmt.Printf("  %s:%d\n", snap.Nodes[n].Hostname, a.Procs[n])
		}
	}
}

// verifyJobTrace re-runs the scenario embedded in the trace header and
// diffs every recorded decision against the re-run.
func verifyJobTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr, recs, digest, err := trace.ReadJobTrace(f)
	if err != nil {
		return err
	}
	if len(hdr.Scenario) == 0 {
		return fmt.Errorf("%s: trace header has no embedded scenario, cannot replay", path)
	}
	var cfg sim.ScenarioConfig
	if err := json.Unmarshal(hdr.Scenario, &cfg); err != nil {
		return fmt.Errorf("%s: parse embedded scenario: %w", path, err)
	}
	fmt.Printf("trace %s: %d records, seed %d, digest %s\n", path, len(recs), hdr.Seed, digest[:16])

	var rerun bytes.Buffer
	res, err := sim.RunScenario(cfg, &rerun)
	if err != nil {
		return fmt.Errorf("re-run: %w", err)
	}
	if res.Digest == digest {
		fmt.Printf("replay OK: re-run reproduced all %d decisions bit-for-bit in %v\n",
			len(recs), res.WallTime.Round(time.Millisecond))
		return nil
	}
	_, rerunRecs, _, err := trace.ReadJobTrace(&rerun)
	if err != nil {
		return fmt.Errorf("parse re-run trace: %w", err)
	}
	diffs := trace.DiffJobRecords(recs, rerunRecs, 10)
	if len(diffs) == 0 {
		diffs = []string{"records equal but raw bytes differ (header or encoding change)"}
	}
	for _, d := range diffs {
		fmt.Println("  " + d)
	}
	return fmt.Errorf("replay DIVERGED: recorded digest %s, re-run %s (%d shown above)",
		digest[:16], res.Digest[:16], len(diffs))
}

func summarize(snap *metrics.Snapshot) {
	loadSum, cores := 0.0, 0
	for _, id := range snap.Livehosts {
		if na, ok := snap.Nodes[id]; ok {
			loadSum += na.CPULoad.M1
			cores += na.Cores
		}
	}
	perCore := 0.0
	if cores > 0 {
		perCore = loadSum / float64(cores)
	}
	fmt.Printf("snapshot %s: %d livehosts, %d node records, %d latency pairs, %d bandwidth pairs, load %.2f/core\n",
		snap.Taken.Format(time.RFC3339), len(snap.Livehosts), len(snap.Nodes),
		len(snap.Latency), len(snap.Bandwidth), perCore)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nlarm-replay:", err)
	os.Exit(1)
}
