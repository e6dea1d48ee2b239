// nlarm-experiments regenerates every table and figure of the paper's
// evaluation section on the simulated cluster.
//
// Usage:
//
//	nlarm-experiments -run all            # everything (minutes)
//	nlarm-experiments -run fig4 -quick    # one artifact, reduced size
//	nlarm-experiments -run table2 -csv out/
//
// The -run names are the artifacts list below (-h prints it); anything
// else exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"nlarm/internal/harness"
	"nlarm/internal/loadgen"
	"nlarm/internal/sim"
	"nlarm/internal/trace"
)

// artifacts lists every -run value in the order main regenerates them.
// fig5, table2 and cov are computed from fig4's runs; table4 and fig7
// come from the same allocation-analysis run.
var artifacts = []string{"all", "fig1", "fig2", "fig4", "table2", "fig5", "cov", "fig6", "table3",
	"table4", "fig7", "backfill", "cosched", "predict", "multicluster", "ablation", "sim", "sweep", "tuning"}

func main() {
	var (
		run     = flag.String("run", "all", "artifact to regenerate ("+strings.Join(artifacts, ", ")+")")
		seed    = flag.Uint64("seed", 42, "simulation seed")
		quick   = flag.Bool("quick", false, "reduced problem sizes and repeats")
		csv     = flag.String("csv", "", "directory to also write CSV tables into")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof evidence for perf PRs)")
		memProf = flag.String("memprofile", "", "write an allocation heap profile to this file on exit")

		simJobs   = flag.Int("sim-jobs", 100000, "sim: total jobs to generate")
		simNodes  = flag.Int("sim-nodes", 1024, "sim: cluster size in nodes")
		simUtil   = flag.Float64("sim-util", 0.65, "sim: target offered load (0-1) for the canned workload")
		simSpec   = flag.String("sim-spec", "", "sim: JSON workload spec file (overrides -sim-jobs/-sim-util sizing)")
		simTrace  = flag.String("sim-trace", "", "sim: write the job trace (replayable with nlarm-replay -trace) to this file")
		simPolicy = flag.Bool("sim-policy", false, "sim/sweep: run at policy fidelity (per-job placement over one live cost model)")

		sweepSeeds   = flag.Int("sweep-seeds", 8, "sweep: number of consecutive seeds starting at -seed")
		sweepWorkers = flag.Int("sweep-workers", 0, "sweep/tuning: RunMany worker bound (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if !slices.Contains(artifacts, *run) {
		fmt.Fprintf(os.Stderr, "nlarm-experiments: unknown -run %q; want one of: %s\n", *run, strings.Join(artifacts, ", "))
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	want := func(name string) bool { return *run == "all" || *run == name }
	start := time.Now()

	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			fatal(err)
		}
	}

	if want("fig1") {
		hours := 48
		if *quick {
			hours = 6
		}
		d, err := harness.Figure1(*seed, hours, 20, 5*time.Minute)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.FormatFig1(d))
		writeRecorderCSV(*csv, "figure1_traces.csv", d.Recorder())
	}

	if want("fig2") {
		nodes, sweeps, hours := 30, 10, 48
		if *quick {
			nodes, sweeps, hours = 16, 3, 4
		}
		d, err := harness.Figure2(*seed, nodes, sweeps, hours)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.FormatFig2(d))
		writeRecorderCSV(*csv, "figure2_pairs.csv", d.Recorder())
	}

	var mdData *harness.ScalingData
	needMD := want("fig4") || want("fig5") || want("table2") || want("cov")
	if needMD {
		cfg := harness.PaperMiniMDConfig(*seed)
		if *quick {
			cfg = harness.QuickScalingConfig(cfg)
		}
		var err error
		mdData, err = harness.RunScaling(cfg)
		if err != nil {
			fatal(err)
		}
	}
	if want("fig4") {
		fmt.Println(harness.FormatScaling(mdData))
		writeCSV(*csv, "figure4_minimd.csv", mdData.Table())
	}
	if want("table2") {
		fmt.Println(harness.FormatGains(mdData.Gains(), "Table 2"))
		fmt.Println()
	}
	if want("fig5") {
		fmt.Println(harness.FormatLoadPerCore(mdData.LoadPerCore()))
		fmt.Println()
	}
	if want("cov") {
		fmt.Println(harness.FormatCoV(mdData.OverallCoV()))
		fmt.Println()
	}

	if want("fig6") || want("table3") {
		cfg := harness.PaperMiniFEConfig(*seed)
		if *quick {
			cfg = harness.QuickScalingConfig(cfg)
		}
		feData, err := harness.RunScaling(cfg)
		if err != nil {
			fatal(err)
		}
		if want("fig6") {
			fmt.Println(harness.FormatScaling(feData))
			writeCSV(*csv, "figure6_minife.csv", feData.Table())
		}
		if want("table3") {
			fmt.Println(harness.FormatGains(feData.Gains(), "Table 3"))
			fmt.Println()
		}
	}

	if want("table4") || want("fig7") {
		iters := 100
		if *quick {
			iters = 30
		}
		d, err := harness.AllocationAnalysis(*seed, iters)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.FormatAnalysis(d))
	}

	if want("backfill") {
		cfg := harness.BackfillConfig{Seed: *seed}
		if *quick {
			cfg.Shorts = 4
		}
		d, err := harness.RunBackfill(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.FormatBackfill(d))
	}

	if want("cosched") {
		cfg := harness.CoScheduleConfig{Seed: *seed}
		if *quick {
			cfg.Repeats = 1
			cfg.Iterations = 30
		}
		d, err := harness.RunCoSchedule(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.FormatCoSchedule(d))
	}

	if want("predict") {
		cfg := harness.PredictionConfig{Seed: *seed}
		if *quick {
			cfg.Runs = 8
			cfg.Iterations = 30
		}
		d, err := harness.RunPredictionStudy(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.FormatPrediction(d))
	}

	if want("multicluster") {
		cfg := harness.DefaultMultiClusterConfig(*seed)
		if *quick {
			cfg.Repeats = 2
			cfg.Iterations = 30
		}
		d, err := harness.RunMultiCluster(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.FormatMultiCluster(d))
	}

	if want("ablation") {
		cfg := harness.DefaultAblationConfig(*seed)
		if *quick {
			cfg.Repeats = 2
			cfg.Iterations = 30
		}
		d, err := harness.RunAblation(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.FormatAblation(d))
	}

	if want("sim") {
		if err := runSim(*seed, *simJobs, *simNodes, *simUtil, *simSpec, *simTrace, *simPolicy, *quick); err != nil {
			fatal(err)
		}
	}

	if want("sweep") {
		cfg := harness.SimSweepConfig{
			Seed:    *seed,
			Runs:    *sweepSeeds,
			Nodes:   *simNodes,
			Jobs:    *simJobs,
			Util:    *simUtil,
			Workers: *sweepWorkers,
			Policy:  *simPolicy,
		}
		if *quick {
			cfg.Runs, cfg.Nodes, cfg.Jobs = 4, 128, 5000
		}
		d, err := harness.RunSimSweep(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.FormatSimSweep(d))
	}

	if want("tuning") {
		cfg := harness.TuningConfig{
			Seed:    *seed,
			Workers: *sweepWorkers,
		}
		if *quick {
			cfg.RegretDecisions, cfg.Nodes, cfg.Jobs = 10, 64, 1200
			cfg.TrainSeeds, cfg.HoldoutSeeds = 2, 2
			cfg.Population, cfg.Generations = 4, 2
		}
		d, err := harness.RunTuning(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.FormatTuning(d))
	}

	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}

// runSim executes the scenario under both queue disciplines — at
// capacity fidelity, or with per-job placement when policy is set —
// and prints a comparison; the EASY run's trace optionally goes to
// tracePath for offline replay.
func runSim(seed uint64, jobs, nodes int, util float64, specPath, tracePath string, policy, quick bool) error {
	if quick {
		jobs, nodes = 10000, 256
	}
	var wl loadgen.Workload
	if specPath != "" {
		data, err := os.ReadFile(specPath)
		if err != nil {
			return err
		}
		if wl, err = loadgen.ParseWorkload(data); err != nil {
			return err
		}
	} else {
		wl = sim.ScaledWorkload(jobs, nodes, util)
	}
	for _, disc := range []sim.Discipline{sim.FIFO, sim.EASY} {
		cfg := sim.ScenarioConfig{
			Seed:       seed,
			Nodes:      nodes,
			Workload:   wl,
			Discipline: disc,
		}
		if policy {
			cfg.Policy = &sim.PolicyConfig{}
		}
		var out io.Writer
		if tracePath != "" && disc == sim.EASY {
			f, err := os.Create(tracePath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		res, err := sim.RunScenario(cfg, out)
		if err != nil {
			return err
		}
		fmt.Printf("[%s]\n%s\n", disc, res.Render())
	}
	if tracePath != "" {
		fmt.Printf("EASY trace written to %s (verify with: nlarm-replay -trace %s)\n", tracePath, tracePath)
	}
	return nil
}

func writeCSV(dir, name string, t *harness.Table) {
	if dir == "" || t == nil {
		return
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		fatal(err)
	}
}

func writeRecorderCSV(dir, name string, r *trace.Recorder) {
	if dir == "" || r == nil {
		return
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := r.WriteCSV(f); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nlarm-experiments:", err)
	os.Exit(1)
}
