// nlarm-experiments regenerates every table and figure of the paper's
// evaluation section on the simulated cluster.
//
// Usage:
//
//	nlarm-experiments -run all            # everything (minutes)
//	nlarm-experiments -run fig4 -quick    # one artifact, reduced size
//	nlarm-experiments -run fig4 -csv out/ # also write figure4_minimd.csv
//
// The -run names are those of the harness.Artifacts table (-h prints
// them); anything else exits 2.
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
)

// config is the parsed command line.
type config struct {
	harness.Options
	run, csv, cpuProf, memProf string
}

// newFlags defines the command line on fs; the -run and -csv help lists
// come from the artifact table.
func newFlags(fs *flag.FlagSet) *config {
	c := &config{Options: harness.DefaultOptions(42)}
	fs.StringVar(&c.run, "run", "all", "artifact to regenerate ("+strings.Join(runNames(false), ", ")+")")
	fs.Uint64Var(&c.Seed, "seed", c.Seed, "simulation seed")
	fs.BoolVar(&c.Quick, "quick", false, "reduced problem sizes and repeats")
	fs.StringVar(&c.csv, "csv", "", "directory to also write CSV tables into (written by "+strings.Join(runNames(true)[1:], ", ")+")")
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile to this file (pprof evidence for perf PRs)")
	fs.StringVar(&c.memProf, "memprofile", "", "write an allocation heap profile to this file on exit")

	fs.IntVar(&c.SimJobs, "sim-jobs", c.SimJobs, "sim: total jobs to generate")
	fs.IntVar(&c.SimNodes, "sim-nodes", c.SimNodes, "sim: cluster size in nodes")
	fs.Float64Var(&c.SimUtil, "sim-util", c.SimUtil, "sim: target offered load (0-1) for the canned workload")
	fs.StringVar(&c.SimSpec, "sim-spec", "", "sim: JSON workload spec file (overrides -sim-jobs/-sim-util sizing)")
	fs.StringVar(&c.SimTrace, "sim-trace", "", "sim: write the job trace (replayable with nlarm-replay -trace) to this file")
	fs.BoolVar(&c.SimPolicy, "sim-policy", false, "sim/sweep: run at policy fidelity (per-job placement over one live cost model)")

	fs.IntVar(&c.SweepSeeds, "sweep-seeds", c.SweepSeeds, "sweep: number of consecutive seeds starting at -seed")
	fs.IntVar(&c.SweepWorkers, "sweep-workers", 0, "sweep/tuning: RunMany worker bound (0 = GOMAXPROCS)")
	return c
}

// runNames lists every -run value, "all" first; with csvOnly, "all" and
// the names of the artifacts that write a CSV.
func runNames(csvOnly bool) []string {
	names := []string{"all"}
	for _, a := range harness.Artifacts {
		if !csvOnly || a.CSV != "" {
			names = append(names, a.Names...)
		}
	}
	return names
}

// resolve returns the artifacts the -run value name selects.
func resolve(name string) ([]harness.Artifact, error) {
	if name == "all" {
		return harness.Artifacts, nil
	}
	for _, a := range harness.Artifacts {
		if slices.Contains(a.Names, name) {
			return []harness.Artifact{a}, nil
		}
	}
	return nil, fmt.Errorf("unknown -run %q; want one of: %s", name, strings.Join(runNames(false), ", "))
}

func main() {
	c := newFlags(flag.CommandLine)
	flag.Parse()
	arts, err := resolve(c.run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nlarm-experiments:", err)
		os.Exit(2)
	}

	if c.cpuProf != "" {
		f, err := os.Create(c.cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if c.memProf != "" {
		defer func() {
			runtime.GC()
			if err := create(c.memProf, pprof.WriteHeapProfile); err != nil {
				fatal(err)
			}
		}()
	}

	start := time.Now()
	runs := harness.NewRuns(c.Options)
	for _, a := range arts {
		res, err := a.Run(runs)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
		if c.csv != "" && a.CSV != "" {
			if err := writeCSV(c.csv, a.CSV, res); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}

// writeCSV writes res's CSV table to dir/name.
func writeCSV(dir, name string, res harness.Result) error {
	t, ok := res.(interface{ Table() *harness.Table })
	if !ok {
		return fmt.Errorf("%s: %T has no CSV form", name, res)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return create(filepath.Join(dir, name), t.Table().WriteCSV)
}

// create writes the file at path with write.
func create(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nlarm-experiments:", err)
	os.Exit(1)
}
