// Command bench measures the broker, the allocator and the simulator
// end to end and layer by layer.
//
// With -workload it is the driver's entry point: one workload, built
// from -seed, measured for -seconds, one JSON object as the last line
// of standard output. Without -workload it runs every workload in
// interleaved passes and prints the cost sheet. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	name := flag.String("workload", "", "run this one workload and print the driver's JSON line; empty runs all of them and prints the cost sheet")
	seed := flag.Uint64("seed", defaultSeed, "seed every generated input derives from")
	seconds := flag.Float64("seconds", defaultSeconds, "how long each workload measures")
	trace := flag.Int("trace", 0, "1 adds the traced pass: per-layer metrics, spans written to bench/out/")
	repeat := flag.Bool("repeat-check", false, "run the untraced set twice and fail when an end-to-end metric differs by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	// Load is closed-loop from this one process, with as many client
	// goroutines and scheduler threads as the machine has CPUs.
	runtime.GOMAXPROCS(runtime.NumCPU())

	var err error
	switch {
	case *name != "":
		err = runDriver(*name, *seed, *seconds, *trace == 1)
	case *repeat:
		err = repeatCheck(*seed, *seconds)
	default:
		err = runSheet(*seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// outDir is where the traced pass writes its spans, relative to the
// root of the checkout the benchmark runs from.
const outDir = "bench/out"

// runDriver measures one workload and prints the driver's JSON line:
// the end-to-end metrics with tracing off, the per-layer ones with it
// on.
func runDriver(name string, seed uint64, seconds float64, traced bool) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	printEnv(seed)
	opt := options{seed: seed, seconds: seconds, setups: 5, outDir: outDir}
	var res *result
	var err error
	specs := endToEnd
	if traced {
		specs = perLayer
		res, err = measureTraced(w, opt)
	} else {
		res, err = measure(w, opt)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d rounds, %d outputs checked, %d failed\n", w.name, res.rounds, res.attempted, res.failed)
	for _, n := range res.info {
		fmt.Println(n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, s := range specs {
		fmt.Printf("  %-40s %14.6g %s\n", s.name, res.metrics[s.name], s.unit)
		out.Metrics[s.name] = value{res.metrics[s.name], s.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printEnv prints the environment block every run starts with.
func printEnv(seed uint64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				commit = s.Value[:12]
			}
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("env: commit=%s go=%s cpu=%q nproc=%d GOMAXPROCS=%d seed=%d\n",
		commit, runtime.Version(), cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), seed)
}
