package main

import (
	"fmt"
	"runtime"
	"strings"
)

// sheetPasses is how many interleaved passes the sheet splits each
// workload's -seconds into: pass 1 of every workload, then pass 2 of
// every workload, and so on, so a busy spell on a shared host costs
// every workload one pass instead of one workload its whole run.
const sheetPasses = 3

// sheet holds, per workload and end-to-end metric, the value of each
// pass.
type sheet struct {
	values            map[string]map[string][]float64
	quality           map[string]map[string]float64
	attempted, failed map[string]int
}

// measureSet runs the untraced set: every workload, sheetPasses
// interleaved passes of seconds/sheetPasses each, one set-up per pass.
func measureSet(seed uint64, seconds float64) (*sheet, error) {
	s := &sheet{
		values:    map[string]map[string][]float64{},
		quality:   map[string]map[string]float64{},
		attempted: map[string]int{},
		failed:    map[string]int{},
	}
	for pass := 0; pass < sheetPasses; pass++ {
		for i := range workloads {
			w := &workloads[i]
			res, err := measure(w, options{seed: seed, seconds: seconds / sheetPasses, setups: 1})
			if err != nil {
				return nil, err
			}
			// Leave the next workload a heap without this one's rig in it.
			runtime.GC()
			if s.values[w.name] == nil {
				s.values[w.name] = map[string][]float64{}
				s.quality[w.name] = map[string]float64{}
			}
			for _, m := range endToEnd {
				s.values[w.name][m.name] = append(s.values[w.name][m.name], res.metrics[m.name])
			}
			for k, v := range res.metrics {
				if strings.HasPrefix(k, "quality.") {
					if old, seen := s.quality[w.name][k]; seen && old != v {
						return nil, fmt.Errorf("%s: %s moved between passes of one seed (%v, %v)", w.name, k, old, v)
					}
					s.quality[w.name][k] = v
				}
			}
			s.attempted[w.name] += res.attempted
			s.failed[w.name] += res.failed
		}
	}
	return s, nil
}

func (s *sheet) totalFailed() int {
	n := 0
	for _, f := range s.failed {
		n += f
	}
	return n
}

func (s *sheet) print() {
	fmt.Printf("\nend-to-end (tracing off; median of %d interleaved passes, [min .. max])\n", sheetPasses)
	for _, w := range workloads {
		fmt.Printf("\n%s   op: %s; work: %s\n", w.name, w.op, w.work)
		for _, m := range endToEnd {
			xs := s.values[w.name][m.name]
			lo, hi := minMax(xs)
			fmt.Printf("  %-40s %14.6g %-6s [%.6g .. %.6g]\n", m.name, median(xs), m.unit, lo, hi)
		}
		fmt.Printf("  %-40s %14.6g %-6s (%d failed of %d checked)\n", "fail_ratio",
			float64(s.failed[w.name])/float64(max(1, s.attempted[w.name])), "ratio", s.failed[w.name], s.attempted[w.name])
		for k, v := range s.quality[w.name] {
			fmt.Printf("  %-40s %14.10g (exact for this seed)\n", k, v)
		}
	}
}

// runSheet prints the cost sheet: the end-to-end set, and with traced
// set the per-layer rows of every workload next to each other.
func runSheet(seed uint64, seconds float64, traced bool) error {
	printEnv(seed)
	s, err := measureSet(seed, seconds)
	if err != nil {
		return err
	}
	s.print()
	if traced {
		cols := map[string]map[string]float64{}
		for i := range workloads {
			w := &workloads[i]
			res, err := measureTraced(w, options{seed: seed, seconds: seconds, outDir: outDir})
			if err != nil {
				return err
			}
			runtime.GC()
			cols[w.name] = res.metrics
			s.attempted[w.name] += res.attempted
			s.failed[w.name] += res.failed
		}
		fmt.Printf("\nper-layer (traced pass; 0 = the workload does not use the layer)\n%-38s %-8s", "", "unit")
		for _, w := range workloads {
			fmt.Printf(" %15s", w.name)
		}
		fmt.Println()
		for _, m := range perLayer {
			fmt.Printf("%-38s %-8s", m.name, m.unit)
			for _, w := range workloads {
				v := cols[w.name][m.name]
				if strings.HasSuffix(m.name, "par_speedup") && runtime.NumCPU() == 1 {
					fmt.Printf(" %15s", "unverified")
				} else {
					fmt.Printf(" %15.6g", v)
				}
			}
			fmt.Println()
		}
		fmt.Printf("spans: %s/spans-<workload>.jsonl\n", outDir)
	}
	if n := s.totalFailed(); n > 0 {
		return fmt.Errorf("%d outputs failed their checks", n)
	}
	return nil
}

// repeatCheck runs the untraced set twice on one seed and fails when
// the second set's median of any end-to-end metric is worse than the
// first's by more than the metric's bound, when a result-quality figure
// differs at all, or when any output fails its check.
func repeatCheck(seed uint64, seconds float64) error {
	printEnv(seed)
	var sets [2]*sheet
	for i := range sets {
		var err error
		if sets[i], err = measureSet(seed, seconds); err != nil {
			return err
		}
	}
	bad := 0
	fmt.Printf("\n%-16s %-16s %14s %14s %9s %7s %8s\n", "workload", "metric", "first", "second", "worse by", "bound", "spread")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := sets[0].values[w.name][m.name], sets[1].values[w.name][m.name]
			worse := worsening(median(a), median(b), m.better)
			verdict := ""
			if worse > m.bound {
				verdict = "  OUT OF BOUND"
				bad++
			}
			fmt.Printf("%-16s %-16s %14.6g %14.6g %8.1f%% %6.0f%% %7.1f%%%s\n", w.name, m.name,
				median(a), median(b), 100*worse, 100*m.bound, 100*quartileSpread(append(append([]float64(nil), a...), b...)), verdict)
		}
		for k, v := range sets[0].quality[w.name] {
			if v2 := sets[1].quality[w.name][k]; v2 != v {
				fmt.Printf("%-16s %-16s %14.10g %14.10g  NOT IDENTICAL\n", w.name, k, v, v2)
				bad++
			}
		}
	}
	failed := sets[0].totalFailed() + sets[1].totalFailed()
	if bad > 0 || failed > 0 {
		return fmt.Errorf("repeat check: %d metrics out of bound or not identical, %d outputs failed their checks", bad, failed)
	}
	fmt.Println("repeat check: every end-to-end metric within its bound, every quality figure identical")
	return nil
}
