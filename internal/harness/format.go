package harness

import (
	"fmt"
	"sort"
	"strings"

	"nlarm/internal/alloc"
	"nlarm/internal/stats"
)

// sparkLevels are the glyphs for compact series rendering.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Spark renders vals as a fixed-width sparkline by bucket-averaging.
func Spark(vals []float64, width int) string {
	if len(vals) == 0 || width <= 0 {
		return ""
	}
	if width > len(vals) {
		width = len(vals)
	}
	buckets := make([]float64, width)
	for i := range buckets {
		lo := i * len(vals) / width
		hi := (i + 1) * len(vals) / width
		if hi <= lo {
			hi = lo + 1
		}
		buckets[i] = stats.Mean(vals[lo:hi])
	}
	minV, maxV := buckets[0], buckets[0]
	for _, v := range buckets {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	span := maxV - minV
	var b strings.Builder
	for _, v := range buckets {
		idx := 0
		if span > 0 {
			idx = int((v - minV) / span * float64(len(sparkLevels)-1))
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

func seriesLine(name string, vals []float64, unit string) string {
	s := stats.Summarize(vals)
	return fmt.Sprintf("  %-12s %s  min=%.2f mean=%.2f max=%.2f %s",
		name, Spark(vals, 48), s.Min, s.Mean, s.Max, unit)
}

// FormatFig1 renders Figure 1's traces.
func FormatFig1(d *Fig1Data) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — resource-usage variation over %.0f h (nodes A=%d, B=%d, avg over cluster)\n",
		d.Hours[len(d.Hours)-1], d.NodeA, d.NodeB)
	b.WriteString("(a) CPU load (runnable processes)\n")
	b.WriteString(seriesLine("node A", d.LoadA, "") + "\n")
	b.WriteString(seriesLine("node B", d.LoadB, "") + "\n")
	b.WriteString(seriesLine("average", d.LoadAvg, "") + "\n")
	b.WriteString("(b) network I/O at the interface\n")
	b.WriteString(seriesLine("node A", d.NetA, "MB/s") + "\n")
	b.WriteString(seriesLine("node B", d.NetB, "MB/s") + "\n")
	b.WriteString(seriesLine("average", d.NetAvg, "MB/s") + "\n")
	b.WriteString("(c) cluster averages\n")
	b.WriteString(seriesLine("CPU util", d.UtilAvg, "%") + "\n")
	b.WriteString(seriesLine("mem used", d.MemAvg, "%") + "\n")
	return b.String()
}

// FormatFig2 renders Figure 2: the pairwise-bandwidth heatmap and the
// three tracked pairs.
func FormatFig2(d *Fig2Data) string {
	labels := make([]string, d.N)
	for i := range labels {
		labels[i] = fmt.Sprintf("n%02d", i+1)
	}
	// The paper's heatmap shades by *available bandwidth* with light =
	// high; our Heatmap darkens larger values, so render the complement
	// convention by inverting.
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2(a) — P2P available bandwidth, %d nodes (light = high bandwidth)\n", d.N)
	b.WriteString(Heatmap("", labels, d.AvailMBps, true))
	b.WriteString("Figure 2(b) — P2P bandwidth across time\n")
	for k, p := range d.Pairs {
		b.WriteString(seriesLine(fmt.Sprintf("pair %d-%d", p[0]+1, p[1]+1), d.PairSeries[k], "MB/s") + "\n")
	}
	return b.String()
}

// orderedPolicies lists m's policies in the paper's presentation order,
// any others after them by name.
func orderedPolicies(m map[string]float64) []string {
	var out []string
	for _, p := range alloc.PaperPolicies() {
		if _, ok := m[p.Name()]; ok {
			out = append(out, p.Name())
		}
	}
	var extra []string
	for p := range m {
		found := false
		for _, q := range out {
			if q == p {
				found = true
				break
			}
		}
		if !found {
			extra = append(extra, p)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// FormatScaling renders a Figure 4/6-style table: one block per process
// count, rows are problem sizes, columns are policy mean execution times.
func FormatScaling(d *ScalingData) string {
	byProcs := make(map[int][]ScalingCell)
	var procsList []int
	for _, c := range d.Cells {
		if _, ok := byProcs[c.Procs]; !ok {
			procsList = append(procsList, c.Procs)
		}
		byProcs[c.Procs] = append(byProcs[c.Procs], c)
	}
	sort.Ints(procsList)
	var b strings.Builder
	figure := "Figure 4"
	sizeName := "s"
	if d.App == AppMiniFE {
		figure = "Figure 6"
		sizeName = "nx"
	}
	fmt.Fprintf(&b, "%s — %s execution time (seconds, mean of %d runs)\n", figure, d.App, d.Cfg.Repeats)
	for _, procs := range procsList {
		cells := byProcs[procs]
		sort.Slice(cells, func(i, j int) bool { return cells[i].Size < cells[j].Size })
		pols := orderedPolicies(cells[0].Mean)
		t := Table{Title: fmt.Sprintf("#procs = %d", procs), Header: append([]string{sizeName}, pols...)}
		for _, c := range cells {
			row := []string{fmt.Sprintf("%d", c.Size)}
			for _, p := range pols {
				row = append(row, Sec(c.Mean[p]))
			}
			t.AddRow(row...)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Table flattens the scaling data into one CSV-able table, one row per
// (cell, policy) in cell order and the paper's policy order.
func (d *ScalingData) Table() *Table {
	t := &Table{Header: []string{"procs", "size", "policy", "mean_seconds", "cov"}}
	for _, c := range d.Cells {
		for _, pol := range orderedPolicies(c.Mean) {
			t.AddRow(fmt.Sprintf("%d", c.Procs), fmt.Sprintf("%d", c.Size), pol,
				fmt.Sprintf("%.4f", c.Mean[pol]), fmt.Sprintf("%.4f", c.CoV[pol]))
		}
	}
	return t
}

// FormatGains renders a Table 2/3-style gain summary.
func FormatGains(g GainTable, tableName string) string {
	t := Table{
		Title:  fmt.Sprintf("%s — %% gain of net-load-aware allocation (%s)", tableName, g.App),
		Header: []string{"Allocation Policy", "Average Gain", "Median Gain", "Maximum Gain"},
	}
	for _, pol := range []string{"random", "sequential", "load-aware"} {
		s, ok := g.Rows[pol]
		if !ok {
			continue
		}
		t.AddRow(pol, Pct(s.Mean), Pct(s.Median), Pct(s.Max))
	}
	return t.String()
}

// FormatLoadPerCore renders Figure 5: mean allocated-group CPU load per
// logical core per policy.
func FormatLoadPerCore(m map[string]float64) string {
	t := Table{
		Title:  "Figure 5 — average CPU load per logical core of the allocated groups",
		Header: []string{"policy", "load/core"},
	}
	for _, p := range orderedPolicies(m) {
		t.AddRow(p, F3(m[p]))
	}
	return t.String()
}

// FormatCoV renders the run-stability comparison.
func FormatCoV(m map[string]float64) string {
	t := Table{
		Title:  "Coefficient of variation of execution time (lower = more stable)",
		Header: []string{"policy", "CoV"},
	}
	for _, p := range orderedPolicies(m) {
		t.AddRow(p, F3(m[p]))
	}
	return t.String()
}

// FormatAnalysis renders Table 4 and Figure 7.
func FormatAnalysis(d *AnalysisData) string {
	var b strings.Builder
	// Table 4.
	t := Table{
		Title:  "Table 4 — state of the allocated groups at allocation time (miniMD, 32 procs, s=16)",
		Header: []string{"Algorithm", "Avg CPU load", "Avg compl. bandwidth (MB/s)", "Avg latency (µs)", "Exec time (s)"},
	}
	for _, pol := range d.Policies {
		g := d.Groups[pol]
		t.AddRow(pol, F3(g.AvgCPULoad), Sec(g.AvgComplBWMBps), fmt.Sprintf("%.1f", g.AvgLatencyUS), Sec(d.TimesSec[pol]))
	}
	b.WriteString(t.String())
	b.WriteByte('\n')

	// Figure 7: complement-of-bandwidth heatmap over the union of
	// selected nodes, selection rows, CPU-load row.
	union := map[int]bool{}
	for _, nodes := range d.Selections {
		for _, n := range nodes {
			union[n] = true
		}
	}
	var ids []int
	for n := range union {
		ids = append(ids, n)
	}
	sort.Ints(ids)
	labels := make([]string, len(ids))
	for i, n := range ids {
		labels[i] = d.Snap.Nodes[n].Hostname
	}
	cbw := make([][]float64, len(ids))
	for i, u := range ids {
		cbw[i] = make([]float64, len(ids))
		for j, v := range ids {
			if u == v {
				continue
			}
			avail, peak, ok := d.Snap.BandwidthOf(u, v)
			if ok {
				cbw[i][j] = (peak - avail) / 1e6
			}
		}
	}
	b.WriteString("Figure 7 — complement of available P2P bandwidth (darker = worse), selections, CPU load\n")
	b.WriteString(Heatmap("", labels, cbw, false))
	for _, pol := range d.Policies {
		sel := map[int]bool{}
		for _, n := range d.Selections[pol] {
			sel[n] = true
		}
		var marks []string
		for _, n := range ids {
			if sel[n] {
				marks = append(marks, "X")
			} else {
				marks = append(marks, ".")
			}
		}
		fmt.Fprintf(&b, "%-15s %s\n", pol, strings.Join(marks, ""))
	}
	var loads []string
	for _, n := range ids {
		loads = append(loads, fmt.Sprintf("%s=%.2f", d.Snap.Nodes[n].Hostname, d.Snap.Nodes[n].CPULoad.M1))
	}
	b.WriteString("CPU load: " + strings.Join(loads, " ") + "\n")
	// Switch boundaries for context.
	var switches []string
	for _, n := range ids {
		switches = append(switches, fmt.Sprintf("%d", d.Cluster.Topo.SwitchOf(n)))
	}
	b.WriteString("switch:   " + strings.Join(switches, "") + "\n")
	return b.String()
}
