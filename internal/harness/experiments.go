package harness

import (
	"fmt"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/apps"
	"nlarm/internal/cluster"
	"nlarm/internal/metrics"
	"nlarm/internal/monitor"
	"nlarm/internal/mpisim"
	"nlarm/internal/rng"
	"nlarm/internal/stats"
	"nlarm/internal/trace"
	"nlarm/internal/world"
)

// --- Figure 1: resource-usage variation on the shared cluster --------------

// Fig1Data holds the 48-hour traces of Figure 1: CPU load, network I/O
// and CPU-utilization/memory averages for two highlighted nodes and the
// cluster-wide mean over 20 nodes.
type Fig1Data struct {
	Hours   []float64
	NodeA   int
	NodeB   int
	LoadA   []float64
	LoadB   []float64
	LoadAvg []float64
	// Network I/O in MB/s at the node interface.
	NetA   []float64
	NetB   []float64
	NetAvg []float64
	// Cluster averages, percent.
	UtilAvg []float64
	MemAvg  []float64
}

// Figure1 regenerates the paper's Figure 1 traces: hours of background
// activity on `nodes` nodes sampled every sampleEvery (paper: 2 days,
// 20 nodes). No monitor runs; this samples ground truth directly, as the
// paper's measurement scripts did.
func Figure1(seed uint64, hours int, nodes int, sampleEvery time.Duration) (*Fig1Data, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("harness: Figure1 needs at least 2 nodes")
	}
	cl, err := cluster.BuildIITK()
	if err != nil {
		return nil, err
	}
	if nodes > cl.Size() {
		return nil, fmt.Errorf("harness: Figure1: %d nodes requested, cluster has %d", nodes, cl.Size())
	}
	w := world.New(cl, world.Config{Seed: seed, StepSize: 5 * time.Second}, defaultEpoch)
	r := rng.New(seed + 99)
	d := &Fig1Data{NodeA: r.Intn(nodes), NodeB: r.Intn(nodes)}
	for d.NodeB == d.NodeA {
		d.NodeB = r.Intn(nodes)
	}
	end := defaultEpoch.Add(time.Duration(hours) * time.Hour)
	step := 5 * time.Second
	next := defaultEpoch
	for t := defaultEpoch; !t.After(end); t = t.Add(step) {
		w.StepTo(t)
		if t.Before(next) {
			continue
		}
		next = next.Add(sampleEvery)
		var loadSum, netSum, utilSum, memSum float64
		var loadA, loadB, netA, netB float64
		for id := 0; id < nodes; id++ {
			s, err := w.SampleNode(id)
			if err != nil {
				return nil, err
			}
			loadSum += s.CPULoad
			netSum += s.FlowRateBps
			utilSum += s.CPUUtilPct
			memSum += s.UsedMemMB / cl.Node(id).TotalMemMB * 100
			if id == d.NodeA {
				loadA, netA = s.CPULoad, s.FlowRateBps
			}
			if id == d.NodeB {
				loadB, netB = s.CPULoad, s.FlowRateBps
			}
		}
		n := float64(nodes)
		d.Hours = append(d.Hours, t.Sub(defaultEpoch).Hours())
		d.LoadA = append(d.LoadA, loadA)
		d.LoadB = append(d.LoadB, loadB)
		d.LoadAvg = append(d.LoadAvg, loadSum/n)
		d.NetA = append(d.NetA, netA/1e6)
		d.NetB = append(d.NetB, netB/1e6)
		d.NetAvg = append(d.NetAvg, netSum/n/1e6)
		d.UtilAvg = append(d.UtilAvg, utilSum/n)
		d.MemAvg = append(d.MemAvg, memSum/n)
	}
	return d, nil
}

// Recorder exports Figure 1's series as a trace for CSV analysis.
func (d *Fig1Data) Recorder() *trace.Recorder {
	r := trace.NewRecorder()
	add := func(name, unit string, vals []float64) {
		for i, v := range vals {
			r.Record(name, unit, defaultEpoch.Add(time.Duration(d.Hours[i]*float64(time.Hour))), v)
		}
	}
	add("cpu_load_node_a", "", d.LoadA)
	add("cpu_load_node_b", "", d.LoadB)
	add("cpu_load_avg", "", d.LoadAvg)
	add("net_io_node_a", "MB/s", d.NetA)
	add("net_io_node_b", "MB/s", d.NetB)
	add("net_io_avg", "MB/s", d.NetAvg)
	add("cpu_util_avg", "%", d.UtilAvg)
	add("mem_used_avg", "%", d.MemAvg)
	return r
}

// --- Figure 2: P2P bandwidth variation --------------------------------------

// Fig2Data holds Figure 2's artifacts: the pairwise bandwidth heatmap
// (averaged over ten sweeps) and three node pairs' bandwidth over time.
type Fig2Data struct {
	N int
	// AvailMBps[i][j] is the mean available bandwidth between nodes i and
	// j over the sweeps, MB/s. Diagonal is NaN-free (loopback capacity).
	AvailMBps [][]float64
	// Hours and PairSeries give per-pair bandwidth over the long window.
	Hours      []float64
	Pairs      [3][2]int
	PairSeries [3][]float64
	// HopsOf[i][j] records topology distance for shape verification.
	Hops [][]int
}

// Figure2 regenerates Figure 2: a heatmap over `nodes` nodes averaged
// over `sweeps` measurement rounds 1 minute apart, then three
// randomly-chosen pairs tracked every 5 minutes for `hours`.
func Figure2(seed uint64, nodes, sweeps, hours int) (*Fig2Data, error) {
	cl, err := cluster.BuildIITK()
	if err != nil {
		return nil, err
	}
	if nodes > cl.Size() || nodes < 4 {
		return nil, fmt.Errorf("harness: Figure2: bad node count %d", nodes)
	}
	w := world.New(cl, world.Config{Seed: seed, StepSize: 5 * time.Second}, defaultEpoch)
	d := &Fig2Data{N: nodes}
	d.AvailMBps = make([][]float64, nodes)
	d.Hops = make([][]int, nodes)
	counts := make([][]int, nodes)
	for i := range d.AvailMBps {
		d.AvailMBps[i] = make([]float64, nodes)
		d.Hops[i] = make([]int, nodes)
		counts[i] = make([]int, nodes)
		for j := range d.Hops[i] {
			d.Hops[i][j] = cl.Topo.Hops(i, j)
		}
	}
	now := defaultEpoch
	advance := func(dur time.Duration) {
		end := now.Add(dur)
		for t := now.Add(5 * time.Second); !t.After(end); t = t.Add(5 * time.Second) {
			w.StepTo(t)
		}
		now = end
	}
	// Ten sweeps, one minute apart, averaging the full matrix.
	for s := 0; s < sweeps; s++ {
		for i := 0; i < nodes; i++ {
			for j := i + 1; j < nodes; j++ {
				bw, _, err := w.MeasureBandwidth(i, j)
				if err != nil {
					return nil, err
				}
				d.AvailMBps[i][j] += bw / 1e6
				d.AvailMBps[j][i] += bw / 1e6
				counts[i][j]++
				counts[j][i]++
			}
		}
		advance(time.Minute)
	}
	maxOffDiag := 0.0
	for i := 0; i < nodes; i++ {
		for j := 0; j < nodes; j++ {
			if counts[i][j] > 0 {
				d.AvailMBps[i][j] /= float64(counts[i][j])
				if d.AvailMBps[i][j] > maxOffDiag {
					maxOffDiag = d.AvailMBps[i][j]
				}
			}
		}
	}
	// The diagonal (loopback) is rendered at the scale's bright end so it
	// does not crush the heatmap's dynamic range.
	for i := 0; i < nodes; i++ {
		d.AvailMBps[i][i] = maxOffDiag
	}
	// Three random pairs over the long window.
	r := rng.New(seed + 7)
	for k := 0; k < 3; k++ {
		a, b := r.Intn(nodes), r.Intn(nodes)
		for a == b {
			b = r.Intn(nodes)
		}
		d.Pairs[k] = [2]int{a, b}
	}
	samples := hours * 12 // every 5 minutes
	for sIdx := 0; sIdx < samples; sIdx++ {
		advance(5 * time.Minute)
		d.Hours = append(d.Hours, now.Sub(defaultEpoch).Hours())
		for k, p := range d.Pairs {
			bw, _, err := w.MeasureBandwidth(p[0], p[1])
			if err != nil {
				return nil, err
			}
			d.PairSeries[k] = append(d.PairSeries[k], bw/1e6)
		}
	}
	return d, nil
}

// Recorder exports Figure 2(b)'s pair series as a trace.
func (d *Fig2Data) Recorder() *trace.Recorder {
	r := trace.NewRecorder()
	for k, p := range d.Pairs {
		name := fmt.Sprintf("bandwidth_pair_%d_%d", p[0]+1, p[1]+1)
		for i, v := range d.PairSeries[k] {
			r.Record(name, "MB/s", defaultEpoch.Add(time.Duration(d.Hours[i]*float64(time.Hour))), v)
		}
	}
	return r
}

// --- Figures 4 & 6: strong scaling under the four policies ------------------

// AppKind selects the mini-application.
type AppKind string

const (
	// AppMiniMD is the molecular-dynamics proxy (Figure 4).
	AppMiniMD AppKind = "miniMD"
	// AppMiniFE is the finite-element proxy (Figure 6).
	AppMiniFE AppKind = "miniFE"
)

// ScalingConfig drives a strong-scaling policy comparison.
type ScalingConfig struct {
	App  AppKind
	Seed uint64
	// Procs are the process counts (paper: miniMD 8/16/32/64, miniFE
	// 8/16/32/48).
	Procs []int
	// Sizes are problem sizes: miniMD's s or miniFE's nx.
	Sizes []int
	// PPN is processes per node (paper: 4).
	PPN int
	// Repeats per configuration (paper: 5).
	Repeats int
	// Alpha/Beta for Equation 4 (paper: 0.3/0.7 miniMD, 0.4/0.6 miniFE).
	Alpha, Beta float64
	// Iterations overrides the app's default iteration count (0 = app
	// default; reduce for quick runs/benchmarks).
	Iterations int
	// Spacing is virtual idle time between runs (default 60s).
	Spacing time.Duration
}

// PaperMiniMDConfig returns Figure 4's full configuration.
func PaperMiniMDConfig(seed uint64) ScalingConfig {
	a, b := apps.PaperAlphaBetaMiniMD()
	return ScalingConfig{
		App: AppMiniMD, Seed: seed,
		Procs: []int{8, 16, 32, 64},
		Sizes: []int{8, 16, 24, 32, 40, 48},
		PPN:   4, Repeats: 5, Alpha: a, Beta: b,
	}
}

// PaperMiniFEConfig returns Figure 6's full configuration.
func PaperMiniFEConfig(seed uint64) ScalingConfig {
	a, b := apps.PaperAlphaBetaMiniFE()
	return ScalingConfig{
		App: AppMiniFE, Seed: seed,
		Procs: []int{8, 16, 32, 48},
		Sizes: []int{48, 96, 144, 256, 384},
		PPN:   4, Repeats: 5, Alpha: a, Beta: b,
	}
}

// QuickScalingConfig shrinks a configuration for fast smoke runs and
// benchmarks: fewer sizes, two repeats, shorter apps.
func QuickScalingConfig(cfg ScalingConfig) ScalingConfig {
	cfg.Repeats = 2
	if len(cfg.Procs) > 2 {
		cfg.Procs = []int{cfg.Procs[1], cfg.Procs[len(cfg.Procs)-1]}
	}
	if len(cfg.Sizes) > 2 {
		cfg.Sizes = []int{cfg.Sizes[0], cfg.Sizes[len(cfg.Sizes)/2]}
	}
	cfg.Iterations = 30
	return cfg
}

// makeShape builds the app shape for one cell.
func (cfg ScalingConfig) makeShape(procs, size int) (*mpisim.Shape, error) {
	switch cfg.App {
	case AppMiniMD:
		return apps.MiniMD(apps.MiniMDParams{S: size, Steps: cfg.Iterations}, procs)
	case AppMiniFE:
		return apps.MiniFE(apps.MiniFEParams{NX: size, Iters: cfg.Iterations}, procs)
	default:
		return nil, fmt.Errorf("harness: unknown app %q", cfg.App)
	}
}

// ScalingCell is one (procs, size) configuration's outcome.
type ScalingCell struct {
	Procs int
	Size  int
	// Mean execution seconds per policy.
	Mean map[string]float64
	// CoV of execution seconds per policy.
	CoV map[string]float64
	// Trials holds the raw runs.
	Trials []Trial
}

// ScalingData is a whole strong-scaling experiment.
type ScalingData struct {
	App   AppKind
	Cfg   ScalingConfig
	Cells []ScalingCell
}

// RunScaling executes the strong-scaling comparison on one long-lived
// session (the cluster keeps evolving between runs, as in the paper).
func RunScaling(cfg ScalingConfig) (*ScalingData, error) {
	s, err := NewSession(SessionConfig{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.WarmUp(DefaultWarmUp)
	return RunScalingOn(s, cfg)
}

// RunScalingOn executes the comparison on an existing warmed-up session.
func RunScalingOn(s *Session, cfg ScalingConfig) (*ScalingData, error) {
	if cfg.PPN <= 0 {
		cfg.PPN = 4
	}
	spacing := cfg.Spacing
	if spacing == 0 {
		spacing = time.Minute
	}
	data := &ScalingData{App: cfg.App, Cfg: cfg}
	trialSeed := cfg.Seed
	for _, procs := range cfg.Procs {
		for _, size := range cfg.Sizes {
			trialSeed++
			trials, err := s.Compare(CompareConfig{
				MakeShape: func() (*mpisim.Shape, error) { return cfg.makeShape(procs, size) },
				Request: alloc.Request{
					Procs: procs, PPN: cfg.PPN, Alpha: cfg.Alpha, Beta: cfg.Beta,
				},
				Repeats: cfg.Repeats,
				Spacing: spacing,
				Seed:    trialSeed * 2654435761,
			})
			if err != nil {
				return nil, fmt.Errorf("harness: scaling %s procs=%d size=%d: %w", cfg.App, procs, size, err)
			}
			data.Cells = append(data.Cells, ScalingCell{
				Procs:  procs,
				Size:   size,
				Mean:   MeanElapsed(trials),
				CoV:    CoVByPolicy(trials),
				Trials: trials,
			})
		}
	}
	return data, nil
}

// GainTable summarizes gains of the net-load-aware policy over each
// baseline across all cells (Tables 2 and 3): average, median and
// maximum gain percent.
type GainTable struct {
	App AppKind
	// Rows maps baseline policy to its gain summary.
	Rows map[string]stats.Summary
}

// Gains computes the gain table from scaling data.
func (d *ScalingData) Gains() GainTable {
	var configMeans []map[string]float64
	for _, c := range d.Cells {
		configMeans = append(configMeans, c.Mean)
	}
	rows := make(map[string]stats.Summary)
	for pol, gains := range GainsVsBaselines(configMeans) {
		rows[pol] = stats.Summarize(gains)
	}
	return GainTable{App: d.App, Rows: rows}
}

// LoadPerCore aggregates Figure 5's quantity over all trials: the mean
// allocated-group CPU load per logical core, per policy.
func (d *ScalingData) LoadPerCore() map[string]float64 {
	var all []Trial
	for _, c := range d.Cells {
		all = append(all, c.Trials...)
	}
	return MeanGroupLoadPerCore(all)
}

// OverallCoV returns the mean coefficient of variation per policy across
// cells (the run-stability comparison in §5.1/§5.2).
func (d *ScalingData) OverallCoV() map[string]float64 {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, c := range d.Cells {
		for pol, cov := range c.CoV {
			sums[pol] += cov
			counts[pol]++
		}
	}
	out := make(map[string]float64, len(sums))
	for pol, sum := range sums {
		out[pol] = sum / float64(counts[pol])
	}
	return out
}

// --- Table 4 & Figure 7: allocation analysis --------------------------------

// AnalysisData reproduces §5.3: the four policies allocate for the same
// request from the same snapshot; each allocation is executed; the
// snapshot explains the choices.
type AnalysisData struct {
	Snap       *metrics.Snapshot
	Cluster    *cluster.Cluster
	Policies   []string
	Selections map[string][]int
	Groups     map[string]GroupState
	TimesSec   map[string]float64
}

// AllocationAnalysis runs the paper's §5.3 case study: miniMD on 32
// processes, 4 per node, s=16 (16K atoms).
func AllocationAnalysis(seed uint64, iterations int) (*AnalysisData, error) {
	s, err := NewSession(SessionConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.WarmUp(DefaultWarmUp)

	snap, err := monitor.ReadSnapshot(s.Store, s.Now())
	if err != nil {
		return nil, err
	}
	a, b := apps.PaperAlphaBetaMiniMD()
	req := alloc.Request{Procs: 32, PPN: 4, Alpha: a, Beta: b}
	r := rng.New(seed + 5)
	d := &AnalysisData{
		Snap:       snap,
		Cluster:    s.World.Cluster(),
		Selections: make(map[string][]int),
		Groups:     make(map[string]GroupState),
		TimesSec:   make(map[string]float64),
	}
	// All four policies allocate from the same frozen snapshot, priced
	// once under the weights the request defaults to.
	model := alloc.NewCostModel(snap, alloc.PaperWeights(), false)
	type chosen struct {
		pol alloc.Policy
		a   alloc.Allocation
	}
	var picks []chosen
	for _, pol := range alloc.PaperPolicies() {
		al, err := pol.AllocateModel(model, req, r.Split())
		if err != nil {
			return nil, err
		}
		d.Policies = append(d.Policies, pol.Name())
		d.Selections[pol.Name()] = al.Nodes
		d.Groups[pol.Name()] = GroupStateOf(snap, al.Nodes)
		picks = append(picks, chosen{pol, al})
	}
	// Execute each allocation (in sequence, like the paper).
	for _, p := range picks {
		shape, err := apps.MiniMD(apps.MiniMDParams{S: 16, Steps: iterations}, 32)
		if err != nil {
			return nil, err
		}
		res, err := s.RunJob(shape, p.a)
		if err != nil {
			return nil, err
		}
		d.TimesSec[p.pol.Name()] = res.Elapsed.Seconds()
		s.Advance(time.Minute)
	}
	return d, nil
}
