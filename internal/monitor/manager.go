package monitor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/obs"
	"nlarm/internal/simtime"
	"nlarm/internal/store"
)

// Manager assembles and runs the complete Resource Monitor: one
// NodeStateD per node, the LivehostsD replicas, LatencyD, BandwidthD, and
// the central monitor master/slave pair, all publishing into one shared
// store.
type Manager struct {
	cfg Config
	pr  Prober
	st  store.Store

	mu          sync.Mutex
	rt          simtime.Runtime
	started     bool
	nodeStateDs []*NodeStateD
	livehostsDs []*LivehostsD
	latencyD    *LatencyD
	bandwidthD  *BandwidthD
	centrals    []*CentralMonitor // [0]=initial master, [1]=initial slave, + replacements
	nextCentral int
}

// NewManager builds the monitoring stack over prober pr and store st.
func NewManager(pr Prober, st store.Store, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{cfg: cfg, pr: pr, st: st}
	for id := 0; id < pr.NumNodes(); id++ {
		m.nodeStateDs = append(m.nodeStateDs, NewNodeStateD(id, pr, st, cfg.NodeStatePeriod))
	}
	for r := 0; r < cfg.LivehostsReplicas; r++ {
		// Replicas run at staggered frequencies, as in the paper.
		period := cfg.LivehostsPeriod * time.Duration(r+1)
		m.livehostsDs = append(m.livehostsDs, NewLivehostsD(r, pr, st, period))
	}
	m.latencyD = NewLatencyD(pr, st, cfg.LatencyPeriod)
	m.bandwidthD = NewBandwidthD(pr, st, cfg.BandwidthPeriod)
	if cfg.Obs != nil {
		for _, d := range m.nodeStateDs {
			d.SetObs(cfg.Obs)
		}
		for _, d := range m.livehostsDs {
			d.SetObs(cfg.Obs)
		}
		m.latencyD.SetObs(cfg.Obs)
		m.bandwidthD.SetObs(cfg.Obs)
	}
	return m
}

// workerDaemons returns all supervised (non-central) daemons.
func (m *Manager) workerDaemons() []Daemon {
	var ds []Daemon
	for _, d := range m.nodeStateDs {
		ds = append(ds, d)
	}
	for _, d := range m.livehostsDs {
		ds = append(ds, d)
	}
	ds = append(ds, m.latencyD, m.bandwidthD)
	return ds
}

func (m *Manager) newCentralLocked(role Role, peerName string) *CentralMonitor {
	name := fmt.Sprintf("centralmon/%d", m.nextCentral)
	m.nextCentral++
	hooks := Hooks{
		OnPromoted:  m.onPromoted,
		OnSlaveDead: m.onSlaveDead,
	}
	c := NewCentralMonitor(name, role, m.workerDaemons(), peerName, m.st, m.cfg, hooks)
	c.SetObs(m.cfg.Obs)
	m.centrals = append(m.centrals, c)
	return c
}

// onPromoted runs when a slave promotes itself to master: it launches a
// replacement slave, mirroring "the slave will become new master and
// launches a new slave on another node".
func (m *Manager) onPromoted(promoted *CentralMonitor) {
	m.mu.Lock()
	slave := m.newCentralLocked(RoleSlave, promoted.Name())
	promoted.AdoptSupervised(m.workerDaemons(), slave.Name())
	rt := m.rt
	m.mu.Unlock()
	if rt != nil {
		_ = slave.Start(rt)
	}
}

// onSlaveDead runs on the master when the slave's heartbeat goes stale.
func (m *Manager) onSlaveDead(master *CentralMonitor) {
	m.mu.Lock()
	slave := m.newCentralLocked(RoleSlave, master.Name())
	master.AdoptSupervised(m.workerDaemons(), slave.Name())
	rt := m.rt
	m.mu.Unlock()
	if rt != nil {
		_ = slave.Start(rt)
	}
}

// Start launches every daemon on rt.
func (m *Manager) Start(rt simtime.Runtime) error {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return fmt.Errorf("monitor: manager already started")
	}
	m.started = true
	m.rt = rt
	master := m.newCentralLocked(RoleMaster, "")
	slave := m.newCentralLocked(RoleSlave, master.Name())
	master.AdoptSupervised(m.workerDaemons(), slave.Name())
	slave.AdoptSupervised(m.workerDaemons(), master.Name())
	workers := m.workerDaemons()
	m.mu.Unlock()

	for _, d := range workers {
		if err := d.Start(rt); err != nil {
			return err
		}
	}
	if err := master.Start(rt); err != nil {
		return err
	}
	return slave.Start(rt)
}

// Stop halts all daemons.
func (m *Manager) Stop() {
	m.mu.Lock()
	var all []Daemon
	all = append(all, m.workerDaemons()...)
	for _, c := range m.centrals {
		all = append(all, c)
	}
	m.started = false
	m.mu.Unlock()
	for _, d := range all {
		d.Stop()
	}
}

// Daemon returns the daemon with the given name (for tests and failure
// injection), or nil.
func (m *Manager) Daemon(name string) Daemon {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.workerDaemons() {
		if d.Name() == name {
			return d
		}
	}
	for _, c := range m.centrals {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// Workers returns all supervised (non-central) daemons — what a master
// keeps alive. Chaos harnesses use it to pick crash targets and to
// verify every worker came back after injected failures.
func (m *Manager) Workers() []Daemon {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.workerDaemons()
}

// Centrals returns all central monitor instances created so far.
func (m *Manager) Centrals() []*CentralMonitor {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*CentralMonitor(nil), m.centrals...)
}

// Master returns the current master central monitor, or nil if none.
func (m *Manager) Master() *CentralMonitor {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Later instances win: the newest running master is authoritative.
	for i := len(m.centrals) - 1; i >= 0; i-- {
		c := m.centrals[i]
		if c.Running() && c.Role() == RoleMaster {
			return c
		}
	}
	return nil
}

// ReadSnapshot assembles the consolidated monitoring view from the
// store — the allocator's entire input.
func ReadSnapshot(st store.Store, now time.Time) (*metrics.Snapshot, error) {
	return ReadSnapshotObs(st, now, nil)
}

// ReadSnapshotObs is ReadSnapshot with instrumentation. A missing
// livehosts list fails the whole read; a missing node record or matrix
// is normal startup state (not yet published) and is skipped silently.
// Any *other* read failure is partial data being served as if complete:
// node-state failures count into monitor.snapshot.nodestate.errors, and
// matrix failures additionally mark the snapshot Degraded with a reason
// — an empty matrix silently passed off as fresh would make every pair
// look unmeasured and quietly distort Equation 2.
func ReadSnapshotObs(st store.Store, now time.Time, reg *obs.Registry) (*metrics.Snapshot, error) {
	snap := &metrics.Snapshot{
		Taken:     now,
		Nodes:     make(map[int]metrics.NodeAttrs),
		Latency:   make(map[metrics.PairKey]metrics.PairLatency),
		Bandwidth: make(map[metrics.PairKey]metrics.PairBandwidth),
	}
	hosts, _, err := ReadLivehosts(st)
	if err != nil {
		return nil, fmt.Errorf("monitor: snapshot: %w", err)
	}
	snap.Livehosts = hosts
	for _, id := range hosts {
		attrs, err := ReadNodeState(st, id)
		if err != nil {
			if !errors.Is(err, store.ErrNotFound) {
				reg.Counter("monitor.snapshot.nodestate.errors").Inc()
			}
			continue // node state unavailable; skip
		}
		snap.Nodes[id] = attrs
	}
	lat, err := ReadLatencyMatrix(st)
	switch {
	case err == nil:
		snap.Latency = lat
	case errors.Is(err, store.ErrNotFound):
		// Not yet published; the empty matrix is the truth.
	default:
		snap.Degraded = true
		snap.DegradedReasons = append(snap.DegradedReasons, fmt.Sprintf("latency matrix read failed: %v", err))
		reg.Counter("monitor.snapshot.matrix.errors").Inc()
	}
	bw, err := ReadBandwidthMatrix(st)
	switch {
	case err == nil:
		snap.Bandwidth = bw
	case errors.Is(err, store.ErrNotFound):
		// Not yet published.
	default:
		snap.Degraded = true
		snap.DegradedReasons = append(snap.DegradedReasons, fmt.Sprintf("bandwidth matrix read failed: %v", err))
		reg.Counter("monitor.snapshot.matrix.errors").Inc()
	}
	return snap, nil
}

// Snapshot is a convenience wrapper over ReadSnapshot using the manager's
// runtime clock.
func (m *Manager) Snapshot() (*metrics.Snapshot, error) {
	m.mu.Lock()
	rt := m.rt
	m.mu.Unlock()
	if rt == nil {
		return nil, fmt.Errorf("monitor: manager not started")
	}
	return ReadSnapshot(m.st, rt.Now())
}
