package monitor

import (
	"sync"
	"time"

	"nlarm/internal/simtime"
	"nlarm/internal/store"
)

// leaderLease is the master-election record in the shared store. The
// master refreshes it every supervision tick; a slave that finds it stale
// promotes itself.
type leaderLease struct {
	ID string    `json:"id"`
	At time.Time `json:"at"`
}

// Role is a central monitor's current role.
type Role int

const (
	// RoleSlave watches the master's lease and promotes itself when the
	// lease goes stale.
	RoleSlave Role = iota
	// RoleMaster supervises the daemons and refreshes the lease.
	RoleMaster
)

// String names the role for logs.
func (r Role) String() string {
	if r == RoleMaster {
		return "master"
	}
	return "slave"
}

// Hooks lets the embedding system react to central monitor transitions.
type Hooks struct {
	// OnPeerLost fires when m loses its peer: on a slave that has become
	// master after the master's lease went stale, and on a master whose
	// slave's heartbeat went stale; either way m now needs a new slave.
	OnPeerLost func(m *CentralMonitor)
}

// CentralMonitor launches, supervises and relaunches the monitoring
// daemons (§4 of the paper). One master and one slave instance run at a
// time; the master does the supervision work, the slave only watches the
// master's lease. Either can fail and the pair heals itself; if both
// fail, the other daemons keep running unsupervised — exactly the
// degraded mode the paper describes.
type CentralMonitor struct {
	daemonBase
	cfg   Config
	hooks Hooks

	roleMu     sync.Mutex
	role       Role
	rt         simtime.Runtime
	supervised []Daemon
	peerName   string // the other central monitor instance's daemon name
	// hbKeys[i] is supervised[i]'s heartbeat key, peerKey peerName's.
	hbKeys     []string
	peerKey    string
	relaunches int
	promotions int

	// hr reads the heartbeats of every supervise tick, which the
	// runtime fires one at a time.
	hr heartbeatReader
}

// NewCentralMonitor builds a central monitor instance with the given
// unique name ("centralmon/a", "centralmon/b", ...) starting in role.
// supervised lists the daemons a master must keep alive. peerName is the
// daemon name of the sibling instance (for slave-death detection).
func NewCentralMonitor(name string, role Role, supervised []Daemon, peerName string, st store.Store, cfg Config, hooks Hooks) *CentralMonitor {
	cfg = cfg.withDefaults()
	m := &CentralMonitor{
		daemonBase: daemonBase{name: name, period: cfg.SupervisePeriod, st: st},
		cfg:        cfg,
		hooks:      hooks,
		role:       role,
	}
	m.setSupervised(supervised, peerName)
	return m
}

// setSupervised replaces the supervised set and builds its heartbeat
// keys once.
func (m *CentralMonitor) setSupervised(ds []Daemon, peerName string) {
	m.supervised, m.peerName = ds, peerName
	m.hbKeys = make([]string, len(ds))
	for i, d := range ds {
		m.hbKeys[i] = heartbeatKey(d.Name())
	}
	m.peerKey = heartbeatKey(peerName)
}

// Role returns the instance's current role.
func (m *CentralMonitor) Role() Role {
	m.roleMu.Lock()
	defer m.roleMu.Unlock()
	return m.role
}

// Relaunches returns how many daemon relaunches this instance performed.
func (m *CentralMonitor) Relaunches() int {
	m.roleMu.Lock()
	defer m.roleMu.Unlock()
	return m.relaunches
}

// Promotions returns how many times this instance promoted itself.
func (m *CentralMonitor) Promotions() int {
	m.roleMu.Lock()
	defer m.roleMu.Unlock()
	return m.promotions
}

// Start implements Daemon. A master immediately claims the lease.
func (m *CentralMonitor) Start(rt simtime.Runtime) error {
	m.roleMu.Lock()
	m.rt = rt
	if m.role == RoleMaster {
		_ = putJSON(m.st, KeyLeader, leaderLease{ID: m.name, At: rt.Now()})
	}
	m.roleMu.Unlock()
	return m.start(rt, m.tick)
}

func (m *CentralMonitor) tick(now time.Time) {
	m.roleMu.Lock()
	role := m.role
	m.roleMu.Unlock()
	if role == RoleMaster {
		m.masterTick(now)
	} else {
		m.slaveTick(now)
	}
}

func (m *CentralMonitor) masterTick(now time.Time) {
	// Refresh the lease first: supervision work must not cost the master
	// its leadership.
	_ = putJSON(m.st, KeyLeader, leaderLease{ID: m.name, At: now})

	m.roleMu.Lock()
	supervised, keys := m.supervised, m.hbKeys
	m.roleMu.Unlock()
	for i, d := range supervised {
		if m.staleKey(keys[i], d.Period(), now) {
			d.Stop() // clear any half-alive state before relaunch
			if err := d.Start(m.rt); err == nil {
				m.roleMu.Lock()
				m.relaunches++
				m.roleMu.Unlock()
				m.obs.Counter("monitor.relaunches.total").Inc()
				m.obs.Emit(now, "relaunch", d.Name()+" by "+m.name)
			}
		}
	}

	if m.peerName != "" && m.staleKey(m.peerKey, m.cfg.SupervisePeriod, now) && m.hooks.OnPeerLost != nil {
		m.hooks.OnPeerLost(m)
	}
}

func (m *CentralMonitor) slaveTick(now time.Time) {
	var lease leaderLease
	err := getJSON(m.st, KeyLeader, &lease)
	if err == nil && now.Sub(lease.At) <= m.cfg.HeartbeatTimeout {
		return // master is healthy
	}
	// Master lease is stale (or missing): promote.
	m.roleMu.Lock()
	m.role = RoleMaster
	m.promotions++
	m.roleMu.Unlock()
	_ = putJSON(m.st, KeyLeader, leaderLease{ID: m.name, At: now})
	m.obs.Counter("monitor.promotions.total").Inc()
	m.obs.Emit(now, "promotion", m.name)
	if m.hooks.OnPeerLost != nil {
		m.hooks.OnPeerLost(m)
	}
}

// AdoptSupervised replaces the supervised daemon set (used when a
// promoted slave takes over supervision, and by the manager when spawning
// replacement instances).
func (m *CentralMonitor) AdoptSupervised(ds []Daemon, peerName string) {
	m.roleMu.Lock()
	defer m.roleMu.Unlock()
	m.setSupervised(ds, peerName)
}

// staleKey reports whether the heartbeat under key is too old. The
// threshold comes from stalenessThreshold — the same rule the doctor's
// thresholdFor applies — so supervision and diagnosis can never disagree
// about who is dead.
func (m *CentralMonitor) staleKey(key string, period time.Duration, now time.Time) bool {
	at, ok := m.hr.read(m.st, key)
	if !ok {
		return true
	}
	return now.Sub(at) > stalenessThreshold(period, m.cfg)
}
