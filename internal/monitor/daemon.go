package monitor

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"nlarm/internal/canon"
	"nlarm/internal/obs"
	"nlarm/internal/simtime"
	"nlarm/internal/store"
)

// Store key layout. All values are JSON.
const (
	// KeyLivehostsPrefix + replica index -> livehostsRecord
	KeyLivehostsPrefix = "livehosts/"
	// KeyNodeStatePrefix + node ID -> metrics.NodeAttrs
	KeyNodeStatePrefix = "nodestate/"
	// KeyLatencyMatrix -> []metrics.PairLatency
	KeyLatencyMatrix = "latency/matrix"
	// KeyBandwidthMatrix -> []metrics.PairBandwidth
	KeyBandwidthMatrix = "bandwidth/matrix"
	// KeyHeartbeatPrefix + daemon name -> heartbeat
	KeyHeartbeatPrefix = "heartbeat/"
	// KeyLeader -> leaderLease (central monitor master election)
	KeyLeader = "centralmon/leader"
)

// heartbeat is the liveness record every daemon refreshes on each tick.
type heartbeat struct {
	Name string    `json:"name"`
	At   time.Time `json:"at"`
}

// putJSON puts v's encoding/json bytes under key: the records no daemon
// publishes every tick, and what tickEncoder refuses.
func putJSON(st store.Store, key string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("monitor: marshal %s: %w", key, err)
	}
	return st.Put(key, b)
}

func getJSON(st store.Store, key string, v any) error {
	b, err := st.Get(key)
	if err != nil {
		return err
	}
	if err := unmarshalJSON(b, v); err != nil {
		return fmt.Errorf("monitor: unmarshal %s: %w", key, err)
	}
	return nil
}

// writeHeartbeat puts the named daemon's heartbeat under key, written
// from head, with a buffer of its own: for the heartbeat a daemon writes
// when it starts, and a master when it relaunches one. Manager.Start
// runs off the goroutine that fires the ticks, so it may not touch the
// encoder they share.
func writeHeartbeat(st store.Store, key string, head []byte, name string, now time.Time) {
	var e tickEncoder
	// Heartbeat failures are deliberately swallowed: a daemon that cannot
	// reach the store looks dead to the central monitor, which is exactly
	// the failure semantics we want.
	_ = e.putHeartbeat(st, key, head, name, now)
}

// heartbeatKey is the store key of the named daemon's heartbeat.
func heartbeatKey(name string) string { return KeyHeartbeatPrefix + name }

// heartbeatReader reads heartbeats through one tickDecoder time cache:
// the daemons stamp most heartbeats with the instants of a few ticks, so
// a supervise tick or a diagnosis that reads them all through one reader
// parses each such instant once.
type heartbeatReader struct {
	atText []byte // the cached instant, quoted, in the reader's own buffer
	at     time.Time
}

// read returns the last heartbeat time stored under key.
func (r *heartbeatReader) read(st store.Store, key string) (time.Time, bool) {
	b, err := st.Get(key)
	if err != nil {
		return time.Time{}, false
	}
	var hb heartbeat
	d := tickDecoder{Decoder: canon.Decoder{B: b, OK: true}, atText: r.atText, at: r.at}
	if !d.heartbeat(&hb) {
		var slow heartbeat // apart from hb, which then stays off the heap
		if json.Unmarshal(b, &slow) != nil {
			return time.Time{}, false
		}
		return slow.At, true
	}
	// A new instant's text lies in b: copy it rather than keep b.
	if string(d.atText) != string(r.atText) {
		r.atText, r.at = append(r.atText[:0], d.atText...), d.at
	}
	return hb.At, true
}

// Daemon is the common lifecycle of all monitoring daemons. A daemon can
// be started, stopped gracefully, or crashed (for failure-injection
// tests); after Stop or Crash it can be started again — that is what the
// central monitor does when it relaunches a dead daemon.
type Daemon interface {
	// Name returns the unique daemon name (also its heartbeat key).
	Name() string
	// Period returns the daemon's tick period, which also bounds how
	// often it heartbeats — supervisors must allow at least this much
	// staleness.
	Period() time.Duration
	// Start begins periodic operation on rt. Starting a running daemon is
	// an error.
	Start(rt simtime.Runtime) error
	// Stop halts the daemon gracefully.
	Stop()
	// Crash halts the daemon abruptly (no cleanup), simulating a fault.
	Crash()
	// Running reports whether the daemon is currently active.
	Running() bool
}

// daemonBase implements the common lifecycle; concrete daemons embed it
// and provide the tick function.
type daemonBase struct {
	mu       sync.Mutex
	name     string
	period   time.Duration
	st       store.Store
	cancel   simtime.CancelFunc
	ticks    int
	obs      *obs.Registry // nil = recording disabled
	lastTick time.Time
	// published and interval are obs's monitor.publish.<kind> counter
	// and interval gauge, resolved once by SetObs (nil with obs).
	published *obs.Counter
	interval  *obs.Gauge
	// hbKey is heartbeatKey(name) and hbHead heartbeatHead(name), built by
	// the first start. enc is the buffer every tick encodes into,
	// heartbeat included: the Manager's, shared by all its daemons, or
	// one the first start makes for a daemon run on its own.
	hbKey  string
	hbHead []byte
	enc    *tickEncoder
}

// SetObs attaches an instrumentation registry; each tick then records a
// publish counter and the achieved inter-publish interval per daemon
// family (monitor.publish.<kind>, monitor.publish.interval.<kind>). Call
// before Start; nil disables recording.
func (d *daemonBase) SetObs(reg *obs.Registry) {
	d.mu.Lock()
	d.obs, d.published, d.interval = reg, nil, nil
	if reg != nil {
		kind := d.kind()
		d.published = reg.Counter("monitor.publish." + kind)
		d.interval = reg.Gauge("monitor.publish.interval." + kind)
	}
	d.mu.Unlock()
}

// kind is the daemon family for metric names: "nodestate/3" -> "nodestate".
func (d *daemonBase) kind() string {
	if i := strings.IndexByte(d.name, '/'); i >= 0 {
		return d.name[:i]
	}
	return d.name
}

func (d *daemonBase) Name() string { return d.name }

func (d *daemonBase) Period() time.Duration { return d.period }

func (d *daemonBase) Running() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cancel != nil
}

// Ticks returns how many times the daemon has fired (diagnostics/tests).
func (d *daemonBase) Ticks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ticks
}

func (d *daemonBase) start(rt simtime.Runtime, tick func(now time.Time)) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cancel != nil {
		return fmt.Errorf("monitor: daemon %s already running", d.name)
	}
	if d.hbKey == "" {
		d.hbKey, d.hbHead = heartbeatKey(d.name), heartbeatHead(d.name)
	}
	if d.enc == nil {
		d.enc = new(tickEncoder)
	}
	d.cancel = rt.Every(d.period, d.name, func(now time.Time) { d.fire(now, tick) })
	// Write an immediate heartbeat so the supervisor does not see a fresh
	// daemon as dead before its first tick.
	writeHeartbeat(d.st, d.hbKey, d.hbHead, d.name, rt.Now())
	return nil
}

// fire runs one tick of a running daemon: tick, then the heartbeat and
// the publish accounting.
func (d *daemonBase) fire(now time.Time, tick func(now time.Time)) {
	d.mu.Lock()
	running := d.cancel != nil
	published, interval := d.published, d.interval
	last := d.lastTick
	if running {
		d.ticks++
		d.lastTick = now
	}
	d.mu.Unlock()
	if !running {
		return
	}
	tick(now)
	_ = d.enc.putHeartbeat(d.st, d.hbKey, d.hbHead, d.name, now) // swallowed, as in writeHeartbeat
	// Publish accounting: count per daemon family, and gauge the
	// achieved cadence so a stalled or slow family is visible as a
	// widening interval relative to its configured period.
	if published != nil {
		published.Inc()
		if !last.IsZero() {
			interval.Set(now.Sub(last).Seconds())
		}
	}
}

func (d *daemonBase) stop() {
	d.mu.Lock()
	cancel := d.cancel
	d.cancel = nil
	d.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (d *daemonBase) Stop()  { d.stop() }
func (d *daemonBase) Crash() { d.stop() }

// Config holds the periods of all monitoring activities. Zero fields take
// the paper's defaults.
type Config struct {
	// NodeStatePeriod is how often NodeStateD samples (paper: 3-10s).
	NodeStatePeriod time.Duration
	// LivehostsPeriod is how often LivehostsD pings the cluster.
	LivehostsPeriod time.Duration
	// LatencyPeriod is the interval between latency sweeps (paper: 1 min).
	LatencyPeriod time.Duration
	// BandwidthPeriod is the interval between bandwidth sweeps (paper: 5 min).
	BandwidthPeriod time.Duration
	// SupervisePeriod is how often the central monitor checks heartbeats.
	SupervisePeriod time.Duration
	// HeartbeatTimeout is how stale a heartbeat may be before the daemon
	// is considered dead and relaunched.
	HeartbeatTimeout time.Duration
	// LivehostsReplicas is how many LivehostsD instances run (paper: "a
	// few selected nodes at different frequencies").
	LivehostsReplicas int
	// Obs is the instrumentation registry every daemon records into
	// (publish counts, supervision transitions). Nil disables recording.
	Obs *obs.Registry
}

// DefaultConfig returns the paper's monitoring cadence.
func DefaultConfig() Config {
	return Config{
		NodeStatePeriod:   5 * time.Second,
		LivehostsPeriod:   10 * time.Second,
		LatencyPeriod:     1 * time.Minute,
		BandwidthPeriod:   5 * time.Minute,
		SupervisePeriod:   15 * time.Second,
		HeartbeatTimeout:  45 * time.Second,
		LivehostsReplicas: 2,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.NodeStatePeriod == 0 {
		c.NodeStatePeriod = d.NodeStatePeriod
	}
	if c.LivehostsPeriod == 0 {
		c.LivehostsPeriod = d.LivehostsPeriod
	}
	if c.LatencyPeriod == 0 {
		c.LatencyPeriod = d.LatencyPeriod
	}
	if c.BandwidthPeriod == 0 {
		c.BandwidthPeriod = d.BandwidthPeriod
	}
	if c.SupervisePeriod == 0 {
		c.SupervisePeriod = d.SupervisePeriod
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = d.HeartbeatTimeout
	}
	if c.LivehostsReplicas == 0 {
		c.LivehostsReplicas = d.LivehostsReplicas
	}
	return c
}
