package monitor

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"nlarm/internal/store"
)

// chaosSeeds returns the deterministic seed set for failure-injection
// tests. CI's chaos job adds one matrix seed via NLARM_CHAOS_SEED.
func chaosSeeds() []uint64 {
	seeds := []uint64{1, 2, 3}
	if v := os.Getenv("NLARM_CHAOS_SEED"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			seeds = append(seeds, n)
		}
	}
	return seeds
}

// --- thresholdFor / staleFor single source of truth (satellite) ----------

func TestFaultThresholdSingleSourceOfTruth(t *testing.T) {
	cfgs := map[string]Config{
		"defaults": DefaultConfig(),
		"custom": {
			NodeStatePeriod:   3 * time.Second,
			LivehostsPeriod:   7 * time.Second,
			LatencyPeriod:     90 * time.Second,
			BandwidthPeriod:   11 * time.Minute,
			SupervisePeriod:   20 * time.Second,
			HeartbeatTimeout:  time.Minute,
			LivehostsReplicas: 3,
		},
		"tiny-timeout": {
			NodeStatePeriod:   2 * time.Second,
			LivehostsPeriod:   2 * time.Second,
			LatencyPeriod:     5 * time.Second,
			BandwidthPeriod:   10 * time.Second,
			SupervisePeriod:   4 * time.Second,
			HeartbeatTimeout:  1 * time.Second,
			LivehostsReplicas: 2,
		},
	}
	for cname, cfg := range cfgs {
		cfg = cfg.withDefaults()
		cases := []struct {
			name   string
			period time.Duration
		}{
			{"nodestated/0", cfg.NodeStatePeriod},
			{"nodestated/59", cfg.NodeStatePeriod},
			{"livehostsd/0", cfg.LivehostsPeriod * time.Duration(cfg.LivehostsReplicas)},
			{"livehostsd/2", cfg.LivehostsPeriod * time.Duration(cfg.LivehostsReplicas)},
			{"latencyd", cfg.LatencyPeriod},
			{"bandwidthd", cfg.BandwidthPeriod},
			{"centralmon/0", cfg.SupervisePeriod},
			{"centralmon/17", cfg.SupervisePeriod},
			{"somethingelse", cfg.SupervisePeriod},
		}
		for _, tc := range cases {
			t.Run(cname+"/"+tc.name, func(t *testing.T) {
				want := cfg.HeartbeatTimeout
				if p := tc.period * 5 / 2; p > want {
					want = p
				}
				if got := thresholdFor(tc.name, cfg); got != want {
					t.Fatalf("thresholdFor(%s) = %v, want %v", tc.name, got, want)
				}
				if got := stalenessThreshold(periodFor(tc.name, cfg), cfg); got != thresholdFor(tc.name, cfg) {
					t.Fatalf("doctor and shared rule disagree: %v", got)
				}
			})
		}
	}
}

// staleFor is staleKey for the named daemon's heartbeat.
func (m *CentralMonitor) staleFor(name string, period time.Duration, now time.Time) bool {
	return m.staleKey(heartbeatKey(name), period, now)
}

// TestHeartbeatReaderMatchesFreshReads reads heartbeats stamped at
// mixed instants (one text shared by most, another instant, the first
// instant in another zone), a missing key, garbled records and two that
// only encoding/json decodes (one spaced, one in the older form that
// also names the daemon), in an order that moves the shared reader's
// cached instant back and forth. Every read and every stale verdict must
// equal a read with a fresh decoder, and a read allocates no record.
func TestHeartbeatReaderMatchesFreshReads(t *testing.T) {
	st := store.NewMem()
	cfg := fastConfig().withDefaults()
	at := map[string]time.Time{
		"a1": t0, "a2": t0, "a3": t0, "b1": t0.Add(3500 * time.Millisecond), "b2": t0.Add(3500 * time.Millisecond),
		"old": t0.Add(-time.Minute), "zone": t0.In(time.FixedZone("", 5*3600+1800)),
	}
	for name, when := range at {
		writeHeartbeat(st, heartbeatKey(name), when)
	}
	for name, raw := range map[string]string{
		"cut":    `{"at":"2020-01-01T00:00:00Z"`,
		"badat":  `{"at":"2020-01-01T25:00:00Z"}`,
		"spaced": `{ "at": "2020-01-01T00:00:03.5Z" }`,
		"named":  `{"name":"named","at":"` + t0.Format(time.RFC3339Nano) + `"}`,
	} {
		if err := st.Put(heartbeatKey(name), []byte(raw)); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{"a1", "a2", "a3", "b1", "b2", "a2", "missing", "a3", "zone", "a1", "cut", "b2", "spaced", "named", "a2", "badat", "old", "named", "b1", "zone", "a3"}
	m := NewCentralMonitor("centralmon/test", RoleMaster, nil, "", st, cfg, Hooks{})
	for _, now := range []time.Time{t0, t0.Add(cfg.HeartbeatTimeout + time.Second), t0.Add(time.Hour)} {
		var shared heartbeatReader
		for _, name := range names {
			key := heartbeatKey(name)
			var hb heartbeat
			wantOK := getJSON(st, key, &hb) == nil
			got, ok := shared.read(st, key)
			if ok != wantOK || !got.Equal(hb.At) || got.String() != hb.At.String() {
				t.Fatalf("%s: read %v (%v), a fresh decoder reads %v (%v)", name, got, ok, hb.At, wantOK)
			}
			period := periodFor(name, cfg)
			want := !wantOK || now.Sub(hb.At) > stalenessThreshold(period, cfg)
			if stale := m.staleKey(key, period, now); stale != want {
				t.Fatalf("%s at %v: stale %v through the monitor's reader, %v fresh", name, now, stale, want)
			}
		}
	}
	// A read of a cached instant allocates the store's copy only.
	key := heartbeatKey("a1")
	if a := testing.AllocsPerRun(100, func() { m.staleKey(key, cfg.SupervisePeriod, t0) }); a > 1 {
		t.Fatalf("a heartbeat read allocates %v times, want 1", a)
	}
}

// TestFaultStaleForMatchesDoctorThreshold pins supervision and diagnosis
// to the same verdict: a heartbeat exactly at the threshold is alive to
// both, one tick past it is dead to both.
func TestFaultStaleForMatchesDoctorThreshold(t *testing.T) {
	r := newRig(t, 20)
	cfg := fastConfig()
	m := NewCentralMonitor("centralmon/test", RoleMaster, nil, "", r.st, cfg, Hooks{})
	cfg = cfg.withDefaults()
	for _, name := range []string{"nodestated/1", "livehostsd/0", "latencyd", "bandwidthd"} {
		period := periodFor(name, cfg)
		threshold := thresholdFor(name, cfg)
		at := t0
		writeHeartbeat(r.st, heartbeatKey(name), at)
		if m.staleFor(name, period, at.Add(threshold)) {
			t.Fatalf("%s: stale exactly at threshold %v", name, threshold)
		}
		if !m.staleFor(name, period, at.Add(threshold+time.Nanosecond)) {
			t.Fatalf("%s: alive past threshold %v", name, threshold)
		}
	}
}

// --- master/slave failover under seeded kills (satellite) ----------------

func TestFailoverExactlyOnePromotion(t *testing.T) {
	for _, seed := range chaosSeeds() {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := newRig(t, seed)
			mgr := NewManager(r.pr, r.st, fastConfig())
			if err := mgr.Start(r.sched); err != nil {
				t.Fatal(err)
			}
			defer mgr.Stop()

			// Concurrent observer so -race exercises the managers' locking
			// while the scheduler drives ticks.
			stopObs := make(chan struct{})
			obsDone := make(chan struct{})
			go func() {
				defer close(obsDone)
				for {
					select {
					case <-stopObs:
						return
					default:
					}
					_ = mgr.Master()
					for _, c := range mgr.Centrals() {
						_ = c.Role()
						_ = c.Promotions()
						_ = c.Relaunches()
					}
					_, _ = Diagnose(r.st, r.sched.Now(), fastConfig())
				}
			}()
			defer func() { close(stopObs); <-obsDone }()

			// Seed-varied kill instant: mid-run, not tick-aligned.
			r.sched.RunFor(10*time.Second + time.Duration(seed%7)*700*time.Millisecond)
			master := mgr.Centrals()[0]
			if master.Role() != RoleMaster {
				t.Fatal("instance 0 is not the initial master")
			}
			master.Crash()
			r.sched.RunFor(time.Minute)

			promotions := 0
			runningMasters := 0
			for _, c := range mgr.Centrals() {
				promotions += c.Promotions()
				if c.Running() && c.Role() == RoleMaster {
					runningMasters++
				}
			}
			if promotions != 1 {
				t.Fatalf("promotions = %d, want exactly 1", promotions)
			}
			if runningMasters != 1 {
				t.Fatalf("running masters = %d, want exactly 1", runningMasters)
			}
			if len(mgr.Centrals()) != 3 {
				t.Fatalf("%d central instances, want 3 (pair + replacement slave)", len(mgr.Centrals()))
			}
			replacement := mgr.Centrals()[2]
			if !replacement.Running() || replacement.Role() != RoleSlave {
				t.Fatalf("replacement slave: running=%v role=%v", replacement.Running(), replacement.Role())
			}
		})
	}
}

func TestFailoverAdoptionAndNoDoubleRelaunch(t *testing.T) {
	for _, seed := range chaosSeeds() {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := newRig(t, seed+100)
			mgr := NewManager(r.pr, r.st, fastConfig())
			if err := mgr.Start(r.sched); err != nil {
				t.Fatal(err)
			}
			defer mgr.Stop()
			r.sched.RunFor(10 * time.Second)

			// Kill the master, let the slave take over.
			mgr.Centrals()[0].Crash()
			r.sched.RunFor(time.Minute)
			promoted := mgr.Master()
			if promoted == nil || promoted != mgr.Centrals()[1] {
				t.Fatal("slave did not take over as the authoritative master")
			}

			// Supervised-daemon adoption: a worker crashed AFTER failover
			// must be relaunched by the promoted master.
			d := mgr.Daemon("latencyd")
			d.Crash()
			r.sched.RunFor(time.Minute)
			if !d.Running() {
				t.Fatal("promoted master did not relaunch crashed worker (adoption broken)")
			}
			if promoted.Relaunches() != 1 {
				t.Fatalf("promoted master relaunches = %d, want 1", promoted.Relaunches())
			}

			// No double-relaunch: nobody else relaunched it, and further
			// settling must not relaunch a healthy daemon again.
			total := 0
			for _, c := range mgr.Centrals() {
				total += c.Relaunches()
			}
			if total != 1 {
				t.Fatalf("total relaunches = %d, want exactly 1 (double relaunch)", total)
			}
			ticksBefore := d.(*LatencyD).Ticks()
			r.sched.RunFor(2 * time.Minute)
			total = 0
			for _, c := range mgr.Centrals() {
				total += c.Relaunches()
			}
			if total != 1 {
				t.Fatalf("healthy daemon relaunched again: total=%d", total)
			}
			if d.(*LatencyD).Ticks() <= ticksBefore {
				t.Fatal("relaunched daemon stopped ticking")
			}
		})
	}
}
