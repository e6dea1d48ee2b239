package monitor

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nlarm/internal/store"
)

// DaemonHealth is one daemon's liveness verdict, judged from its
// heartbeat in the shared store.
type DaemonHealth struct {
	Name      string
	Last      time.Time
	Age       time.Duration
	Threshold time.Duration
	Healthy   bool
}

// Diagnosis is a full health check of the monitoring system, computed
// purely from the shared store — it can run anywhere the store is
// reachable, with no access to the daemon processes (exactly how an
// operator would check the paper's NFS directory).
type Diagnosis struct {
	Taken   time.Time
	Daemons []DaemonHealth
	// LeaderName and LeaderAge describe the central-monitor lease.
	LeaderName    string
	LeaderAge     time.Duration
	LeaderHealthy bool
	// Livehosts is the published live-node count; LivehostsAge its age.
	Livehosts    int
	LivehostsAge time.Duration
	// FreshNodeRecords counts node-state records younger than twice the
	// sampling period; StaleNodeRecords the rest.
	FreshNodeRecords int
	StaleNodeRecords int
	// LatencyPairs/BandwidthPairs are the published matrix sizes.
	LatencyPairs   int
	BandwidthPairs int
}

// Healthy reports whether every daemon heartbeat and the leader lease are
// fresh.
func (d *Diagnosis) Healthy() bool {
	if !d.LeaderHealthy {
		return false
	}
	for _, h := range d.Daemons {
		if !h.Healthy {
			return false
		}
	}
	return true
}

// stalenessThreshold is the single source of truth for how stale a
// heartbeat may be before a daemon with the given tick period counts as
// dead: the larger of the configured timeout and 2.5 periods, so slow
// daemons like BandwidthD are not declared dead (or relaunched) between
// legitimate ticks. Both the central monitor's supervision (staleKey)
// and the doctor's diagnosis (thresholdFor) apply this rule.
func stalenessThreshold(period time.Duration, cfg Config) time.Duration {
	threshold := cfg.HeartbeatTimeout
	if p := period * 5 / 2; p > threshold {
		threshold = p
	}
	return threshold
}

// periodFor maps a daemon name to the tick period the staleness rule
// should assume for it. The central monitor knows each supervised
// daemon's exact period; the doctor only has names, so it reconstructs
// the period per daemon family.
func periodFor(name string, cfg Config) time.Duration {
	switch {
	case strings.HasPrefix(name, "nodestated/"):
		return cfg.NodeStatePeriod
	case strings.HasPrefix(name, "livehostsd/"):
		// Replicas run at staggered multiples of the base period; allow
		// the slowest replica's cadence.
		return cfg.LivehostsPeriod * time.Duration(cfg.LivehostsReplicas)
	case name == "latencyd":
		return cfg.LatencyPeriod
	case name == "bandwidthd":
		return cfg.BandwidthPeriod
	default: // centralmon/* and anything unknown
		return cfg.SupervisePeriod
	}
}

// thresholdFor is the doctor's staleness threshold for the named daemon:
// periodFor's family period fed through the shared stalenessThreshold
// rule.
func thresholdFor(name string, cfg Config) time.Duration {
	return stalenessThreshold(periodFor(name, cfg), cfg)
}

// Diagnose inspects the store and returns the system's health at `now`.
func Diagnose(st store.Store, now time.Time, cfg Config) (*Diagnosis, error) {
	cfg = cfg.withDefaults()
	d := &Diagnosis{Taken: now}

	keys, err := st.List(KeyHeartbeatPrefix)
	if err != nil {
		return nil, fmt.Errorf("monitor: diagnose: %w", err)
	}
	var hr heartbeatReader
	for _, k := range keys {
		name := strings.TrimPrefix(k, KeyHeartbeatPrefix)
		at, ok := hr.read(st, k)
		if !ok {
			continue
		}
		h := DaemonHealth{
			Name:      name,
			Last:      at,
			Age:       now.Sub(at),
			Threshold: thresholdFor(name, cfg),
		}
		h.Healthy = h.Age <= h.Threshold
		d.Daemons = append(d.Daemons, h)
	}
	sort.Slice(d.Daemons, func(i, j int) bool { return d.Daemons[i].Name < d.Daemons[j].Name })

	var lease leaderLease
	if err := getJSON(st, KeyLeader, &lease); err == nil {
		d.LeaderName = lease.ID
		d.LeaderAge = now.Sub(lease.At)
		d.LeaderHealthy = d.LeaderAge <= thresholdFor(lease.ID, cfg)
	}

	if hosts, at, err := ReadLivehosts(st); err == nil {
		d.Livehosts = len(hosts)
		d.LivehostsAge = now.Sub(at)
		freshCut := 2 * cfg.NodeStatePeriod
		for _, id := range hosts {
			attrs, err := ReadNodeState(st, id)
			if err != nil {
				d.StaleNodeRecords++
				continue
			}
			if now.Sub(attrs.Timestamp) <= freshCut {
				d.FreshNodeRecords++
			} else {
				d.StaleNodeRecords++
			}
		}
	}
	if lm, err := ReadLatencyMatrix(st); err == nil {
		d.LatencyPairs = len(lm)
	}
	if bm, err := ReadBandwidthMatrix(st); err == nil {
		d.BandwidthPairs = len(bm)
	}
	return d, nil
}

// FormatDiagnosis renders a human-readable health report.
func FormatDiagnosis(d *Diagnosis) string {
	var b strings.Builder
	status := "HEALTHY"
	if !d.Healthy() {
		status = "DEGRADED"
	}
	fmt.Fprintf(&b, "monitor health: %s (leader %s, lease age %v)\n",
		status, d.LeaderName, d.LeaderAge.Round(time.Second))
	fmt.Fprintf(&b, "livehosts: %d (age %v); node records: %d fresh, %d stale; matrices: %d latency, %d bandwidth pairs\n",
		d.Livehosts, d.LivehostsAge.Round(time.Second),
		d.FreshNodeRecords, d.StaleNodeRecords, d.LatencyPairs, d.BandwidthPairs)
	sick := 0
	for _, h := range d.Daemons {
		if !h.Healthy {
			sick++
			fmt.Fprintf(&b, "  DEAD %-16s last heartbeat %v ago (threshold %v)\n",
				h.Name, h.Age.Round(time.Second), h.Threshold)
		}
	}
	if sick == 0 {
		fmt.Fprintf(&b, "all %d daemons heartbeating\n", len(d.Daemons))
	}
	return b.String()
}
