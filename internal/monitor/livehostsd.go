package monitor

import (
	"fmt"
	"strconv"
	"time"

	"nlarm/internal/simtime"
	"nlarm/internal/store"
)

// livehostsRecord is what a LivehostsD replica publishes.
type livehostsRecord struct {
	Replica int       `json:"replica"`
	At      time.Time `json:"at"`
	Hosts   []int     `json:"hosts"`
}

// LivehostsD periodically pings every node and publishes the list of
// reachable ("live") hosts. The paper runs several replicas at different
// frequencies on different nodes for fault tolerance; replica identifies
// this instance.
type LivehostsD struct {
	daemonBase
	replica int
	key     string // KeyLivehostsPrefix + replica
	pr      Prober
	hosts   []int // the last tick's live hosts, reused
}

// NewLivehostsD builds replica `replica` with the given ping period.
func NewLivehostsD(replica int, pr Prober, st store.Store, period time.Duration) *LivehostsD {
	return &LivehostsD{
		daemonBase: daemonBase{
			name:   fmt.Sprintf("livehostsd/%d", replica),
			period: period,
			st:     st,
		},
		replica: replica,
		key:     KeyLivehostsPrefix + strconv.Itoa(replica),
		pr:      pr,
	}
}

// Start implements Daemon.
func (d *LivehostsD) Start(rt simtime.Runtime) error {
	return d.start(rt, d.tick)
}

func (d *LivehostsD) tick(now time.Time) {
	d.hosts = d.hosts[:0]
	for id := 0; id < d.pr.NumNodes(); id++ {
		if d.pr.Ping(id) {
			d.hosts = append(d.hosts, id)
		}
	}
	rec := livehostsRecord{Replica: d.replica, At: now}
	if len(d.hosts) > 0 { // no live host is published as null
		rec.Hosts = d.hosts
	}
	_ = d.enc.putLivehosts(d.st, d.key, &rec)
}

// ReadLivehosts merges the replicas' published lists, preferring the most
// recent record (the paper's replicas exist so at least one is fresh).
func ReadLivehosts(st store.Store) ([]int, time.Time, error) {
	keys, err := st.List(KeyLivehostsPrefix)
	if err != nil {
		return nil, time.Time{}, err
	}
	var best livehostsRecord
	found := false
	for _, k := range keys {
		var rec livehostsRecord
		if err := getJSON(st, k, &rec); err != nil {
			continue
		}
		if !found || rec.At.After(best.At) {
			best = rec
			found = true
		}
	}
	if !found {
		return nil, time.Time{}, fmt.Errorf("monitor: no livehosts records: %w", store.ErrNotFound)
	}
	return best.Hosts, best.At, nil
}
