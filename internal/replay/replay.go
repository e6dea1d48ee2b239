// Package replay archives monitoring snapshots and replays them offline.
// The paper's allocator "considers both current and historical data of
// node attributes and network availability variations across time and
// nodes" (§1); this package is the historical half: an ArchiveD-style
// recorder appends the consolidated snapshot to the shared store at a
// fixed cadence, and the reader replays the archive so allocation
// decisions can be re-run and analyzed at any past instant ("what would
// the heuristic have chosen at 14:05?").
package replay

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"nlarm/internal/metrics"
	"nlarm/internal/monitor"
	"nlarm/internal/simtime"
	"nlarm/internal/store"
)

// KeyPrefix is the store prefix for archived snapshots.
const KeyPrefix = "archive/"

// archived is the serializable form of a snapshot (the live Snapshot keys
// its matrices by struct, which encoding/json cannot marshal).
type archived struct {
	Taken     time.Time               `json:"taken"`
	Livehosts []int                   `json:"livehosts"`
	Nodes     []metrics.NodeAttrs     `json:"nodes"`
	Latency   []metrics.PairLatency   `json:"latency"`
	Bandwidth []metrics.PairBandwidth `json:"bandwidth"`
}

func toArchived(s *metrics.Snapshot) archived {
	a := archived{Taken: s.Taken, Livehosts: append([]int(nil), s.Livehosts...)}
	for _, na := range s.Nodes {
		a.Nodes = append(a.Nodes, na)
	}
	sort.Slice(a.Nodes, func(i, j int) bool { return a.Nodes[i].NodeID < a.Nodes[j].NodeID })
	for _, pl := range s.Latency {
		a.Latency = append(a.Latency, pl)
	}
	sort.Slice(a.Latency, func(i, j int) bool {
		if a.Latency[i].U != a.Latency[j].U {
			return a.Latency[i].U < a.Latency[j].U
		}
		return a.Latency[i].V < a.Latency[j].V
	})
	for _, pb := range s.Bandwidth {
		a.Bandwidth = append(a.Bandwidth, pb)
	}
	sort.Slice(a.Bandwidth, func(i, j int) bool {
		if a.Bandwidth[i].U != a.Bandwidth[j].U {
			return a.Bandwidth[i].U < a.Bandwidth[j].U
		}
		return a.Bandwidth[i].V < a.Bandwidth[j].V
	})
	return a
}

func (a archived) toSnapshot() *metrics.Snapshot {
	s := &metrics.Snapshot{
		Taken:     a.Taken,
		Livehosts: append([]int(nil), a.Livehosts...),
		Nodes:     make(map[int]metrics.NodeAttrs, len(a.Nodes)),
		Latency:   make(map[metrics.PairKey]metrics.PairLatency, len(a.Latency)),
		Bandwidth: make(map[metrics.PairKey]metrics.PairBandwidth, len(a.Bandwidth)),
	}
	for _, na := range a.Nodes {
		s.Nodes[na.NodeID] = na
	}
	for _, pl := range a.Latency {
		s.Latency[metrics.Pair(pl.U, pl.V)] = pl
	}
	for _, pb := range a.Bandwidth {
		s.Bandwidth[metrics.Pair(pb.U, pb.V)] = pb
	}
	return s
}

func keyFor(t time.Time) string {
	// Zero-padded nanoseconds so lexicographic key order equals time order.
	return fmt.Sprintf("%s%020d", KeyPrefix, t.UnixNano())
}

// Save archives one snapshot.
func Save(st store.Store, s *metrics.Snapshot) error {
	b, err := json.Marshal(toArchived(s))
	if err != nil {
		return fmt.Errorf("replay: marshal: %w", err)
	}
	return st.Put(keyFor(s.Taken), b)
}

// Timestamps lists archived snapshot times in ascending order.
func Timestamps(st store.Store) ([]time.Time, error) {
	keys, err := st.List(KeyPrefix)
	if err != nil {
		return nil, err
	}
	out := make([]time.Time, 0, len(keys))
	for _, k := range keys {
		ns, err := strconv.ParseInt(strings.TrimPrefix(k, KeyPrefix), 10, 64)
		if err != nil {
			continue // foreign key under the prefix
		}
		out = append(out, time.Unix(0, ns).UTC())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out, nil
}

// Load returns the snapshot archived at exactly t.
func Load(st store.Store, t time.Time) (*metrics.Snapshot, error) {
	b, err := st.Get(keyFor(t))
	if err != nil {
		return nil, err
	}
	var a archived
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("replay: unmarshal: %w", err)
	}
	return a.toSnapshot(), nil
}

// LoadAt returns the newest archived snapshot taken at or before t —
// what the allocator would have seen at that instant.
func LoadAt(st store.Store, t time.Time) (*metrics.Snapshot, error) {
	times, err := Timestamps(st)
	if err != nil {
		return nil, err
	}
	var best time.Time
	found := false
	for _, at := range times {
		if !at.After(t) {
			best = at
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("replay: no snapshot at or before %v", t)
	}
	return Load(st, best)
}

// Prune deletes archived snapshots older than keep relative to now.
func Prune(st store.Store, now time.Time, keep time.Duration) (deleted int, err error) {
	times, terr := Timestamps(st)
	if terr != nil {
		return 0, terr
	}
	cutoff := now.Add(-keep)
	for _, at := range times {
		if at.Before(cutoff) {
			if derr := st.Delete(keyFor(at)); derr != nil {
				return deleted, derr
			}
			deleted++
		}
	}
	return deleted, nil
}

// Recorder is the ArchiveD daemon: it periodically consolidates the live
// monitoring data into a snapshot and archives it, optionally pruning old
// entries.
type Recorder struct {
	st        store.Store
	period    time.Duration
	retention time.Duration
	cancel    simtime.CancelFunc
}

// NewRecorder builds a recorder archiving every period and retaining
// snapshots for retention (0 = keep forever).
func NewRecorder(st store.Store, period, retention time.Duration) *Recorder {
	return &Recorder{st: st, period: period, retention: retention}
}

// Start begins archiving on rt. Starting twice is an error.
func (r *Recorder) Start(rt simtime.Runtime) error {
	if r.cancel != nil {
		return fmt.Errorf("replay: recorder already started")
	}
	r.cancel = rt.Every(r.period, "archived", func(now time.Time) {
		snap, err := monitor.ReadSnapshot(r.st, now)
		if err != nil {
			return // monitor not warmed up yet
		}
		_ = Save(r.st, snap)
		if r.retention > 0 {
			_, _ = Prune(r.st, now, r.retention)
		}
	})
	return nil
}

// Stop halts archiving.
func (r *Recorder) Stop() {
	if r.cancel != nil {
		r.cancel()
		r.cancel = nil
	}
}
