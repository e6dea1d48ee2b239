package monitor

import (
	"testing"
	"time"

	"nlarm/internal/obs"
	"nlarm/internal/store"
)

// TestNodeStateTickAllocs pins a warmed NodeStateD tick (sample, the
// four running means, encode, put, heartbeat and publish accounting)
// over the versioned store the daemons write through at zero
// allocations.
func TestNodeStateTickAllocs(t *testing.T) {
	d, now := warmNodeState(t, store.Version(store.NewMem()))
	if a := testing.AllocsPerRun(200, func() {
		now = now.Add(5 * time.Second)
		d.fire(now, d.tick)
	}); a != 0 {
		t.Fatalf("warmed NodeStateD tick allocates %v times, want 0", a)
	}
}

// warmNodeState starts a NodeStateD publishing into st and runs it for
// an hour at 5 s, which holds the 15-minute series at its largest, past
// several compactions; it returns the daemon and the instant it reached.
func warmNodeState(tb testing.TB, st store.Store) (*NodeStateD, time.Time) {
	r := newRig(tb, 3)
	d := NewNodeStateD(1, r.pr, st, 5*time.Second)
	d.SetObs(obs.NewRegistry())
	if err := d.Start(r.sched); err != nil {
		tb.Fatal(err)
	}
	r.sched.RunFor(time.Hour)
	return d, r.sched.Now()
}

// BenchmarkNodeStateTick times one warmed NodeStateD tick and its
// heartbeat through fire, over the versioned store the daemons write
// through.
func BenchmarkNodeStateTick(b *testing.B) {
	d, now := warmNodeState(b, store.Version(store.NewMem()))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		now = now.Add(5 * time.Second)
		d.fire(now, d.tick)
	}
}

// TestLatencySweepAllocs pins a latency sweep after the first: the
// measurements, running means, matrix, put and heartbeat allocate
// nothing. The seven allocations left are the livehosts read: the key
// list, the value copy, the decoded record, and four appends growing its
// host list to the rig's eight nodes.
func TestLatencySweepAllocs(t *testing.T) {
	r := newRig(t, 3)
	st := store.Version(store.NewMem())
	lh := NewLivehostsD(0, r.pr, st, 10*time.Second)
	d := NewLatencyD(r.pr, st, time.Minute)
	for _, dm := range []Daemon{lh, d} {
		if err := dm.Start(r.sched); err != nil {
			t.Fatal(err)
		}
	}
	r.sched.RunFor(10 * time.Minute)
	lh.Stop()
	now := r.sched.Now()
	if a := testing.AllocsPerRun(50, func() {
		now = now.Add(time.Minute)
		d.fire(now, d.tick)
	}); a != 7 {
		t.Fatalf("latency sweep allocates %v times, want 7", a)
	}
}
