package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/broker"
	"nlarm/internal/monitor"
)

// timeMs times f once, in milliseconds.
func timeMs(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0)) / 1e6
}

// ladderTarget is a broker rig's data as the ladder needs it: the store
// the broker reads, the broker, the rig's way of making the monitoring
// view move (nil when the workload freezes it) and the request to
// price.
type ladderTarget struct {
	st    monitor.GenSource
	b     *broker.Broker
	now   func() time.Time
	churn func()
	req   broker.Request
	shard alloc.ShardOptions
	nproc int
	toy   bool
}

// run times each layer a fresh allocate passes through by calling its
// public entry point directly on the rig's own data — snapshot-cache
// refresh, snapshot copy and fingerprint, model update and rebuild,
// Algorithms 1-2 — then the same allocate through the broker, the
// batcher and the wire, so each rung's own share is the difference to
// the rung below. Every figure is a median over the iterations.
// alloc.alg12_ms is timed right after the model update, as a fresh
// allocate meets it.
func (t ladderTarget) run(m map[string]float64) error {
	iters, calls := 15, 200
	if t.toy {
		iters, calls = 3, 10
	}
	areq, err := alloc.Request{Procs: t.req.Procs, PPN: t.req.PPN, Alpha: t.req.Alpha, Beta: t.req.Beta}.Validate()
	if err != nil {
		return err
	}
	nla := alloc.NetLoadAware{}
	series := map[string][]float64{}
	add := func(name string, v float64) { series[name] = append(series[name], v) }

	for i := 0; i < 3; i++ {
		cold := monitor.NewSnapshotCache(t.st, nil, nil)
		var err error
		add("monitor.snapcache.cold_ms", timeMs(func() { _, err = cold.Refresh(t.now()) }))
		if err != nil {
			return err
		}
	}
	twin := monitor.NewSnapshotCache(t.st, nil, nil)
	ref, err := twin.Refresh(t.now())
	if err != nil {
		return err
	}
	model := alloc.NewCostModelSharded(ref.Snap, areq.Weights, false, t.shard)
	for i := 0; i < iters; i++ {
		if t.churn != nil {
			t.churn()
			add("monitor.snapcache.refresh_ms", timeMs(func() { ref, err = twin.Refresh(t.now()) }))
			if err != nil {
				return err
			}
			add("monitor.snapcache.keys_reread", float64(ref.KeysReread))
			add("metrics.snapshot.clone_ms", timeMs(func() { _ = ref.Snap.Clone() }))
			add("metrics.snapshot.fingerprint_ms", timeMs(func() { _ = ref.Snap.Fingerprint() }))
			// The broker updates the previous generation's model in place
			// when only node attributes moved, and rebuilds otherwise; time
			// the update where it applies and the rebuild always.
			if ref.Incremental {
				var ok bool
				var um *alloc.CostModel
				add("alloc.model.update_ms", timeMs(func() { um, ok = model.UpdateNodes(ref.Snap, ref.ChangedNodes) }))
				if ok {
					model = um
				}
			}
			add("alloc.model.build_ms", timeMs(func() { model = alloc.NewCostModelSharded(ref.Snap, areq.Weights, false, t.shard) }))
		}
		add("alloc.alg12_ms", timeMs(func() { _, _, err = nla.AllocateExplainModel(model, areq) }))
		if err != nil {
			return err
		}
		if t.churn != nil {
			// The broker has its own snapshot cache, so the churn above is
			// as new to it as it was to the twin.
			add("broker.allocate.fresh_ms", timeMs(func() { _, err = t.b.Allocate(t.req) }))
			if err != nil {
				return err
			}
		}
	}

	// The three rungs of a warm request, each as a run of back-to-back
	// calls so that they differ only by the layer added: Algorithms 1-2
	// on the ready model, the broker around them, then the batcher and
	// the wire below.
	var hotAlg []float64
	for i := 0; i < calls; i++ {
		hotAlg = append(hotAlg, timeMs(func() { _, _, err = nla.AllocateExplainModel(model, areq) }))
		if err != nil {
			return err
		}
	}
	for i := 0; i < calls; i++ {
		add("broker.allocate.warm_ms", timeMs(func() { _, err = t.b.Allocate(t.req) }))
		if err != nil {
			return err
		}
	}

	// Parallel candidate generation: the same call at one CPU and at all.
	if t.nproc > 1 {
		timeAlg := func() float64 {
			var xs []float64
			for i := 0; i < iters; i++ {
				xs = append(xs, timeMs(func() { _, _, _ = nla.AllocateExplainModel(model, areq) }))
			}
			return median(xs)
		}
		runtime.GOMAXPROCS(1)
		one := timeAlg()
		runtime.GOMAXPROCS(t.nproc)
		if all := timeAlg(); all > 0 {
			m["alloc.alg12.par_speedup"] = one / all
		}
	}

	// Batcher rung: one request at a time through EnqueueAllocate, then
	// 256 queued at once from one goroutine, which is the coalescing path
	// a few closed-loop clients never reach.
	bt := broker.NewBatcher(t.b, nil, broker.BatcherOptions{})
	bt.Start()
	done := make(chan error, 256) // one slot per request of the burst below
	enqueue := func() error {
		return bt.EnqueueAllocate("", t.req, func(_ broker.Response, err error) { done <- err })
	}
	for i := 0; i < calls && err == nil; i++ {
		add("broker.batcher.rtt_ms", timeMs(func() {
			if err = enqueue(); err == nil {
				err = <-done
			}
		}))
	}
	for i := 0; i < 5 && err == nil; i++ {
		add("broker.batcher.burst256_us_per_req", 1000/256.0*timeMs(func() {
			n := 0
			for ; n < 256 && err == nil; n++ {
				err = enqueue()
			}
			for ; n > 0; n-- {
				if derr := <-done; err == nil {
					err = derr
				}
			}
		}))
	}
	bt.Close()
	if err != nil {
		return fmt.Errorf("batcher rung: %w", err)
	}

	// Wire rung: the same request through a batching server on loopback.
	srv, err := broker.NewServerOpts(t.b, nil, "127.0.0.1:0", broker.ServerOptions{Batching: &broker.BatcherOptions{}})
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := broker.Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	for i := 0; i < calls; i++ {
		add("broker.wire.rtt_ms", timeMs(func() { _, err = cl.Allocate(t.req) }))
		if err != nil {
			return fmt.Errorf("wire rung: %w", err)
		}
	}
	n, err := responseBytes(srv.Addr(), t.req)
	if err != nil {
		return fmt.Errorf("wire rung: %w", err)
	}
	m["broker.wire.resp_bytes"] = float64(n)

	for name, xs := range series {
		m[name] = median(xs)
	}
	if t.churn != nil {
		m["broker.core.fresh_self_ms"] = m["broker.allocate.fresh_ms"] - m["monitor.snapcache.refresh_ms"] -
			m["metrics.snapshot.clone_ms"] - m["alloc.model.update_ms"] - m["alloc.alg12_ms"]
	}
	m["broker.core.warm_self_ms"] = m["broker.allocate.warm_ms"] - median(hotAlg)
	m["broker.batcher.self_ms"] = m["broker.batcher.rtt_ms"] - m["broker.allocate.warm_ms"]
	m["broker.wire.self_ms"] = m["broker.wire.rtt_ms"] - m["broker.batcher.rtt_ms"]
	return nil
}

// responseBytes sends one allocate request as a raw protocol line and
// returns the length of the answering line.
func responseBytes(addr string, req broker.Request) (int, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return 0, err
	}
	line := struct {
		ID      uint64         `json:"id"`
		Action  string         `json:"action"`
		Request broker.Request `json:"request"`
	}{1, "allocate", req}
	if err := json.NewEncoder(conn).Encode(line); err != nil {
		return 0, err
	}
	resp, err := bufio.NewReaderSize(conn, 1<<20).ReadBytes('\n')
	if err != nil {
		return 0, err
	}
	var ok struct {
		OK bool `json:"ok"`
	}
	if err := json.Unmarshal(resp, &ok); err != nil || !ok.OK {
		return 0, fmt.Errorf("allocate over a raw connection was refused: %s", resp)
	}
	return len(resp), nil
}
