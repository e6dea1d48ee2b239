// Monitoring and fault tolerance: drives the Resource Monitor directly —
// the distributed daemons (LivehostsD, NodeStateD, LatencyD, BandwidthD)
// publishing into the shared store, and the Central Monitor master/slave
// pair healing the system when daemons crash (§4 of the paper).
//
// This example reaches below the public façade (Simulation.Harness) to
// inject failures, which is exactly what it is for.
package main

import (
	"fmt"
	"log"
	"time"

	"nlarm"
	"nlarm/internal/monitor"
)

func main() {
	sim, err := nlarm.NewSimulation(nlarm.SimulationConfig{Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()
	sim.WarmUp()

	h := sim.Harness
	snap, err := monitor.ReadSnapshot(h.VStore, sim.Now())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monitor state after warm-up: %d livehosts, %d node records, %d latency pairs, %d bandwidth pairs\n",
		len(snap.Livehosts), len(snap.Nodes), len(snap.Latency), len(snap.Bandwidth))

	// 1. A node dies: livehosts drops it, the allocator never sees it.
	h.World.SetNodeDown(12, true)
	sim.Advance(time.Minute)
	snap, _ = monitor.ReadSnapshot(h.VStore, sim.Now())
	fmt.Printf("node csews13 unplugged: livehosts now %d, alive(12)=%v\n",
		len(snap.Livehosts), snap.Alive(12))
	h.World.SetNodeDown(12, false)

	// 2. A measurement daemon crashes: the central monitor relaunches it.
	lat := h.Mgr.Daemon("latencyd")
	lat.Crash()
	fmt.Printf("latencyd crashed: running=%v\n", lat.Running())
	sim.Advance(5 * time.Minute)
	fmt.Printf("after supervision: running=%v (master performed %d relaunches)\n",
		lat.Running(), h.Mgr.Master().Relaunches())

	// 3. The central monitor master dies: the slave promotes itself and
	//    spawns a replacement slave.
	centrals := h.Mgr.Centrals()
	master, slave := centrals[0], centrals[1]
	fmt.Printf("central pair: %s=%s, %s=%s\n", master.Name(), master.Role(), slave.Name(), slave.Role())
	master.Crash()
	sim.Advance(5 * time.Minute)
	fmt.Printf("master killed: %s is now %s (promotions=%d), %d central instances exist\n",
		slave.Name(), slave.Role(), slave.Promotions(), len(h.Mgr.Centrals()))

	// 4. The store-only health check (what an operator would run against
	//    the NFS directory).
	diag, err := monitor.Diagnose(h.Store, sim.Now(), monitor.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(monitor.FormatDiagnosis(diag))

	// 5. The monitor still serves fresh data for allocations.
	resp, err := sim.Allocate(nlarm.AllocRequest{Procs: 16, PPN: 4, Alpha: 0.3, Beta: 0.7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("allocation after all that: %v -> %v\n", resp.Recommendation, resp.Hostfile)
}
