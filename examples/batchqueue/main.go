// Batch queue: the broker as a miniature resource manager. Several users
// submit jobs while a large job hogs the cluster; the queue honors the
// broker's wait recommendation (§6 of the paper), holds the submissions,
// and launches them in order as soon as the cluster frees up.
//
// This example drives internal components through the simulation façade
// (Simulation.Harness) — the same wiring cmd/nlarm-broker exposes over
// TCP via `nlarm-alloc -submit`.
package main

import (
	"fmt"
	"log"
	"time"

	"nlarm"
	"nlarm/internal/broker"
	"nlarm/internal/jobqueue"
	"nlarm/internal/mpisim"
)

func main() {
	sim, err := nlarm.NewSimulation(nlarm.SimulationConfig{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()
	sim.WarmUp()
	h := sim.Harness

	// A broker with a strict wait threshold plus the FIFO queue.
	strict := broker.New(h.VStore, h.Sched, broker.Config{Seed: 11, WaitLoadPerCore: 0.5})
	queue := jobqueue.New(strict, h.Sched, jobqueue.Config{RetryPeriod: 30 * time.Second})
	if err := queue.Start(); err != nil {
		log.Fatal(err)
	}
	defer queue.Stop()
	manager := jobqueue.NewWorldManager(queue, h.World)

	// A hog occupies the whole cluster for a few virtual minutes.
	hog := &mpisim.Shape{Name: "hog", Ranks: 480, Iterations: 1, ComputeSecPerIter: 150, RefFreqGHz: 4.6}
	nodes := make([]int, 60)
	for i := range nodes {
		nodes[i] = i
	}
	place, err := mpisim.NewPlacement(480, nodes, 8)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := h.World.LaunchJob(hog, place, nil); err != nil {
		log.Fatal(err)
	}
	sim.Advance(90 * time.Second) // let the monitor see the load
	fmt.Println("hog launched on all 60 nodes; cluster load is high")

	// Three users submit while the cluster is crowded.
	var ids []int
	for i, spec := range []broker.SubmitRequest{
		{Name: "md-alice", App: "minimd", Size: 16, Iterations: 50,
			Request: broker.Request{Procs: 32, PPN: 4, Alpha: 0.3, Beta: 0.7}},
		{Name: "fe-bob", App: "minife", Size: 96, Iterations: 50,
			Request: broker.Request{Procs: 16, PPN: 4, Alpha: 0.4, Beta: 0.6}},
		{Name: "md-carol", App: "minimd", Size: 8, Iterations: 50,
			Request: broker.Request{Procs: 8, PPN: 4, Alpha: 0.3, Beta: 0.7}},
	} {
		id, err := manager.Submit(spec)
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
		info, _ := manager.Status(id)
		fmt.Printf("submitted #%d %-9s -> %s\n", id, spec.Name, info.State)
		_ = i
	}
	qs := manager.QueueStats()
	fmt.Printf("queue while busy: pending=%d running=%d\n\n", qs.Pending, qs.Running)

	// Advance virtual time; the hog drains, the queue launches in order.
	for round := 0; round < 40; round++ {
		sim.Advance(time.Minute)
		qs = manager.QueueStats()
		if qs.Done == len(ids) {
			break
		}
	}
	fmt.Println("after the hog finished:")
	for _, id := range ids {
		info, _ := manager.Status(id)
		fmt.Printf("#%d %-9s %-7s waits=%d elapsed=%.2fs nodes=%v\n",
			info.ID, info.Name, info.State, info.WaitAnswers, info.Elapsed.Seconds(), info.Nodes)
	}
	qs = manager.QueueStats()
	fmt.Printf("final queue: pending=%d running=%d done=%d failed=%d\n",
		qs.Pending, qs.Running, qs.Done, qs.Failed)
}
