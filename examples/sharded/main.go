// Sharded keyspace: the fast-consistency protocol serves one replicated
// keyspace per shard, and a consistent-hash router spreads a large keyspace
// over many shards — the horizontal-scaling step from the paper's single
// replica group toward a production deployment. This example builds a
// 4-shard router over one 24-replica substrate, loads it, grows it to 5
// shards live (keys hand off with versions intact), and shrinks it back.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	// 1. One shared substrate, carved into 4 shard groups of 6 replicas.
	r := rand.New(rand.NewSource(42))
	graph := topology.BarabasiAlbert(24, 2, r)
	field := demand.Uniform(24, 1, 101, r)
	sys, err := core.NewSystem(graph, field, core.FastConsistency)
	if err != nil {
		log.Fatal(err)
	}
	router, err := core.Sharded(sys, 4, shard.Config{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	if err := router.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	defer router.Stop()
	fmt.Printf("router: %d shards, %d replicas total, over %v\n\n",
		len(router.Shards()), router.N(), graph)

	// 2. Closed-loop load through the router, one session per worker; each
	//    op lands on its key's owning shard at the lowest-demand replica.
	res := workload.Run(context.Background(), workload.Config{
		Workers: 8, Ops: 20000, ReadFraction: 0.8, Keys: 512, Seed: 42,
	}, func() workload.Client { return router.NewSession() })
	fmt.Printf("load: %d ops at %.0f ops/sec (read p99 %.3fms, write p99 %.3fms)\n\n",
		res.Ops, res.OpsPerSec(), res.ReadLatency.Percentile(99), res.WriteLatency.Percentile(99))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if !router.WaitConverged(ctx) {
		log.Fatal("shards did not converge")
	}
	tab := metrics.NewTable("shard", "replicas", "store digest", "sessions", "fast gains")
	for _, name := range router.Shards() {
		g, _ := router.Group(name)
		digest, ok := g.Digest()
		if !ok {
			log.Fatalf("%s: digests disagree after convergence", name)
		}
		st := g.Stats()
		tab.AddRow(name, g.N(), fmt.Sprintf("%016x", digest),
			int(st.SessionsInitiated), int(st.FastEntriesGained))
	}
	if err := tab.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// 3. Grow the keyspace live: a 5th shard joins the ring; the keys the
	//    ring reassigns to it are handed off with their versions intact.
	probe := workload.Key(1) // the hottest zipf keys certainly exist
	before, _, _ := router.Read(probe)
	grow := rand.New(rand.NewSource(7))
	if err := router.AddShard(shard.GroupSpec{
		Name:  "shard4",
		Graph: topology.BarabasiAlbert(6, 2, grow),
		Field: demand.Uniform(6, 1, 101, grow),
	}); err != nil {
		log.Fatal(err)
	}
	after, ok, err := router.Read(probe)
	if err != nil || !ok || string(after) != string(before) {
		log.Fatalf("key %q changed across resharding: %q -> %q (ok=%t err=%v)",
			probe, before, after, ok, err)
	}
	moved := 0
	for i := 0; i < 512; i++ {
		if owner, _ := router.OwnerOf(workload.Key(i)); owner == "shard4" {
			moved++
		}
	}
	fmt.Printf("\ngrew to %d shards: shard4 now owns %d/512 keys (~fair share %d), reads unchanged\n",
		len(router.Shards()), moved, 512/5)

	// 4. Shrink back: shard4 leaves, its keys redistribute to survivors.
	if err := router.RemoveShard("shard4"); err != nil {
		log.Fatal(err)
	}
	got, ok, err := router.Read(probe)
	if err != nil || !ok || string(got) != string(before) {
		log.Fatalf("key %q lost in shrink: %q (ok=%t err=%v)", probe, got, ok, err)
	}
	fmt.Printf("shrank to %d shards; key %q survived both reshardings (%d-byte value intact)\n",
		len(router.Shards()), probe, len(got))
}
