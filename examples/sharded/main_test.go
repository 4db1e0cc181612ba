package main

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/shard"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestShardedScenario runs the example's flow at reduced scale: load a
// carved router, converge, grow it by one shard, and shrink it back with
// every key surviving.
func TestShardedScenario(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	graph := topology.BarabasiAlbert(12, 2, r)
	field := demand.Uniform(12, 1, 101, r)
	sys, err := core.NewSystem(graph, field, core.FastConsistency)
	if err != nil {
		t.Fatal(err)
	}
	router, err := core.Sharded(sys, 3, shard.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer router.Stop()

	res := workload.Run(context.Background(), workload.Config{
		Workers: 4, Ops: 2000, ReadFraction: 0.5, Keys: 128, Seed: 42,
	}, func() workload.Client { return router.NewSession() })
	if res.Errors > 0 {
		t.Fatalf("%d load ops failed", res.Errors)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if !router.WaitConverged(ctx) {
		t.Fatal("router did not converge after load")
	}

	probe := workload.Key(0)
	before, ok, err := router.Read(probe)
	if err != nil || !ok {
		t.Fatalf("probe read: ok=%t err=%v", ok, err)
	}
	grow := rand.New(rand.NewSource(7))
	if err := router.AddShard(shard.GroupSpec{
		Name:  "grown",
		Graph: topology.BarabasiAlbert(4, 2, grow),
		Field: demand.Uniform(4, 1, 101, grow),
	}); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := router.Read(probe); err != nil || !ok || string(v) != string(before) {
		t.Fatalf("probe changed across grow: ok=%t err=%v", ok, err)
	}
	if err := router.RemoveShard("grown"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := router.Read(probe); err != nil || !ok || string(v) != string(before) {
		t.Fatalf("probe lost in shrink: ok=%t err=%v", ok, err)
	}
}
