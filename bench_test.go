// Per-figure benchmark harness: one benchmark per table/figure of the
// paper's evaluation (and per extension experiment). Each benchmark runs a
// reduced-scale version of the corresponding experiment and reports the
// headline quantities as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every result's *shape* quickly; cmd/experiments runs the same
// code at the paper's 10,000-trial scale.
package repro_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/experiment"
	"repro/internal/island"
	"repro/internal/mc"
	"repro/internal/policy"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/topology"
	"repro/internal/workload"
)

// benchParams returns the reduced trial count used by Monte-Carlo benches.
func benchParams() experiment.Params {
	return experiment.Params{Trials: 40, Seed: 1, HighFrac: 0.2}
}

// BenchmarkFig3WorstOptimal regenerates Fig. 3 (requests satisfied with
// consistent content for worst/optimal/fast session orders).
func BenchmarkFig3WorstOptimal(b *testing.B) {
	var worst1, optimal1 float64
	for i := 0; i < b.N; i++ {
		worst, optimal, fast := experiment.Fig3Curves()
		worst1, optimal1 = worst[1], optimal[1]
		if fast[0] != 14 {
			b.Fatalf("fast curve broken: %v", fast)
		}
	}
	b.ReportMetric(worst1, "worst-t1-requests")
	b.ReportMetric(optimal1, "optimal-t1-requests")
}

// BenchmarkFig4Dynamic regenerates the §4 dynamic-demand schedule table.
func BenchmarkFig4Dynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, dynamic := experiment.Fig4Schedules()
		if dynamic[1] != "B-C'" {
			b.Fatalf("dynamic schedule broken: %v", dynamic)
		}
	}
}

// benchCDF runs the Fig. 5/6 workload at n nodes and reports the three
// headline means as metrics.
func benchCDF(b *testing.B, n int) {
	b.Helper()
	var weakAll, fastAll, fastHigh float64
	for i := 0; i < b.N; i++ {
		weakAll, fastAll, fastHigh = experiment.CDFMeans(benchParams(), n)
	}
	b.ReportMetric(weakAll, "weak-sessions-all")
	b.ReportMetric(fastAll, "fast-sessions-all")
	b.ReportMetric(fastHigh, "fast-sessions-high")
}

// BenchmarkFig5_50Nodes regenerates Fig. 5 (paper: weak 6.15, fast 3.93,
// high-demand ~1).
func BenchmarkFig5_50Nodes(b *testing.B) { benchCDF(b, 50) }

// BenchmarkFig6_100Nodes regenerates Fig. 6 (paper: weak 6.98, fast 4.78,
// high-demand ~1).
func BenchmarkFig6_100Nodes(b *testing.B) { benchCDF(b, 100) }

// BenchmarkUniformTopologies regenerates the §5 uniform-topology claim on a
// representative ring.
func BenchmarkUniformTopologies(b *testing.B) {
	g := topology.Ring(30)
	r := rand.New(rand.NewSource(2))
	field := demand.Uniform(30, 1, 101, r)
	var fastMean float64
	for i := 0; i < b.N; i++ {
		cfg := mc.NewConfig(g, field, policy.NewDynamicOrdered)
		cfg.FastPush = true
		cfg.Horizon = 2000
		agg := mc.RunMany(cfg, 20, int64(i), 0.2)
		fastMean = agg.TimeAll.Mean()
	}
	b.ReportMetric(fastMean, "fast-sessions-ring30")
}

// BenchmarkDiameterScaling regenerates the §5 doubling observation
// (50 → 100 nodes) and reports the growth ratio (paper: 6.15→6.98, 1.135x).
func BenchmarkDiameterScaling(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(3))
		g50 := topology.BarabasiAlbert(50, 2, r)
		g100 := topology.BarabasiAlbert(100, 2, r)
		f50 := demand.Uniform(50, 1, 101, r)
		f100 := demand.Uniform(100, 1, 101, r)
		w50 := mc.RunMany(mc.NewConfig(g50, f50, policy.NewRandom), 30, 10, 0.2)
		w100 := mc.RunMany(mc.NewConfig(g100, f100, policy.NewRandom), 30, 10, 0.2)
		ratio = w100.TimeAll.Mean() / w50.TimeAll.Mean()
	}
	b.ReportMetric(ratio, "weak-doubling-growth")
}

// BenchmarkIslands regenerates the §6 leader-overlay comparison and reports
// the far valley's speedup factor.
func BenchmarkIslands(b *testing.B) {
	var plain, overlay float64
	for i := 0; i < b.N; i++ {
		plain, overlay = experiment.IslandGap(experiment.Params{Trials: 15, Seed: 5, HighFrac: 0.2})
	}
	b.ReportMetric(plain, "far-valley-plain")
	b.ReportMetric(overlay, "far-valley-overlay")
}

// BenchmarkAblation regenerates the E8 optimisation decomposition.
func BenchmarkAblation(b *testing.B) {
	var weak, fast float64
	for i := 0; i < b.N; i++ {
		var ordered, push float64
		weak, ordered, push, fast = experiment.AblationMeans(benchParams())
		_, _ = ordered, push
	}
	b.ReportMetric(weak, "weak-sessions")
	b.ReportMetric(fast, "fast-sessions")
}

// BenchmarkWorstCase regenerates the §8 equal-demand degeneracy check.
func BenchmarkWorstCase(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	g := topology.BarabasiAlbert(40, 2, r)
	flat := make(demand.Static, 40)
	for i := range flat {
		flat[i] = 10
	}
	var weakMean, fastMean float64
	for i := 0; i < b.N; i++ {
		weak := mc.RunMany(mc.NewConfig(g, flat, policy.NewRandom), 30, 11, 0.2)
		fastCfg := mc.NewConfig(g, flat, policy.NewDynamicOrdered)
		fastCfg.FastPush = true
		fast := mc.RunMany(fastCfg, 30, 11, 0.2)
		weakMean, fastMean = weak.TimeAll.Mean(), fast.TimeAll.Mean()
	}
	b.ReportMetric(weakMean, "weak-sessions")
	b.ReportMetric(fastMean, "fast-sessions")
}

// BenchmarkLiveCluster measures wall-clock convergence of a 16-replica live
// cluster after a single write (E10).
func BenchmarkLiveCluster(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	g := topology.BarabasiAlbert(16, 2, r)
	field := demand.Uniform(16, 1, 101, r)
	sys, err := core.NewSystem(g, field, core.FastConsistency)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cluster := sys.Cluster()
		if err := cluster.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.Write(0, "bench", []byte("v")); err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if !cluster.WaitConverged(ctx) {
			cancel()
			cluster.Stop()
			b.Fatal("cluster did not converge")
		}
		cancel()
		cluster.Stop()
	}
}

// BenchmarkPartition regenerates the E13 segmentation experiment: the
// network is bisected for 5 sessions after the write, then healed; the
// metric is the far side's convergence time under fast consistency.
func BenchmarkPartition(b *testing.B) {
	r := rand.New(rand.NewSource(29))
	g := topology.BarabasiAlbert(40, 2, r)
	field := demand.Uniform(40, 1, 101, r)
	dist := g.BFS(0)
	side := make([]int, g.N())
	for i, d := range dist {
		if d > 2 {
			side[i] = 1
		}
	}
	var farSide []mc.NodeID
	for i, s := range side {
		if s == 1 {
			farSide = append(farSide, mc.NodeID(i))
		}
	}
	var farMean float64
	for i := 0; i < b.N; i++ {
		cfg := mc.NewConfig(g, field, policy.NewDynamicOrdered)
		cfg.FastPush = true
		cfg.Origin = 0
		cfg.LinkFilter = func(from, to mc.NodeID, t float64) bool {
			return t >= 5 || side[from] == side[to]
		}
		s := 0.0
		const trials = 20
		for trial := 0; trial < trials; trial++ {
			res := mc.RunTrial(cfg, int64(trial))
			s += res.TimeOver(farSide)
		}
		farMean = s / trials
	}
	b.ReportMetric(farMean, "far-side-sessions")
}

// BenchmarkStaleness regenerates the E11 steady-state staleness comparison
// and reports the read-weighted lag under fast consistency.
func BenchmarkStaleness(b *testing.B) {
	r := rand.New(rand.NewSource(19))
	g := topology.BarabasiAlbert(30, 2, r)
	field := demand.Uniform(30, 1, 101, r)
	var lag float64
	for i := 0; i < b.N; i++ {
		cfg := mc.SteadyConfig{
			Config:    mc.NewConfig(g, field, policy.NewDynamicOrdered),
			WriteRate: 1,
			ReadScale: 0.02,
			Duration:  30,
			Warmup:    5,
		}
		cfg.FastPush = true
		lag = mc.RunSteady(cfg, int64(i)).MeanLag
	}
	b.ReportMetric(lag, "fast-mean-lag")
}

// BenchmarkTruncation regenerates the E12 truncation trade-off and reports
// the snapshot count forced by keep-last-1 retention.
func BenchmarkTruncation(b *testing.B) {
	r := rand.New(rand.NewSource(23))
	g := topology.BarabasiAlbert(30, 2, r)
	field := demand.Uniform(30, 1, 101, r)
	var snapshots float64
	for i := 0; i < b.N; i++ {
		cfg := mc.SteadyConfig{
			Config:           mc.NewConfig(g, field, policy.NewDynamicOrdered),
			WriteRate:        2,
			ReadScale:        0.02,
			Duration:         30,
			Warmup:           5,
			TruncateKeep:     1,
			TruncateInterval: 1,
		}
		cfg.FastPush = true
		snapshots = float64(mc.RunSteady(cfg, int64(i)).Snapshots)
	}
	b.ReportMetric(snapshots, "snapshots-forced")
}

// BenchmarkSingleTrialFast50 is the inner-loop cost of one Monte-Carlo
// trial at Fig. 5 scale (50 nodes, fast consistency).
func BenchmarkSingleTrialFast50(b *testing.B) {
	r := rand.New(rand.NewSource(13))
	g := topology.BarabasiAlbert(50, 2, r)
	field := demand.Uniform(50, 1, 101, r)
	cfg := mc.NewConfig(g, field, policy.NewDynamicOrdered)
	cfg.FastPush = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.RunTrial(cfg, int64(i))
	}
}

// BenchmarkIslandDetect is the cost of §6 island detection on a 400-node
// power-law graph.
func BenchmarkIslandDetect(b *testing.B) {
	r := rand.New(rand.NewSource(17))
	g := topology.BarabasiAlbert(400, 2, r)
	field := demand.Uniform(400, 1, 101, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		island.Detect(g, field, 0, island.Threshold{Percentile: 80})
	}
}

// benchShardedThroughput drives the consistent-hash router end-to-end: b.N
// closed-loop ops against nShards groups carved from one 16-replica
// substrate, then waits for every shard to converge. Comparing the
// shards=4 and shards=1 rows shows what partitioning the keyspace buys at
// fixed total replica count.
func benchShardedThroughput(b *testing.B, nShards int) {
	b.Helper()
	r := rand.New(rand.NewSource(31))
	g := topology.BarabasiAlbert(16, 2, r)
	field := demand.Uniform(16, 1, 101, r)
	sys, err := core.NewSystem(g, field, core.FastConsistency)
	if err != nil {
		b.Fatal(err)
	}
	router, err := core.Sharded(sys, nShards, shard.Config{Seed: 31},
		runtime.WithSessionInterval(10*time.Millisecond),
		runtime.WithAdvertInterval(5*time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	if err := router.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer router.Stop()

	cfg := workload.Config{Workers: 8, Ops: b.N, ReadFraction: 0.9, Keys: 1024, Seed: 31}
	b.ResetTimer()
	res := workload.Run(context.Background(), cfg, func() workload.Client { return router.NewSession() })
	b.StopTimer()
	if res.Errors > 0 {
		b.Fatalf("%d ops failed", res.Errors)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if !router.WaitConverged(ctx) {
		b.Fatal("shards did not converge after load")
	}
	for _, name := range router.Shards() {
		grp, _ := router.Group(name)
		if _, ok := grp.Digest(); !ok {
			b.Fatalf("%s: store digests disagree after convergence", name)
		}
	}
	b.ReportMetric(res.OpsPerSec(), "ops/sec")
	b.ReportMetric(res.ReadLatency.Percentile(99), "read-p99-ms")
}

// BenchmarkShardedThroughput4 is the sharded deployment: 4 groups x 4
// replicas behind the consistent-hash router.
func BenchmarkShardedThroughput4(b *testing.B) { benchShardedThroughput(b, 4) }

// BenchmarkShardedThroughput1 is the unsharded control at the same total
// replica count: 1 group x 16 replicas behind the same router surface.
func BenchmarkShardedThroughput1(b *testing.B) { benchShardedThroughput(b, 1) }
