// Client-plane benchmarks: the live Read/Write surface a replica serves to
// its clients, measured under parallelism (-cpu 4,8). These are the paper's
// deployment story — "clients will be able to contact the nearest replica" —
// so the numbers that matter are concurrent ops/sec against one replica
// group, not protocol-internal microcosts.
//
// BenchmarkClientPlaneReadParallel pins the lock-free read path: many client
// goroutines reading across all replicas of one group.
//
// BenchmarkGroupCommitThroughput pins the write-combining path: many client
// goroutines writing through a single replica, where concurrent writes fold
// into one lock acquisition and one merged fast-offer fan-out per batch.
//
// BenchmarkTCPClientPlane runs the same closed-loop client mix against a
// cluster whose replication runs over real TCP sockets, so the coalescing
// peer writer is on the measured path.
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/demand"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/workload"
)

// startBenchCluster builds and starts a live memory-transport cluster with
// session timing slowed enough that anti-entropy background traffic does not
// dominate the client-plane measurement.
func startBenchCluster(b *testing.B, n int, extra ...runtime.Option) *runtime.Cluster {
	b.Helper()
	r := rand.New(rand.NewSource(47))
	g := topology.BarabasiAlbert(n, 2, r)
	field := demand.Uniform(n, 1, 101, r)
	opts := append([]runtime.Option{
		runtime.WithSeed(47),
		runtime.WithSessionInterval(20 * time.Millisecond),
		runtime.WithAdvertInterval(10 * time.Millisecond)}, extra...)
	cluster := runtime.New(g, field, opts...)
	if err := cluster.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.Stop)
	return cluster
}

// preloadKeys writes nKeys through replica 0 and waits for the group to
// converge, so every replica serves every key during the read phase.
func preloadKeys(b *testing.B, cluster *runtime.Cluster, nKeys int) []string {
	b.Helper()
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%04d", i)
		if _, err := cluster.Write(0, keys[i], []byte("client-plane-payload")); err != nil {
			b.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if !cluster.WaitConverged(ctx) {
		b.Fatal("cluster did not converge after preload")
	}
	return keys
}

// BenchmarkClientPlaneReadParallel measures concurrent client reads spread
// across every replica of an 8-replica group. Run with -cpu 4,8 to see
// scaling; the read path must not contend on any per-replica lock.
func BenchmarkClientPlaneReadParallel(b *testing.B) {
	cluster := startBenchCluster(b, 8)
	keys := preloadKeys(b, cluster, 512)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		id := runtime.NodeID(next.Add(1)) % runtime.NodeID(cluster.N())
		i := int(next.Add(1))
		for pb.Next() {
			key := keys[i%len(keys)]
			i++
			if _, _, err := cluster.Read(id, key); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/sec")
}

// BenchmarkSessionRead pins the token-covered session-read fast path: each
// client goroutine reads at one replica carrying a session token that
// replica already covers (the warm read merges the replica's applied
// watermark into it and pins the token's snapshot cache), so every
// measured read is the plain read plus one atomic watermark load and a
// pointer compare. The contract: zero allocations and per-op cost within
// 10% of BenchmarkClientPlaneReadParallel — session guarantees are free
// until a replica actually lags.
func BenchmarkSessionRead(b *testing.B) {
	cluster := startBenchCluster(b, 8)
	keys := preloadKeys(b, cluster, 512)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		id := runtime.NodeID(next.Add(1)) % runtime.NodeID(cluster.N())
		i := int(next.Add(1))
		tok := &runtime.Token{}
		opt := &runtime.LeveledRead{Level: runtime.LevelSession, Token: tok}
		if _, _, err := cluster.ReadLeveled(id, keys[0], opt); err != nil {
			b.Fatal(err)
		}
		for pb.Next() {
			key := keys[i%len(keys)]
			i++
			if _, _, err := cluster.ReadLeveled(id, key, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/sec")
}

// BenchmarkGroupCommitThroughput measures concurrent client writes funnelled
// through one replica of a 4-replica group — the worst case for the old
// lock-per-write path and the best case for write combining.
func BenchmarkGroupCommitThroughput(b *testing.B) {
	cluster := startBenchCluster(b, 4)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("gc-key-%04d", i)
	}
	var next atomic.Int64
	value := []byte("group-commit-payload")
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 1_000_003
		for pb.Next() {
			key := keys[i%len(keys)]
			i++
			if _, err := cluster.Write(0, key, value); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/sec")
	b.StopTimer()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if !cluster.WaitConverged(ctx) {
		b.Fatal("cluster did not converge after writes")
	}
}

// BenchmarkDurableGroupCommit is BenchmarkGroupCommitThroughput with the
// durable persistence plane on, measuring the pipelined commit protocol:
// batches append and publish under the replica lock, fsyncs retire in the
// WAL's background sync stage, and acks release in batch order once their
// covering sync completes. The gap to BenchmarkGroupCommitThroughput is
// the price of crash-surviving acks.
//
// Every client is closed-loop (its next write waits on its last ack), so
// the pipeline only fills when enough clients are outstanding; parallelism
// 8 runs 8×GOMAXPROCS clients — 64 at -cpu 8 — the load level where the
// fsync, not the replica lock, must be the only bottleneck.
func BenchmarkDurableGroupCommit(b *testing.B) {
	cluster := startBenchCluster(b, 4, runtime.WithDurability(b.TempDir()))
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("gc-key-%04d", i)
	}
	var next atomic.Int64
	value := []byte("group-commit-payload")
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 1_000_003
		for pb.Next() {
			key := keys[i%len(keys)]
			i++
			if _, err := cluster.Write(0, key, value); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/sec")
	b.StopTimer()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if !cluster.WaitConverged(ctx) {
		b.Fatal("cluster did not converge after writes")
	}
}

// clusterTarget adapts a single live cluster to the workload driver: every
// worker opens its own session, and all of them spread their ops across
// replicas round-robin (the "nearest replica" of the paper, with clients
// evenly distributed).
type clusterTarget struct {
	cluster *runtime.Cluster
	next    atomic.Int64
}

func (t *clusterTarget) open() workload.Client {
	return &clusterClient{t: t, sess: t.cluster.NewSession()}
}

type clusterClient struct {
	t    *clusterTarget
	sess *runtime.Session
}

func (c *clusterClient) pick() runtime.NodeID {
	return runtime.NodeID(c.t.next.Add(1)) % runtime.NodeID(c.t.cluster.N())
}

func (c *clusterClient) Write(key string, value []byte) (shard.Receipt, error) {
	id := c.pick()
	rec, err := c.sess.Write(id, key, value)
	return shard.Receipt{Node: id, TS: rec.TS, Clock: rec.Clock}, err
}

func (c *clusterClient) ReadVersioned(key string, lvl runtime.Level) (store.Versioned, bool, error) {
	return c.sess.ReadLevel(c.pick(), key, lvl)
}

// BenchmarkTCPClientPlane drives the standard closed-loop client mix (8
// workers, 90% reads) against a 4-replica cluster replicating over real TCP
// sockets on the loopback, so frame encoding, the peer send path, and kernel
// syscalls are all on the measured path.
func BenchmarkTCPClientPlane(b *testing.B) {
	r := rand.New(rand.NewSource(53))
	g := topology.Ring(4)
	field := demand.Uniform(4, 1, 101, r)
	cluster, err := runtime.NewTCP(g, field, "127.0.0.1",
		runtime.WithSeed(53),
		runtime.WithSessionInterval(20*time.Millisecond),
		runtime.WithAdvertInterval(10*time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	if err := cluster.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.Stop)
	target := &clusterTarget{cluster: cluster}
	cfg := workload.Config{Workers: 8, Ops: b.N, ReadFraction: 0.9, Keys: 1024, Seed: 53}
	b.ResetTimer()
	res := workload.Run(context.Background(), cfg, target.open)
	b.StopTimer()
	if res.Errors > 0 {
		b.Fatalf("%d ops failed", res.Errors)
	}
	b.ReportMetric(res.OpsPerSec(), "ops/sec")
	b.ReportMetric(res.ReadLatency.Percentile(99), "read-p99-ms")
}

// BenchmarkGoodputUnderOverload is the overload-robustness headline: a
// durable 4-replica group with the admission plane armed, offered an
// open-loop write flood at 2x its own measured saturation rate. The
// reported ops/sec is GOODPUT — writes acked per wall-clock second while
// the controller sheds the excess — and goodput-ratio is goodput over the
// saturation rate measured untimed just before. A graceful server holds
// the ratio near 1 (capacity is spent on admitted work, not on queueing
// collapse); the regression gate watches ops/sec like every other bench.
func BenchmarkGoodputUnderOverload(b *testing.B) {
	cluster := startBenchCluster(b, 4,
		runtime.WithDurability(b.TempDir()),
		runtime.WithAdmission(runtime.AdmissionConfig{
			MaxQueueDepth: 32,
			Target:        2 * time.Millisecond,
			Interval:      25 * time.Millisecond,
			WriteDeadline: 75 * time.Millisecond,
		}))
	target := &clusterTarget{cluster: cluster}

	// Untimed saturation probe: closed-loop all-write traffic measures the
	// durable write capacity of this host, so the timed flood below is
	// calibrated overload (2x capacity), not a magic constant.
	probe := workload.Run(context.Background(), workload.Config{
		Workers: 64, Ops: 8000, ReadFraction: 0, Keys: 1024, Seed: 59,
		RetryBudget: 3,
	}, target.open)
	saturation := float64(probe.Writes) / probe.Elapsed.Seconds()
	if saturation <= 0 {
		b.Fatal("saturation probe measured zero write capacity")
	}

	b.ReportAllocs()
	b.ResetTimer()
	res := workload.Run(context.Background(), workload.Config{
		Workers: 64, Ops: b.N, ReadFraction: 0, Keys: 1024, Seed: 61,
		OpenLoop: true, ArrivalRate: 2 * saturation, RetryBudget: 1,
	}, target.open)
	b.StopTimer()
	goodput := float64(res.Writes) / res.Elapsed.Seconds()
	b.ReportMetric(goodput, "ops/sec")
	b.ReportMetric(goodput/saturation, "goodput-ratio")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if !cluster.WaitConverged(ctx) {
		b.Fatal("cluster did not converge after the flood")
	}
}
