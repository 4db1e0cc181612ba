// Command loadgen measures what the sharded subsystem buys: it builds a
// consistent-hash router over N fast-consistency shard groups carved from
// one shared topology, drives it with a closed-loop read/write workload,
// and reports throughput plus latency percentiles — then waits for every
// shard to converge and verifies per-shard store digests agree.
//
// Compare shard counts at equal total replica count:
//
//	go run ./cmd/loadgen -shards 4 -nodes-per-shard 8 -ops 50000
//	go run ./cmd/loadgen -shards 1 -nodes-per-shard 32 -ops 50000
//
// The single group pays the full per-write propagation cost (every write
// floods all 32 replicas) while the sharded deployment floods only the
// owning 8, so the 4-shard run sustains measurably higher throughput.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/topology"
	"repro/internal/wal"
	"repro/internal/workload"

	"repro/internal/demand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		shards        = fs.Int("shards", 4, "number of shard groups")
		nodesPerShard = fs.Int("nodes-per-shard", 8, "replicas per shard group")
		ops           = fs.Int("ops", 50000, "total operations")
		workers       = fs.Int("workers", 16, "closed-loop client workers")
		readFrac      = fs.Float64("read-frac", 0.9, "fraction of ops that are reads")
		keys          = fs.Int("keys", 2048, "keyspace size")
		dist          = fs.String("dist", "zipf", "key popularity: zipf | uniform")
		zipfS         = fs.Float64("zipf-s", 1.2, "zipf exponent (>1)")
		valueBytes    = fs.Int("value-bytes", 64, "write payload size")
		routing       = fs.String("routing", "lowest", "replica routing: lowest | highest | random")
		session       = fs.Duration("session", 25*time.Millisecond, "mean anti-entropy session interval")
		advert        = fs.Duration("advert", 10*time.Millisecond, "demand advertisement interval; a replica off every fast-update chain waits about one interval + 3 link delays for a frame-sized backlog (adverts carry the summary vector, ~2-3 B per origin)")
		seed          = fs.Int64("seed", 1, "deterministic seed")
		timeout       = fs.Duration("timeout", 2*time.Minute, "post-load convergence timeout")
		dataDir       = fs.String("data-dir", "", "enable the durable persistence plane: per-shard WALs under this directory (writes fsync before ack)")
		fsyncCoalesce = fs.Duration("fsync-coalesce", 0, "with -data-dir: fsync-coalescing window for the pipelined sync stage (0 = sync as soon as the disk is free)")
		preallocate   = fs.Bool("wal-preallocate", true, "with -data-dir: preallocate WAL segments to their full size at creation")
		obsAddr       = fs.String("obs-addr", "", "serve /metrics, /statusz and /debug/pprof on this address (e.g. :9090; empty disables)")
		report        = fs.Duration("report", 0, "print a one-line throughput/propagation summary at this interval (0 disables)")
		openLoop      = fs.Bool("open-loop", false, "open-loop arrivals: ops are due on a fixed schedule regardless of how the target copes, and latency is measured from the scheduled arrival (coordinated-omission corrected)")
		arrivalRate   = fs.Float64("arrival-rate", 1000, "with -open-loop: offered load in ops/sec across all workers")
		retryBudget   = fs.Int("retry-budget", 0, "retries allowed per op after the target sheds it under overload or when a leveled read cannot be served fresh in time (0 disables; non-retryable errors never retry)")
		sessReads     = fs.Float64("session-reads", 0, "fraction of reads at session level (read-your-writes + monotonic reads; each worker drives its own session)")
		boundReads    = fs.Float64("bounded-reads", 0, "fraction of reads at bounded-staleness level (served only within -max-lag writes of the session's watermark)")
		strongReads   = fs.Float64("strong-reads", 0, "fraction of reads at strong level (converged read of the touched key)")
		maxLag        = fs.Uint64("max-lag", 64, "staleness bound for bounded-level reads, in writes behind the session watermark")
		freshWait     = fs.Duration("fresh-deadline", 0, "deadline for a leveled read's freshness wait before it sheds not-fresh (0 = the runtime default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards <= 0 || *nodesPerShard <= 0 {
		return fmt.Errorf("need positive -shards and -nodes-per-shard")
	}
	if *sessReads < 0 || *boundReads < 0 || *strongReads < 0 ||
		*sessReads+*boundReads+*strongReads > 1 {
		return fmt.Errorf("-session-reads, -bounded-reads and -strong-reads must be non-negative fractions summing to at most 1")
	}
	var keyDist workload.KeyDist
	switch *dist {
	case "zipf":
		keyDist = workload.Zipf
	case "uniform":
		keyDist = workload.Uniform
	default:
		return fmt.Errorf("unknown -dist %q", *dist)
	}
	var route shard.RoutePolicy
	switch *routing {
	case "lowest":
		route = shard.RouteLowestDemand
	case "highest":
		route = shard.RouteHighestDemand
	case "random":
		route = shard.RouteRandom
	default:
		return fmt.Errorf("unknown -routing %q", *routing)
	}

	// One shared substrate for every shard count, so comparisons across
	// -shards hold total replica count and demand distribution fixed.
	total := *shards * *nodesPerShard
	rng := rand.New(rand.NewSource(*seed))
	graph := topology.BarabasiAlbert(total, 2, rng)
	field := demand.Uniform(total, 1, 101, rng)
	sys, err := core.NewSystem(graph, field, core.FastConsistency)
	if err != nil {
		return err
	}
	// The observability plane is opt-in: a registry exists only when a flag
	// needs it (-obs-addr to serve it, -report to read propagation lag).
	var reg *obs.Registry
	if *obsAddr != "" || *report > 0 {
		reg = obs.NewRegistry()
	}
	// Determinism comes from Config.Seed, which derives distinct per-group
	// replica seeds; a blanket runtime.WithSeed here would be overridden.
	rtOpts := []runtime.Option{
		runtime.WithSessionInterval(*session),
		runtime.WithAdvertInterval(*advert),
	}
	if *dataDir != "" {
		rtOpts = append(rtOpts, runtime.WithDurabilityTuning(wal.Options{
			Preallocate:    *preallocate,
			CoalesceWindow: *fsyncCoalesce,
		}))
	}
	router, err := core.Sharded(sys, *shards,
		shard.Config{Routing: route, Seed: *seed, DataDir: *dataDir, Obs: reg},
		rtOpts...,
	)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sharded keyspace: %d shard(s) x %d replicas over %v (routing %v)\n",
		*shards, *nodesPerShard, graph, route)
	if *dataDir != "" {
		fmt.Fprintf(w, "durability: on — per-shard WALs under %s, writes fsync before ack\n", *dataDir)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := router.Start(ctx); err != nil {
		return err
	}
	defer router.Stop()

	if *obsAddr != "" {
		srv, err := obs.NewServer(*obsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		srv.SetStatus(func() any {
			return map[string]any{
				"shards":           *shards,
				"nodes_per_shard":  *nodesPerShard,
				"routing":          route.String(),
				"durable":          *dataDir != "",
				"ops_acked_so_far": reg.Total("repro_client_writes_acked_total"),
			}
		})
		fmt.Fprintf(w, "observability: http://%s/metrics (plus /statusz, /debug/pprof)\n", srv.Addr())
	}

	cfg := workload.Config{
		Workers:      *workers,
		Ops:          *ops,
		ReadFraction: *readFrac,
		Keys:         *keys,
		Dist:         keyDist,
		ZipfS:        *zipfS,
		ValueBytes:   *valueBytes,
		Seed:         *seed,
		OpenLoop:     *openLoop,
		ArrivalRate:  *arrivalRate,
		RetryBudget:  *retryBudget,
		SessionReads: *sessReads,
		BoundedReads: *boundReads,
		StrongReads:  *strongReads,
	}
	leveled := *sessReads > 0 || *boundReads > 0 || *strongReads > 0
	var prog *workload.Progress
	if *report > 0 {
		prog = &workload.Progress{}
		cfg.Progress = prog
	}
	if *openLoop {
		fmt.Fprintf(w, "load: %d ops open-loop at %.0f ops/s, %d workers, %.0f%% reads, %d keys (%v), retry budget %d\n\n",
			cfg.Ops, cfg.ArrivalRate, cfg.Workers, cfg.ReadFraction*100, cfg.Keys, keyDist, cfg.RetryBudget)
	} else {
		fmt.Fprintf(w, "load: %d ops, %d workers, %.0f%% reads, %d keys (%v)\n\n",
			cfg.Ops, cfg.Workers, cfg.ReadFraction*100, cfg.Keys, keyDist)
	}
	if leveled {
		fmt.Fprintf(w, "consistency mix: %.0f%% session / %.0f%% bounded (max lag %d) / %.0f%% strong reads, remainder eventual\n\n",
			*sessReads*100, *boundReads*100, *maxLag, *strongReads*100)
	}
	// Each worker drives its own router session, with the bounded staleness
	// and freshness deadline taken from the flags.
	open := func() workload.Client {
		s := router.NewSession()
		s.MaxLag, s.Deadline = *maxLag, *freshWait
		return s
	}
	res := runLoad(ctx, w, cfg, open, prog, reg, *report)

	tab := metrics.NewTable("metric", "value")
	tab.AddRow("ops completed", res.Ops)
	tab.AddRow("reads / writes", fmt.Sprintf("%d / %d", res.Reads, res.Writes))
	tab.AddRow("errors", res.Errors)
	if res.Sheds > 0 || res.Retries > 0 {
		tab.AddRow("sheds / retries", fmt.Sprintf("%d / %d", res.Sheds, res.Retries))
	}
	tab.AddRow("elapsed", res.Elapsed.Round(time.Millisecond).String())
	tab.AddRow("throughput (ops/sec)", res.OpsPerSec())
	tab.AddRow("read p50 (ms)", res.ReadLatency.Median())
	tab.AddRow("read p99 (ms)", res.ReadLatency.Percentile(99))
	if leveled {
		// Per-level percentiles: a session read that waits for coverage and
		// an eventual read that serves immediately are different operations;
		// lumping them smears the mix's latency story.
		for lvl := runtime.Level(0); int(lvl) < runtime.NumLevels; lvl++ {
			s := res.ReadLatencyAt(lvl)
			if s.N() == 0 {
				continue
			}
			tab.AddRow(fmt.Sprintf("  %s p50 (ms)", lvl), s.Median())
			tab.AddRow(fmt.Sprintf("  %s p99 (ms)", lvl), s.Percentile(99))
		}
	}
	tab.AddRow("write p50 (ms)", res.WriteLatency.Median())
	tab.AddRow("write p99 (ms)", res.WriteLatency.Percentile(99))
	if err := tab.Render(w); err != nil {
		return err
	}

	convCtx, convCancel := context.WithTimeout(ctx, *timeout)
	defer convCancel()
	convStart := time.Now()
	if !router.WaitConverged(convCtx) {
		return fmt.Errorf("shards did not converge within %v of load end", *timeout)
	}
	fmt.Fprintf(w, "\nall %d shard(s) converged %v after load end\n",
		*shards, time.Since(convStart).Round(time.Millisecond))
	for _, name := range router.Shards() {
		g, _ := router.Group(name)
		digest, ok := g.Digest()
		if !ok {
			return fmt.Errorf("%s: replicas converged but store digests disagree", name)
		}
		st := g.Stats()
		fmt.Fprintf(w, "  %s: digest %016x, %d sessions, %d fast gains\n",
			name, digest, st.SessionsInitiated, st.FastEntriesGained)
	}
	return nil
}

// runLoad drives the workload, printing a one-line summary every interval
// when interval > 0: ops completed in the interval, the interval rate, and
// the cumulative propagation-lag quantiles from the registry.
func runLoad(ctx context.Context, w io.Writer, cfg workload.Config, open func() workload.Client, prog *workload.Progress, reg *obs.Registry, interval time.Duration) workload.Result {
	if interval <= 0 {
		return workload.Run(ctx, cfg, open)
	}
	done := make(chan workload.Result, 1)
	go func() { done <- workload.Run(ctx, cfg, open) }()

	tick := time.NewTicker(interval)
	defer tick.Stop()
	start := time.Now()
	var lastOps int64
	lastT := start
	for {
		select {
		case res := <-done:
			fmt.Fprintln(w)
			return res
		case now := <-tick.C:
			reads, writes := prog.Reads.Load(), prog.Writes.Load()
			errs := prog.Errors.Load()
			ops := reads + writes
			rate := float64(ops-lastOps) / now.Sub(lastT).Seconds()
			line := fmt.Sprintf("[%5.1fs] %8.0f ops/s  (%d reads, %d writes, %d errs total)",
				now.Sub(start).Seconds(), rate, reads, writes, errs)
			if lag := propLag(reg); lag.Count > 0 {
				line += fmt.Sprintf("  prop lag p50=%.2fms p99=%.2fms max=%.2fms",
					lag.Quantile(0.50)*1e3, lag.Quantile(0.99)*1e3, lag.Max*1e3)
			}
			fmt.Fprintln(w, line)
			lastOps, lastT = ops, now
		}
	}
}

// propLag merges the propagation-lag histograms of every shard into one
// cluster-wide snapshot.
func propLag(reg *obs.Registry) obs.HistSnapshot {
	var merged obs.HistSnapshot
	for _, h := range reg.Histograms("repro_prop_lag_seconds") {
		merged.Merge(h.Snapshot())
	}
	return merged
}
