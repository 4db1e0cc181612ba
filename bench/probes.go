package main

// probes.go holds the isolated per-layer probes of the traced run: each
// calls one layer's exported functions directly, on one goroutine, for a
// fixed iteration count, and reports the median of five batches. They are
// the terms of cpu_us_per_op; the workloads measure the sum.

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/demand"
	"repro/internal/mc"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/wlog"
)

// probeBatches is a variable so that the package's test can run one batch.
var probeBatches = 5

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// probeNs times batch(iters) probeBatches times and returns the median
// nanoseconds per iteration. prepare, when non-nil, rebuilds the probe's
// state before each batch, untimed.
func probeNs(iters int, prepare func(), batch func(n int)) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		batch(iters)
		per[b] = float64(time.Since(t0)) / float64(iters)
	}
	return medianFloat(per)
}

func probeEntries(origin vclock.NodeID, firstSeq uint64, n int, value []byte) []wlog.Entry {
	es := make([]wlog.Entry, n)
	for i := range es {
		seq := firstSeq + uint64(i)
		es[i] = wlog.Entry{
			TS:    vclock.Timestamp{Node: origin, Seq: seq},
			Key:   keyNames[int(seq)%numKeys],
			Value: value,
			Clock: seq,
		}
	}
	return es
}

// probeNeighbours is the neighbour set of the node, demand and policy
// probes.
var probeNeighbours = []vclock.NodeID{1, 2, 3, 4, 5, 6, 7, 8}

func probeNode(id vclock.NodeID) *node.Node {
	return node.New(node.Config{
		ID:        id,
		Neighbors: probeNeighbours,
		Selector:  policy.NewDynamicOrdered(id, probeNeighbours),
		FastPush:  true,
		FanOut:    1,
		Demand:    func(float64) float64 { return 50 },
	})
}

func probeTable() *demand.Table {
	t := demand.NewTable(probeNeighbours)
	for i, id := range probeNeighbours {
		t.Update(id, float64(10+7*i%50), 0)
	}
	return t
}

// runProbes runs every isolated probe and returns name → (value, unit).
func runProbes(seed int64) (map[string]metric, error) {
	out := make(map[string]metric)
	put := func(name string, v float64, unit string, n int) {
		out[name] = metric{Value: v, Unit: unit, N: uint64(n)}
	}
	value := valuePool(3, 1)[0]

	// shard
	ring := shard.NewRing(0)
	for i := 0; i < routerShards; i++ {
		if err := ring.Add(fmt.Sprintf("s%d", i)); err != nil {
			return nil, err
		}
	}
	put("shard.ring_owner_ns", probeNs(200_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			o, _ := ring.Owner(keyNames[i&(numKeys-1)])
			sink += uint64(len(o))
		}
	}), "ns", 200_000)

	rsut, err := newRouterSUT(seed, false)
	if err != nil {
		return nil, err
	}
	for _, k := range keyNames {
		if _, err := rsut.write(k, value); err != nil {
			rsut.stop()
			return nil, err
		}
	}
	routerRead := probeNs(100_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			v, _, _ := rsut.read(keyNames[i&(numKeys-1)])
			sink += uint64(len(v))
		}
	})
	rsut.stop()
	put("shard.router_read_ns", routerRead, "ns", 100_000)

	// runtime: one memory cluster of the router's group size
	csut, err := newClusterSUT(clusterCfg{n: routerReplicas, session: 25 * time.Millisecond, advert: 10 * time.Millisecond, seed: seed})
	if err != nil {
		return nil, err
	}
	for _, k := range keyNames {
		if _, err := csut.write(0, k, value); err != nil {
			csut.stop()
			return nil, err
		}
	}
	runtimeRead := probeNs(100_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			v, _, _ := csut.c.Read(0, keyNames[i&(numKeys-1)])
			sink += uint64(len(v))
		}
	})
	put("runtime.read_ns", runtimeRead, "ns", 100_000)
	put("shard.route_overhead_ns", routerRead-runtimeRead, "ns", 100_000)
	sess := csut.c.NewSession()
	if _, err := sess.Write(0, keyNames[0], value); err != nil {
		csut.stop()
		return nil, err
	}
	put("runtime.session_read_covered_ns", probeNs(100_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			v, _, _ := sess.Read(0, keyNames[i&(numKeys-1)])
			sink += uint64(len(v.Value))
		}
	}), "ns", 100_000)
	put("runtime.write_mem_us", probeNs(5_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			seq, _ := csut.write(0, keyNames[i&(numKeys-1)], value)
			sink += seq
		}
	})/1e3, "us", 5_000)
	csut.stop()

	// node
	ops := make([]node.WriteOp, 8)
	for i := range ops {
		ops[i] = node.WriteOp{Key: keyNames[i], Value: value}
	}
	var nd *node.Node
	put("node.client_write_batch_ns_per_write", probeNs(2_000, func() { nd = probeNode(0) }, func(n int) {
		for i := 0; i < n; i++ {
			es, _ := nd.ClientWriteBatch(float64(i), ops)
			sink += uint64(len(es))
		}
	})/8, "ns", 2_000)
	var batches []protocol.Envelope
	put("node.handle_update_ns_per_entry", probeNs(2_000, func() {
		nd = probeNode(0)
		batches = batches[:0]
		for i := 0; i < 2_000; i++ {
			batches = append(batches, protocol.Envelope{From: 1, To: 0, Msg: protocol.UpdateBatch{
				SessionID: uint64(i), Entries: probeEntries(1, uint64(i*8+1), 8, value), Demand: 40,
			}})
		}
	}, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(nd.HandleMessage(float64(i), batches[i])))
		}
	})/8, "ns", 2_000)

	// wlog
	writes := make([]wlog.LocalWrite, 8)
	for i := range writes {
		writes[i] = wlog.LocalWrite{Key: keyNames[i], Value: value, Clock: uint64(i + 1)}
	}
	var lg *wlog.Log
	put("wlog.append_batch_ns_per_entry", probeNs(2_000, func() { lg = wlog.New() }, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(lg.AppendBatch(0, writes)))
		}
	})/8, "ns", 2_000)
	lg = wlog.New()
	partner := vclock.NewSummary()
	for o := vclock.NodeID(0); o < 16; o++ {
		lg.AddBatch(probeEntries(o, 1, 256, value))
		partner.Advance(o, 252) // 4 missing per origin: 64 of 4096
	}
	put("wlog.missing_given_ns", probeNs(2_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			es, _ := lg.MissingGiven(partner)
			sink += uint64(len(es))
		}
	}), "ns", 2_000)

	// store
	st := store.New()
	for _, e := range probeEntries(0, 1, numKeys, value) {
		st.Apply(e)
	}
	put("store.get_ns", probeNs(200_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := st.Get(keyNames[i&(numKeys-1)])
			sink += uint64(len(v))
		}
	}), "ns", 200_000)
	applySeq := uint64(numKeys)
	applyBatch := make([]wlog.Entry, 50_000)
	put("store.apply_ns", probeNs(50_000, func() {
		copy(applyBatch, probeEntries(0, applySeq+1, len(applyBatch), value))
		applySeq += uint64(len(applyBatch))
	}, func(n int) {
		for i := 0; i < n; i++ {
			st.Apply(applyBatch[i])
		}
	}), "ns", 50_000)

	// vclock (16 origins)
	a, b := vclock.NewSummary(), vclock.NewSummary()
	for o := vclock.NodeID(0); o < 16; o++ {
		a.Advance(o, uint64(100+o))
		b.Advance(o, uint64(110-o))
	}
	put("vclock.merge_ns", probeNs(200_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			a.Merge(b)
		}
		sink += a.Total()
	}), "ns", 200_000)
	for o := vclock.NodeID(0); o < 16; o += 2 {
		b.Advance(o, uint64(200+o)) // after the merges a dominated b; now neither does
	}
	put("vclock.lag_delta_ns", probeNs(200_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			lag, _ := a.LagDelta(b)
			sink += lag
		}
	}), "ns", 200_000)

	// demand / policy (8 neighbours)
	table := probeTable()
	excluded := probeNeighbours[:1]
	put("demand.best_except_ns", probeNs(200_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			e, _ := table.BestExcept(excluded)
			sink += uint64(e.Node)
		}
	}), "ns", 200_000)
	sel := policy.NewDynamicOrdered(0, probeNeighbours)
	rng := rand.New(rand.NewSource(seed))
	put("policy.next_ns", probeNs(200_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			id, _ := sel.Next(0, table, rng)
			sink += uint64(id)
		}
	}), "ns", 200_000)

	// protocol (UpdateBatch, 8 × 128 B)
	env := protocol.Envelope{From: 1, To: 2, Msg: protocol.UpdateBatch{
		SessionID: 9, Entries: probeEntries(1, 1, 8, value), Final: true, Demand: 40,
	}}
	wire, err := protocol.Marshal(env)
	if err != nil {
		return nil, err
	}
	put("protocol.bytes_per_entry", float64(len(wire))/8, "B", 8)
	put("protocol.marshal_ns", probeNs(20_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			buf, _ := protocol.Marshal(env)
			sink += uint64(len(buf))
		}
	}), "ns", 20_000)
	put("protocol.unmarshal_ns", probeNs(20_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			e, _ := protocol.Unmarshal(wire)
			sink += uint64(e.To)
		}
	}), "ns", 20_000)

	// transport
	advert := protocol.Envelope{From: 0, To: 1, Msg: protocol.DemandAdvert{Demand: 1}}
	mem := transport.NewMemory(transport.MemoryConfig{Seed: seed})
	src, dst := mem.Attach(0), mem.Attach(1)
	put("transport.memory_send_recv_ns", probeNs(50_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			if src.Send(advert) == nil {
				sink += uint64((<-dst.Recv()).From)
			}
		}
	}), "ns", 50_000)
	if err := mem.Close(); err != nil {
		return nil, err
	}
	const linkDelay = 2 * time.Millisecond // the propagation workload's links
	mem = transport.NewMemory(transport.MemoryConfig{Latency: linkDelay, Seed: seed})
	src, dst = mem.Attach(0), mem.Attach(1)
	var delayErr hist
	sends := 50 * probeBatches
	for i := 0; i < sends; i++ {
		t0 := time.Now()
		if err := src.Send(advert); err != nil {
			return nil, err
		}
		<-dst.Recv()
		delayErr.record(int64(time.Since(t0) - linkDelay))
	}
	put("transport.delay_error_us_p99", delayErr.quantile(0.99)/1e3, "us", sends)
	if err := mem.Close(); err != nil {
		return nil, err
	}

	// wal on a zero-delay model disk
	dir, err := os.MkdirTemp("", "repro-bench-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ffs, _ := newModelDisk(seed, 0)
	wl, _, err := wal.Open(dir, wal.Options{FS: ffs, Preallocate: true})
	if err != nil {
		return nil, err
	}
	walSeq := uint64(1)
	put("wal.append_ns_per_entry", probeNs(2_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			if wl.Append(probeEntries(0, walSeq, 8, value)) != nil {
				return
			}
			walSeq += 8
		}
	})/8, "ns", 2_000)
	put("wal.sync_overhead_us", probeNs(200, nil, func(n int) {
		for i := 0; i < n; i++ {
			if wl.Append(probeEntries(0, walSeq, 1, value)) != nil || wl.Sync() != nil {
				return
			}
			walSeq++
		}
	})/1e3, "us", 200)
	if err := wl.Close(); err != nil {
		return nil, fmt.Errorf("wal probe: %w", err)
	}

	// obs
	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_probe_total", "probe")
	hg := reg.Histogram("bench_probe_seconds", "probe", obs.LatencyBuckets)
	put("obs.counter_add_ns", probeNs(1_000_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	}), "ns", 1_000_000)
	put("obs.hist_observe_ns", probeNs(1_000_000, nil, func(n int) {
		for i := 0; i < n; i++ {
			hg.Observe(float64(i&1023) * 1e-6)
		}
	}), "ns", 1_000_000)

	// mc: the paper-figure stack on a virtual clock. Seed 1 always, so the
	// two session counts repeat exactly.
	mrng := rand.New(rand.NewSource(1))
	graph := topology.BarabasiAlbert(50, 2, mrng)
	cfg := mc.NewConfig(graph, demand.Uniform(50, 1, 101, mrng), policy.NewDynamicOrdered)
	cfg.FastPush = true
	const trials = 40
	t0 := time.Now()
	agg := mc.RunMany(cfg, trials, 1, 0.2)
	put("mc.trial_ms", time.Since(t0).Seconds()*1e3/trials, "ms", trials)
	if agg.Incomplete > 0 {
		return nil, fmt.Errorf("mc probe: %d of %d trials did not converge", agg.Incomplete, trials)
	}
	put("mc.sessions_top", agg.TimeHigh.Mean(), "sessions", trials)
	put("mc.sessions_all", agg.TimeAll.Mean(), "sessions", trials)
	return out, nil
}
