package main

// sut.go is the adapter between the benchmark and the system under test:
// every call the workloads make into repro/internal/... is in this file, so
// a later change that merges Write/WriteReceipted/WriteSession or the two
// Level types edits this file mechanically and nothing else. (probes.go
// calls single layers directly; modeldisk.go implements vfs.FS.)

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/demand"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// lagTargets names, for a write accepted at one origin, the replicas whose
// coverage times count towards the top- and bottom-demand lag: the other
// replicas ordered by demand, first and last quarter (at least one each).
type lagTargets struct{ top, bottom []int }

func lagTargetsFor(dem []float64) []lagTargets {
	out := make([]lagTargets, len(dem))
	for origin := range dem {
		var others []int
		for i := range dem {
			if i != origin {
				others = append(others, i)
			}
		}
		sort.SliceStable(others, func(a, b int) bool { return dem[others[a]] > dem[others[b]] })
		k := (len(others) + 3) / 4
		out[origin] = lagTargets{top: others[:k], bottom: others[len(others)-k:]}
	}
	return out
}

// protoStats is the slice of node.Stats the per-layer ladder reads.
type protoStats struct {
	messages, clientWrites, absorbed, fastGained, dups, sessions uint64
}

func (p *protoStats) add(s node.Stats) {
	p.messages += s.MessagesHandled
	p.clientWrites += s.ClientWrites
	p.absorbed += s.EntriesAbsorbed
	p.fastGained += s.FastEntriesGained
	p.dups += s.DuplicateDrops
	p.sessions += s.SessionsInitiated
}

func (p protoStats) sub(o protoStats) protoStats {
	return protoStats{
		messages:     p.messages - o.messages,
		clientWrites: p.clientWrites - o.clientWrites,
		absorbed:     p.absorbed - o.absorbed,
		fastGained:   p.fastGained - o.fastGained,
		dups:         p.dups - o.dups,
		sessions:     p.sessions - o.sessions,
	}
}

// receipt identifies a routed write to the workloads.
type receipt = shard.Receipt

// watchResult is one watched write's propagation, timed from its ack.
type watchResult struct {
	origin int
	times  []time.Duration // per replica; the origin reads 0
	ok     bool            // false: not fully covered within the timeout
}

func awaitWatch(c *runtime.Cluster, w *runtime.Watch, origin int, timeout time.Duration) watchResult {
	t := time.NewTimer(timeout)
	defer t.Stop()
	res := watchResult{origin: origin}
	select {
	case <-w.Done():
		res.ok = true
	case <-t.C:
		c.Unwatch(w)
	}
	res.times = make([]time.Duration, c.N())
	for id, d := range w.Times() {
		res.times[id] = d
	}
	return res
}

// topologySeed fixes every graph and demand field. The run's -seed draws
// the inputs (key stream, origins, arrival schedule) and the replicas' and
// the disk's random streams, never the system's shape: lag depends on who
// neighbours whom, so runs on different seeds would otherwise measure
// different systems and could not be compared.
const topologySeed = 1

// ---- shard.Router (read_mostly, session_mix) ----

type routerSUT struct {
	router *shard.Router
	cancel context.CancelFunc
	reg    *obs.Registry           // nil unless built with obs
	lagSet map[string][]lagTargets // per shard, per origin
}

const (
	routerShards   = 2
	routerReplicas = 4
)

// newRouterSUT builds and starts 2 shards × 4 replicas (Barabási–Albert
// m=2, uniform demand in [1,101)), memory transport, no durability,
// sessions every 25 ms, adverts every 10 ms, lowest-demand routing.
func newRouterSUT(seed int64, withObs bool) (*routerSUT, error) {
	rng := rand.New(rand.NewSource(topologySeed))
	s := &routerSUT{lagSet: make(map[string][]lagTargets)}
	specs := make([]shard.GroupSpec, routerShards)
	for i := range specs {
		name := fmt.Sprintf("s%d", i)
		field := demand.Uniform(routerReplicas, 1, 101, rng)
		specs[i] = shard.GroupSpec{
			Name:  name,
			Graph: topology.BarabasiAlbert(routerReplicas, 2, rng),
			Field: field,
		}
		s.lagSet[name] = lagTargetsFor(field)
	}
	cfg := shard.Config{
		Seed: seed,
		RuntimeOptions: []runtime.Option{
			runtime.WithSessionInterval(25 * time.Millisecond),
			runtime.WithAdvertInterval(10 * time.Millisecond),
		},
	}
	if withObs {
		s.reg = obs.NewRegistry()
		cfg.Obs = s.reg
	}
	r, err := shard.NewRouter(specs, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := r.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	s.router, s.cancel = r, cancel
	return s, nil
}

func (s *routerSUT) stop() {
	s.router.Stop()
	s.cancel()
}

func (s *routerSUT) write(key string, value []byte) (shard.Receipt, error) {
	return s.router.Write(key, value)
}

func (s *routerSUT) read(key string) ([]byte, bool, error) { return s.router.Read(key) }

// watch follows a routed write across its shard until every replica covers
// it or the timeout passes.
func (s *routerSUT) watch(rc shard.Receipt, timeout time.Duration) (watchResult, lagTargets, error) {
	w, err := s.router.Watch(rc)
	if err != nil {
		return watchResult{}, lagTargets{}, err
	}
	g, _ := s.router.Group(rc.Shard)
	res := awaitWatch(g.Cluster(), w, int(rc.Node), timeout)
	return res, s.lagSet[rc.Shard][rc.Node], nil
}

// setLinkDelay sets the one-way delay of every link of every shard.
func (s *routerSUT) setLinkDelay(d time.Duration) {
	for _, name := range s.router.Shards() {
		g, _ := s.router.Group(name)
		g.Cluster().Faults().SetLatency(d, 0)
	}
}

func (s *routerSUT) waitConverged(timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return s.router.WaitConverged(ctx)
}

// digestsAgree reports whether every shard's replicas hold one digest.
func (s *routerSUT) digestsAgree() bool {
	for _, name := range s.router.Shards() {
		g, _ := s.router.Group(name)
		if _, ok := g.Digest(); !ok {
			return false
		}
	}
	return true
}

func (s *routerSUT) stats() protoStats {
	var p protoStats
	p.add(s.router.Stats())
	return p
}

func (s *routerSUT) replicas() int { return s.router.N() }

// sessionSUT is one client's shard.Session.
type sessionSUT struct {
	sess *shard.Session
}

func (s *routerSUT) newSession() *sessionSUT { return &sessionSUT{sess: s.router.NewSession()} }

func (c *sessionSUT) write(key string, value []byte) (shard.Receipt, error) {
	return c.sess.Write(key, value)
}

func (c *sessionSUT) readSession(key string) ([]byte, bool, error) {
	return c.sess.ReadLevel(key, runtime.LevelSession)
}

func (c *sessionSUT) readEventual(key string) ([]byte, bool, error) {
	return c.sess.ReadLevel(key, runtime.LevelEventual)
}

// readsOwnWrite re-reads key at session level and reports whether the
// version served is at least the client's own acknowledged write rc — the
// read-your-writes guarantee (another client may have overwritten the key
// since, with a later version).
func (c *sessionSUT) readsOwnWrite(key string, rc shard.Receipt) (bool, error) {
	v, ok, err := c.sess.ReadVersioned(key, runtime.LevelSession)
	if err != nil || !ok {
		return false, err
	}
	if v.Clock != rc.Clock {
		return v.Clock > rc.Clock, nil
	}
	return v.TS.Compare(rc.TS) >= 0, nil
}

// ---- runtime.Cluster (durable_write, propagation) ----

type clusterCfg struct {
	n         int
	linkDelay time.Duration // one-way, no jitter, no loss
	session   time.Duration // 0: runtime default
	advert    time.Duration // 0: runtime default
	durable   bool          // WAL on the 2 ms model disk
	withObs   bool
	seed      int64
}

type clusterSUT struct {
	c      *runtime.Cluster
	cancel context.CancelFunc
	reg    *obs.Registry
	lagSet []lagTargets

	// durable clusters only
	dir  string
	ffs  *vfs.FaultFS
	disk *modelDisk
}

// newClusterSUT builds and starts one cluster over a Barabási–Albert m=2
// graph with uniform demand in [1,101), memory transport, fan-out 1, fast
// push on.
func newClusterSUT(cfg clusterCfg) (*clusterSUT, error) {
	rng := rand.New(rand.NewSource(topologySeed))
	graph := topology.BarabasiAlbert(cfg.n, 2, rng)
	field := demand.Uniform(cfg.n, 1, 101, rng)
	s := &clusterSUT{lagSet: lagTargetsFor(field)}
	opts := []runtime.Option{
		runtime.WithSeed(cfg.seed),
		runtime.WithNetwork(transport.MemoryConfig{Latency: cfg.linkDelay, Seed: cfg.seed}),
	}
	if cfg.session > 0 {
		opts = append(opts, runtime.WithSessionInterval(cfg.session))
	}
	if cfg.advert > 0 {
		opts = append(opts, runtime.WithAdvertInterval(cfg.advert))
	}
	if cfg.durable {
		dir, err := os.MkdirTemp("", "repro-bench-wal-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
		s.ffs, s.disk = newModelDisk(cfg.seed, modelSyncDelay)
		opts = append(opts, runtime.WithDurability(dir), runtime.WithDurabilityFS(s.ffs))
	}
	if cfg.withObs {
		s.reg = obs.NewRegistry()
		opts = append(opts, runtime.WithObs(obs.NewClusterObs(s.reg, cfg.n)))
	}
	s.c = runtime.New(graph, field, opts...)
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.c.Start(ctx); err != nil {
		cancel()
		s.removeDir()
		return nil, err
	}
	s.cancel = cancel
	return s, nil
}

func (s *clusterSUT) removeDir() {
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // scratch data; a leftover directory is harmless
	}
}

func (s *clusterSUT) stop() {
	s.c.Stop()
	s.cancel()
	s.removeDir()
}

// write returns the sequence number the origin gave the write.
func (s *clusterSUT) write(origin int, key string, value []byte) (uint64, error) {
	ts, err := s.c.Write(vclock.NodeID(origin), key, value)
	return ts.Seq, err
}

func (s *clusterSUT) watch(origin int, seq uint64, timeout time.Duration) watchResult {
	w := s.c.Watch(vclock.Timestamp{Node: vclock.NodeID(origin), Seq: seq})
	return awaitWatch(s.c, w, origin, timeout)
}

func (s *clusterSUT) waitConverged(timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return s.c.WaitConverged(ctx)
}

func (s *clusterSUT) digestsAgree() bool {
	ref := s.c.Digest(0)
	for i := 1; i < s.c.N(); i++ {
		if s.c.Digest(vclock.NodeID(i)) != ref {
			return false
		}
	}
	return true
}

func (s *clusterSUT) stats() protoStats {
	var p protoStats
	for i := 0; i < s.c.N(); i++ {
		p.add(s.c.Stats(vclock.NodeID(i)))
	}
	return p
}

// powerCut takes replica id through a power failure in the order the
// internal/chaos power-cut event uses — kill the process, drop the
// written-but-unsynced suffix of its files (killing alone leaves it in the
// page cache), restart from disk — and reports whether the highest
// sequence the replica acknowledged to the benchmark survived.
func (s *clusterSUT) powerCut(id int, maxAckedSeq uint64) (survived bool, err error) {
	if s.ffs == nil {
		return false, errors.New("power cut needs a durable cluster")
	}
	nid := vclock.NodeID(id)
	if err := s.c.Kill(nid); err != nil {
		return false, err
	}
	s.ffs.Cut(fmt.Sprintf("%cn%d%c", filepath.Separator, id, filepath.Separator))
	if err := s.c.RestartFromDisk(nid); err != nil {
		return false, err
	}
	if maxAckedSeq == 0 {
		return true, nil
	}
	return s.c.Covers(nid, vclock.Timestamp{Node: nid, Seq: maxAckedSeq}), nil
}

// ---- obs.Registry readings (traced runs only) ----

// obsHist merges every series of one histogram family.
func obsHist(reg *obs.Registry, name string) obs.HistSnapshot {
	var merged obs.HistSnapshot
	for i, h := range reg.Histograms(name) {
		if i == 0 {
			merged = h.Snapshot()
			continue
		}
		merged.Merge(h.Snapshot())
	}
	return merged
}

// obsReadings are the runtime-layer numbers only the obs plane can give.
type obsReadings struct {
	commitBatchMean float64
	commitP50us     float64
	sojournP99ms    float64
	ackReleaseP50ms float64
	coalescedShare  float64
	fsyncP50ms      float64
	freshnessParked float64 // leveled reads that parked for coverage (count)
}

func readObs(reg *obs.Registry) obsReadings {
	var r obsReadings
	if reg == nil {
		return r
	}
	if b := obsHist(reg, "repro_commit_batch_size"); b.Count > 0 {
		r.commitBatchMean = b.Sum / float64(b.Count)
	}
	r.commitP50us = obsHist(reg, "repro_commit_seconds").Quantile(0.5) * 1e6
	r.sojournP99ms = obsHist(reg, "repro_commit_queue_sojourn_seconds").Quantile(0.99) * 1e3
	r.ackReleaseP50ms = obsHist(reg, "repro_commit_ack_release_seconds").Quantile(0.5) * 1e3
	r.fsyncP50ms = obsHist(reg, "repro_wal_fsync_seconds").Quantile(0.5) * 1e3
	if batches := reg.Total("repro_commit_batches_total"); batches > 0 {
		r.coalescedShare = reg.Total("repro_wal_coalesced_syncs_total") / batches
	}
	r.freshnessParked = float64(obsHist(reg, "repro_read_freshness_wait_seconds").Count)
	return r
}
