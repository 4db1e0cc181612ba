// Package runtime runs a live fast-consistency cluster: one goroutine per
// replica, real message passing, wall-clock session timers. It drives the
// same node state machine as the Monte-Carlo simulator, which is the
// repository's evidence that the algorithm is implementable as a service,
// not only as a simulation — the deployment the paper's introduction
// motivates ("clients will be able to contact the nearest replica").
//
// Replicas exchange envelopes over a transport.Memory network by default
// (microsecond "links"), or over TCP endpoints supplied by the caller.
//
// The client-facing Read/Write plane is concurrent (lock-free reads,
// group-committed writes; see doc.go at the repository root), and
// WithDurability adds the durable persistence plane: per-replica on-disk
// WALs with fsync-before-ack client writes and crash recovery via
// RestartFromDisk (see durability.go).
package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/demand"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// NodeID aliases the replica identifier.
type NodeID = vclock.NodeID

// Option configures a Cluster.
type Option func(*options)

type options struct {
	sessionMean    time.Duration
	advertInterval time.Duration
	policy         policy.Factory
	fastPush       bool
	seed           int64
	netCfg         transport.MemoryConfig
	measuredTau    time.Duration // > 0 enables measured demand
	durDir         string        // != "" enables the durable persistence plane
	walOpts        wal.Options
	walFS          vfs.FS          // nil = the real filesystem (vfs.OS)
	obs            *obs.ClusterObs // non-nil enables the observability plane
	admission      AdmissionConfig // always normalised; see WithAdmission
}

// walOptions is the effective WAL configuration: the tuned geometry plus
// the injected filesystem, if any. Every wal.Open in the runtime goes
// through this so fault-injected clusters never touch the real disk path,
// and every open WAL reports its sync latency into the observability
// plane's fsync histogram.
func (o *options) walOptions() wal.Options {
	opts := o.walOpts
	if o.walFS != nil {
		opts.FS = o.walFS
	}
	if co := o.obs; co != nil {
		opts.OnSync = func(took time.Duration) {
			co.FsyncSeconds.Observe(took.Seconds())
		}
	}
	return opts
}

func defaultOptions() options {
	return options{
		sessionMean:    50 * time.Millisecond,
		advertInterval: 20 * time.Millisecond,
		policy:         policy.NewDynamicOrdered,
		fastPush:       true,
		seed:           1,
		// Durable clusters preallocate WAL segments by default so the
		// pipelined sync stage's fdatasync skips the per-sync inode size
		// update. WithDurabilityTuning replaces walOpts wholesale, so
		// explicit tuning retains full control (including turning it off).
		walOpts: wal.Options{Preallocate: true},
		// The combining queue is always bounded, but the sojourn
		// controller and write deadlines are opt-in (WithAdmission):
		// closed-loop callers cannot outrun the bound, so defaults shed
		// nothing.
		admission: AdmissionConfig{Target: -1}.normalized(),
	}
}

// WithSessionInterval sets the mean anti-entropy interval per replica
// (intervals are exponentially distributed around it).
func WithSessionInterval(d time.Duration) Option {
	return func(o *options) { o.sessionMean = d }
}

// WithAdvertInterval sets the demand-advertisement period (§4's routing-like
// refresh). Adverts carry the summary vector (about 2–3 bytes per origin on a
// link that charges for bytes), so the period also bounds how long a replica
// off every fast-update chain waits: it pulls what a neighbour's next advert
// names, ≈ 1 period + 3 link delays after the neighbour got it, as long as
// what it lacks fits one network frame (a larger backlog waits for a session).
func WithAdvertInterval(d time.Duration) Option {
	return func(o *options) { o.advertInterval = d }
}

// WithPolicy selects the partner-selection policy (default demand-dynamic).
func WithPolicy(f policy.Factory) Option {
	return func(o *options) { o.policy = f }
}

// WithFastPush toggles the fast-update chains (default on).
func WithFastPush(enabled bool) Option {
	return func(o *options) { o.fastPush = enabled }
}

// WithSeed seeds all per-replica RNGs deterministically.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithNetwork tunes the in-memory network (latency, loss).
func WithNetwork(cfg transport.MemoryConfig) Option {
	return func(o *options) { o.netCfg = cfg }
}

// WithMeasuredDemand makes replicas advertise demand measured from their
// actual client request stream (exponentially decayed requests/second with
// averaging window tau) instead of evaluating the configured demand field.
// The field is then used only by workload generators, matching the paper's
// §2 definition of demand as observed request rate.
func WithMeasuredDemand(tau time.Duration) Option {
	return func(o *options) { o.measuredTau = tau }
}

// Cluster is a running set of replicas.
type Cluster struct {
	opts  options
	graph *topology.Graph
	field demand.Field
	net   *transport.Memory

	replicas []*replica

	// absorbed accumulates every ApplySnapshot image (LWW-merged) so
	// restarted replicas can re-absorb content that no write log records.
	absorbed *store.Store

	// goodput meters acknowledged client writes per second cluster-wide
	// (exponentially decayed) for the observability plane's goodput
	// gauge. Nil when observability is off.
	goodput *demandMeter

	// initErr records a construction-time failure (e.g. an unreadable WAL
	// directory); Start surfaces it.
	initErr error

	mu      sync.Mutex
	watches []*Watch
	started bool
	stopped bool
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	start   time.Time

	// watchCount mirrors len(watches) so the per-write watch check is one
	// atomic load on the (common) zero-watch fast path, never Cluster.mu.
	watchCount atomic.Int32

	// fresh parks leveled reads waiting for a replica's applied coverage
	// to reach their session token (consistency.go). Like watches it has
	// an atomic zero-waiter fast path, so clusters that never issue
	// session reads pay one atomic load per signal point.
	fresh freshQueue
}

// New assembles a cluster over the graph with the given demand field. Call
// Start to launch it.
func New(g *topology.Graph, field demand.Field, opts ...Option) *Cluster {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	c := &Cluster{
		opts:     o,
		graph:    g,
		field:    field,
		net:      transport.NewMemory(o.netCfg),
		absorbed: store.New(),
	}
	if o.obs != nil {
		c.goodput = newDemandMeter(time.Second)
	}
	for i := 0; i < g.N(); i++ {
		c.addReplica(NodeID(i), c.net.Attach(NodeID(i)))
	}
	c.registerObs()
	return c
}

// addReplica constructs replica id on endpoint ep and appends it to the
// cluster — the one constructor behind New and NewTCP.
func (c *Cluster) addReplica(id NodeID, ep transport.Endpoint) {
	r := &replica{
		cluster: c,
		id:      id,
		rng:     rand.New(rand.NewSource(c.opts.seed + int64(id)*7919)),
		ep:      ep,
		adm:     admission{cfg: c.opts.admission},
	}
	rec := c.openReplicaWAL(r)
	r.node = c.newNode(r)
	// A durable replica recovers its on-disk state (cold start) before
	// the store is published to the lock-free read path. The applied
	// watermark seeds from the recovered log for the same reason: a
	// leveled read must never observe coverage the store lacks.
	r.finishReplicaDurability(rec)
	r.applied.reset(r.node.Log())
	r.store.Store(r.node.Store())
	c.replicas = append(c.replicas, r)
}

// newNode builds a fresh protocol state machine for r's identity — every
// incarnation (construction, empty-state restart, disk recovery) starts
// from this one configuration.
func (c *Cluster) newNode(r *replica) *node.Node {
	nbrs := c.graph.NeighborsCopy(r.id)
	return node.New(node.Config{
		ID:        r.id,
		Neighbors: nbrs,
		Selector:  c.opts.policy(r.id, nbrs),
		FastPush:  c.opts.fastPush,
		Demand:    demandSource(&c.opts, r, c.field, r.id),
		Observer:  nodeObserver(&c.opts, r.id),
	})
}

// DataDir returns the durable persistence plane's base directory, or ""
// when durability is off.
func (c *Cluster) DataDir() string { return c.opts.durDir }

// demandSource returns the node's own-demand function: the configured field
// by default, or the replica's request meter under WithMeasuredDemand. The
// meter is created once per replica and survives restarts: the lock-free
// read path loads r.meter without holding the replica lock, so the field
// must never be rewritten after construction.
func demandSource(o *options, r *replica, field demand.Field, id NodeID) func(float64) float64 {
	if o.measuredTau <= 0 {
		return func(now float64) float64 { return field.At(id, now) }
	}
	if r.meter == nil {
		r.meter = newDemandMeter(o.measuredTau)
	}
	return func(float64) float64 { return r.meter.Rate(time.Now()) }
}

// N returns the number of replicas.
func (c *Cluster) N() int { return len(c.replicas) }

// Faults exposes the cluster network's fault-injection surface (partitions,
// loss, latency — see transport.Faults). It returns nil for TCP-backed
// clusters, whose faults live in the real network.
func (c *Cluster) Faults() transport.Faults {
	if c.net == nil {
		return nil
	}
	return c.net
}

// Start launches every replica goroutine. The cluster stops when ctx is
// cancelled or Stop is called.
func (c *Cluster) Start(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.initErr != nil {
		return c.initErr
	}
	if c.started {
		return errors.New("runtime: cluster already started")
	}
	c.started = true
	c.start = time.Now()
	c.ctx, c.cancel = context.WithCancel(ctx)
	for _, r := range c.replicas {
		if c.opts.durDir != "" {
			r.ackq.start(r)
		}
		r.spawn(c.ctx, &c.wg)
	}
	return nil
}

// Kill crashes replica id: its goroutine exits and its endpoint closes, so
// peers' sends fail and their demand tables mark it unreachable (§4's
// availability signal). The replica's state is discarded; use Restart to
// bring it back empty.
func (c *Cluster) Kill(id NodeID) error {
	if int(id) < 0 || int(id) >= len(c.replicas) {
		return fmt.Errorf("runtime: no replica %v", id)
	}
	c.mu.Lock()
	started, stopped := c.started, c.stopped
	c.mu.Unlock()
	if !started || stopped {
		return errors.New("runtime: cluster not running")
	}
	r := c.replicas[id]
	r.mu.Lock()
	if r.dead {
		r.mu.Unlock()
		return fmt.Errorf("runtime: replica %v already dead", id)
	}
	cancel, done := r.cancel, r.done
	r.mu.Unlock()
	cancel()
	<-done
	r.ep.Close()
	r.mu.Lock()
	r.dead = true
	// Retract the lock-free read path's store pointer: reads at a dead
	// replica must fail, and they never take the replica lock to find out.
	r.store.Store(nil)
	if r.wal != nil {
		// SIGKILL semantics: the WAL is abandoned without flushing, so
		// journaled-but-unsynced records die with the process image. Synced
		// records — every acknowledged client write — survive for
		// RestartFromDisk.
		r.wal.Abandon()
	}
	r.mu.Unlock()
	return nil
}

// Restart brings a killed replica back after *state loss*: a fresh node
// rejoins under the same identity, bootstrapped from the merged state of
// its live peers (crash recovery from backup) with its own pre-crash write
// head carried forward so the reused identity never reissues timestamps.
// Writes the crashed replica acknowledged but never replicated are gone —
// that is the state loss. Content previously handed in via ApplySnapshot is
// re-absorbed directly — it exists in no peer's write log, so the protocol
// could never replay it. Only memory-backed clusters support restart.
//
// Restarting with empty state while *other* replicas of the group are also
// down can strand their unique content: the rejoining replica adopts
// coverage past entries only the still-dead replicas hold, so those
// entries are never replayed to it. Restart one replica at a time (or use
// RestartPreserving) when overlapping failures matter.
func (c *Cluster) Restart(id NodeID) error { return c.restart(id, false) }

// RestartPreserving brings a killed replica back with its protocol state
// intact — write log, store and demand table survive, as if the process had
// restarted from durable storage. The replica reattaches to the network
// under the same identity and catches up on writes it missed through normal
// anti-entropy. Only memory-backed clusters support restart.
func (c *Cluster) RestartPreserving(id NodeID) error { return c.restart(id, true) }

func (c *Cluster) restart(id NodeID, preserve bool) error {
	r, ctx, err := c.restartable(id)
	if err != nil {
		return err
	}
	r.mu.Lock()
	alive := !r.dead
	r.mu.Unlock()
	if alive {
		return fmt.Errorf("runtime: replica %v is alive", id)
	}
	var bootSnap *vclock.Summary
	var bootItems []store.Item
	if !preserve {
		// Crash recovery bootstraps from the merged state of live peers (a
		// backup restore): the pointwise-max summary plus the LWW union of
		// their stores, each captured consistently under the peer's lock
		// and merged through a scratch store so near-identical peer images
		// collapse instead of accumulating n copies.
		bootSnap = vclock.NewSummary()
		merged := store.New()
		for _, peer := range c.replicas {
			if peer == r {
				continue
			}
			snap, items, ok := peer.exportState()
			if !ok {
				continue
			}
			bootSnap.Merge(snap)
			merged.ApplySnapshot(items)
		}
		bootItems = merged.Snapshot()
	}
	r.mu.Lock()
	if !r.dead {
		r.mu.Unlock()
		return fmt.Errorf("runtime: replica %v is alive", id)
	}
	// Durable replicas re-open their WAL for the new incarnation. An
	// empty-state restart is a genuine state loss, so the old disk state is
	// removed first; a preserving restart bridges RAM and disk with a
	// full-state record. The destructive disk work happens only after the
	// dead-check above, and under r.mu: a racing restart that loses must
	// never wipe the winner's live on-disk state. (The dead replica's own
	// WAL was abandoned by Kill, so nothing else writes these files.)
	var reopened *wal.Log
	if c.opts.durDir != "" {
		if !preserve {
			if err := wal.Remove(c.opts.walFS, walDir(c.opts.durDir, id)); err != nil {
				r.mu.Unlock()
				return fmt.Errorf("runtime: replica %v state reset: %w", id, err)
			}
		}
		if reopened, _, err = c.openWAL(id); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	if !preserve {
		// The identity's own write head and Lamport clock survive the
		// crash (the incarnation counter every real deployment persists):
		// without the floor, the reborn replica reissues timestamps its
		// peers already saw — its new writes are dropped as duplicates and
		// its advancing summary masks old entries it never recovered.
		ownHead := r.node.Summary().Get(id)
		minClock := r.node.Clock()
		r.node = c.newNode(r)
		if reopened != nil {
			// Attached before Bootstrap so the bootstrap image is journaled.
			r.node.AttachJournal(walJournal{reopened})
		}
		if ownHead > bootSnap.Get(id) {
			bootSnap.Advance(id, ownHead)
		}
		r.node.Bootstrap(bootSnap, bootItems, minClock)
		if items := c.absorbed.Snapshot(); len(items) > 0 {
			r.node.AbsorbItems(items)
		}
	} else if reopened != nil {
		// RAM state survived and is at least as fresh as the disk image
		// (which may have lost its buffered tail to Abandon); a full-state
		// record squashes the difference so recovery stays complete.
		r.node.AttachJournal(walJournal{reopened})
		_ = reopened.AppendAdopt(r.node.Summary(), r.node.Store().Snapshot(), r.node.Clock())
	}
	if reopened != nil {
		// The journaled full-state record carries the identity's own write
		// head; it must be on disk BEFORE the replica is published — a
		// crash (or Kill) right after publication would otherwise leave a
		// wiped directory whose next disk recovery reissues timestamps
		// peers already saw. The replica is still dead and r.mu is held, so
		// nothing can observe it between the record and its durability.
		if err := reopened.Sync(); err != nil {
			r.mu.Unlock()
			reopened.Close()
			return fmt.Errorf("runtime: replica %v durability: %w", id, err)
		}
		r.wal = reopened
	}
	c.revive(ctx, r)
	return nil
}

// restartable resolves replica id for a restart path, which needs a
// running memory-backed cluster. It returns the replica and the context
// its next incarnation runs under.
func (c *Cluster) restartable(id NodeID) (*replica, context.Context, error) {
	if int(id) < 0 || int(id) >= len(c.replicas) {
		return nil, nil, fmt.Errorf("runtime: no replica %v", id)
	}
	if c.net == nil {
		return nil, nil, errors.New("runtime: restart unsupported on TCP clusters")
	}
	c.mu.Lock()
	started, stopped, ctx := c.started, c.stopped, c.ctx
	c.mu.Unlock()
	if !started || stopped {
		return nil, nil, errors.New("runtime: cluster not running")
	}
	return c.replicas[id], ctx, nil
}

// revive publishes a dead replica's next incarnation — the tail every
// restart path ends in. Called with r.mu held and r.node (and r.wal, when
// durable) already rebuilt; returns with r.mu released.
func (c *Cluster) revive(ctx context.Context, r *replica) {
	r.ep = c.net.Attach(r.id)
	r.dead = false
	// A restarted incarnation starts with a clean bill of health.
	r.failCause.Store(nil)
	// Re-seed the applied watermark from the new incarnation's log before
	// the store is published: the watermark must never overstate what this
	// store holds (the old incarnation's coverage may exceed it).
	r.applied.reset(r.node.Log())
	// Re-publish the (possibly fresh) store to the lock-free read path only
	// once the replica is consistent again.
	r.store.Store(r.node.Store())
	r.mu.Unlock()
	r.spawn(ctx, &c.wg)
	// Leveled reads parked on this replica may already be satisfied by the
	// new incarnation's coverage.
	c.signalFresh(r.id)
}

// Serving reports whether replica id currently accepts client-plane
// operations — lock-free, one atomic load (the exact signal Read uses).
// Unlike Alive it is also true before Start: a constructed replica already
// serves reads of absorbed content.
func (c *Cluster) Serving(id NodeID) bool {
	if int(id) < 0 || int(id) >= len(c.replicas) {
		return false
	}
	return c.replicas[id].store.Load() != nil
}

// Alive reports whether replica id is currently running.
func (c *Cluster) Alive(id NodeID) bool {
	if int(id) < 0 || int(id) >= len(c.replicas) {
		return false
	}
	r := c.replicas[id]
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.dead && r.done != nil
}

// TruncateLogs aggressively truncates every live replica's write log to the
// most recent keep entries per origin, returning the total discarded. It
// exists so operators (and tests) can exercise the snapshot-recovery path.
func (c *Cluster) TruncateLogs(keep int) int {
	total := 0
	for _, r := range c.replicas {
		r.mu.Lock()
		if !r.dead {
			total += r.node.Log().TruncateKeepLast(keep)
		}
		r.mu.Unlock()
	}
	return total
}

// Stop shuts the cluster down and waits for every replica goroutine to
// exit. Safe to call more than once.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if !c.started || c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	cancel := c.cancel
	c.mu.Unlock()
	cancel()
	c.wg.Wait()
	// Drain every ack worker before touching the WALs: pending releases
	// complete (their covering syncs retire in the WAL sync stage, which is
	// still running), so no client is left parked and no ack is dropped.
	for _, r := range c.replicas {
		r.ackq.stop()
	}
	// Clean shutdown flushes and closes every live WAL (abandoned WALs of
	// killed replicas are left as the crash left them).
	for _, r := range c.replicas {
		r.mu.Lock()
		w := r.wal
		r.mu.Unlock()
		if w != nil {
			_ = w.Close()
		}
	}
	if c.net != nil {
		c.net.Close()
		return
	}
	// TCP-backed clusters own their endpoints directly.
	for _, r := range c.replicas {
		_ = r.ep.Close()
	}
}

// now returns seconds since cluster start — the time base fed to demand
// fields and node logic.
func (c *Cluster) now() float64 { return time.Since(c.start).Seconds() }

// Write injects a client write at the given replica and returns its
// timestamp: WriteToken without a session, receipt trimmed.
func (c *Cluster) Write(id NodeID, key string, value []byte) (vclock.Timestamp, error) {
	rec, err := c.WriteToken(id, key, value, nil)
	return rec.TS, err
}

// WriteToken is the one client write: it injects the write at replica id,
// returns the full version receipt, and — when tok is non-nil — folds the
// acknowledged position into that session token, so subsequent session
// reads anywhere observe it.
//
// Concurrent writes to one replica group-commit: they park in the replica's
// write-combining queue and a leader folds the whole batch into the node
// under one lock acquisition, with one merged fast-update fan-out for the
// batch (see groupcommit.go). A batch behaves exactly like the same writes
// issued back-to-back; only the locking and fan-out are amortised.
//
// Writes may be shed by the admission plane (bounded queue, CoDel-style
// sojourn controller, per-write deadline — see admission.go): a shed
// write returns a KindOverload *Rejection matching ErrOverload, always
// BEFORE the write reaches the node or the WAL, so it is visibly rejected
// and never partially applied.
func (c *Cluster) WriteToken(id NodeID, key string, value []byte, tok *Token) (WriteReceipt, error) {
	if int(id) < 0 || int(id) >= len(c.replicas) {
		return WriteReceipt{}, fmt.Errorf("runtime: no replica %v", id)
	}
	r := c.replicas[id]
	now := time.Now()
	if r.adm.shouldShed(now.UnixNano()) {
		return WriteReceipt{}, r.shed(ShedSojourn)
	}
	if r.meter != nil {
		r.meter.Record(now)
	}
	req := writeReqPool.Get().(*writeReq)
	req.key, req.value = key, value
	req.ts, req.clock, req.err = vclock.Timestamp{}, 0, nil
	req.arrival = now.UnixNano()
	req.deadline = 0
	if d := r.adm.cfg.WriteDeadline; d > 0 {
		req.deadline = req.arrival + int64(d)
	}
	leader, ok := r.wq.enqueue(req, r.adm.cfg.MaxQueueDepth)
	if !ok {
		req.key, req.value = "", nil
		writeReqPool.Put(req)
		return WriteReceipt{}, r.shed(ShedQueueFull)
	}
	if leader {
		r.commitLoop(c)
	}
	<-req.done
	rec, err := WriteReceipt{TS: req.ts, Clock: req.clock}, req.err
	req.key, req.value = "", nil
	writeReqPool.Put(req)
	if err == nil && tok != nil {
		tok.ObserveWrite(rec.TS)
	}
	return rec, err
}

// Read serves a plain client read at a replica: the one read body (serve,
// consistency.go) without read parameters, then the value alone. The
// returned slice is a read-only view of replicated content (store
// immutability contract); callers that need a mutable buffer copy it.
func (c *Cluster) Read(id NodeID, key string) ([]byte, bool, error) {
	st, err := c.serve(id, key, nil)
	if err != nil {
		return nil, false, err
	}
	v, ok := st.Get(key)
	return v, ok, nil
}

// Covers reports whether replica id has the write ts.
func (c *Cluster) Covers(id NodeID, ts vclock.Timestamp) bool {
	r := c.replicas[id]
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node.Covers(ts)
}

// Stats returns a replica's protocol counters.
func (c *Cluster) Stats(id NodeID) node.Stats {
	r := c.replicas[id]
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node.Stats()
}

// Digest returns a replica's store digest.
func (c *Cluster) Digest(id NodeID) uint64 {
	r := c.replicas[id]
	r.mu.Lock()
	st := r.node.Store()
	r.mu.Unlock()
	return st.Digest()
}

// Snapshot exports replica id's full store contents — the unit of
// content-level transfer between replica groups (shard handoff). On a
// durable replica the export waits for the WAL watermark to cover the
// image first: handed-off content must never include a write whose
// covering sync could still fail.
func (c *Cluster) Snapshot(id NodeID) ([]store.Item, error) {
	if int(id) < 0 || int(id) >= len(c.replicas) {
		return nil, fmt.Errorf("runtime: no replica %v", id)
	}
	r := c.replicas[id]
	r.mu.Lock()
	st := r.node.Store()
	gate := r.durabilityGate()
	r.mu.Unlock()
	if err := gate.wait(); err != nil {
		return nil, fmt.Errorf("runtime: replica %v snapshot durability: %w", id, err)
	}
	return st.Snapshot(), nil
}

// ApplySnapshot merges a content-level store image into every live replica
// via LWW resolution, advancing each replica's Lamport clock past the
// imported writes. It is how a shard router hands keys to this cluster:
// items carry their original versions, so converged content (and store
// digests) survive the move bit-for-bit. The image is also retained so
// replicas dead now (or killed later) re-absorb it on Restart — absorbed
// content lives in no peer's write log, so anti-entropy alone could never
// recover it.
func (c *Cluster) ApplySnapshot(items []store.Item) {
	c.absorbed.ApplySnapshot(items)
	for _, r := range c.replicas {
		r.mu.Lock()
		if !r.dead {
			r.node.AbsorbItems(items)
			if r.wal != nil {
				// Handoff content exists in no write log anywhere, so the
				// journaled absorption record is its only durable copy —
				// sync it now rather than waiting for the next batch.
				_ = r.wal.Sync()
			}
		}
		r.mu.Unlock()
	}
}

// Converged reports whether all *live* replicas hold equal summaries.
// Killed replicas are excluded: they are not part of the replica set until
// restarted.
func (c *Cluster) Converged() bool {
	var ref *vclock.Summary
	for _, r := range c.replicas {
		r.mu.Lock()
		if r.dead {
			r.mu.Unlock()
			continue
		}
		if ref == nil {
			// One clone establishes the reference; every other replica
			// compares against it in place, so the convergence poll does not
			// copy a summary per replica.
			ref = r.node.Summary()
			r.mu.Unlock()
			continue
		}
		ord := r.node.CompareSummary(ref)
		r.mu.Unlock()
		if ord != vclock.Equal {
			return false
		}
	}
	return true
}

// WaitConverged polls until all replicas converge or ctx expires.
func (c *Cluster) WaitConverged(ctx context.Context) bool {
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		if c.Converged() {
			return true
		}
		select {
		case <-ctx.Done():
			return c.Converged()
		case <-ticker.C:
		}
	}
}

// Watch observes the propagation of one write across the cluster.
type Watch struct {
	ts    vclock.Timestamp
	start time.Time

	mu        sync.Mutex
	times     map[NodeID]time.Duration
	remaining int
	done      chan struct{}
}

// Watch starts observing the write ts. Replicas already covering it are
// recorded at elapsed 0.
func (c *Cluster) Watch(ts vclock.Timestamp) *Watch {
	w := &Watch{
		ts:        ts,
		start:     time.Now(),
		times:     make(map[NodeID]time.Duration, len(c.replicas)),
		remaining: len(c.replicas),
		done:      make(chan struct{}),
	}
	c.mu.Lock()
	c.watches = append(c.watches, w)
	c.watchCount.Add(1)
	c.mu.Unlock()
	for i := range c.replicas {
		c.checkWatches(NodeID(i))
	}
	return w
}

// Done is closed when every replica covers the watched write.
func (w *Watch) Done() <-chan struct{} { return w.done }

// Unwatch removes a watch that will not be waited on (e.g. a timed-out
// probe), so completed-coverage checks stop paying for it. Recorded times
// remain readable; unwatching an already-completed watch is a no-op.
func (c *Cluster) Unwatch(w *Watch) { c.removeWatch(w) }

// removeWatch prunes w from the active list (watch completed or abandoned)
// and keeps the atomic fast-path count in sync.
func (c *Cluster) removeWatch(w *Watch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cw := range c.watches {
		if cw == w {
			c.watches = append(c.watches[:i], c.watches[i+1:]...)
			c.watchCount.Add(-1)
			return
		}
	}
}

// TimeOf returns when replica id first covered the write (elapsed since
// Watch creation).
func (w *Watch) TimeOf(id NodeID) (time.Duration, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	d, ok := w.times[id]
	return d, ok
}

// Times returns a copy of all recorded coverage times.
func (w *Watch) Times() map[NodeID]time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[NodeID]time.Duration, len(w.times))
	for id, d := range w.times {
		out[id] = d
	}
	return out
}

func (w *Watch) record(id NodeID) (complete bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.times[id]; ok {
		return false
	}
	w.times[id] = time.Since(w.start)
	w.remaining--
	if w.remaining == 0 {
		close(w.done)
		return true
	}
	return false
}

// checkWatches records coverage of all active watches for replica id, and
// doubles as the freshness signal point for leveled reads parked on the
// replica (every caller has just advanced the replica's applied coverage).
// The zero-watch, zero-waiter case — every client write, almost always —
// is two atomic loads, touching neither Cluster.mu nor the replica lock.
// When watches exist, the replica lock is taken once for the whole set
// (not once per watch), and completed watches are pruned eagerly so the
// active list never accumulates finished entries.
func (c *Cluster) checkWatches(id NodeID) {
	c.signalFresh(id)
	if c.watchCount.Load() == 0 {
		return
	}
	c.mu.Lock()
	watches := append([]*Watch(nil), c.watches...)
	c.mu.Unlock()
	if len(watches) == 0 {
		return
	}
	r := c.replicas[id]
	covered := watches[:0] // in-place filter of the private copy
	r.mu.Lock()
	for _, w := range watches {
		if r.node.Covers(w.ts) {
			covered = append(covered, w)
		}
	}
	r.mu.Unlock()
	for _, w := range covered {
		if w.record(id) {
			c.removeWatch(w)
		}
	}
}

// replica is one live node: goroutine, endpoint, RNG, and the shared state
// machine guarded by mu (the run loop and external API both touch it).
//
// The client plane bypasses mu: Read goes through the atomically published
// store pointer, Write through the combining queue (whose leader is the only
// writer that takes mu, once per batch), and the demand meter is recorded
// without any lock. meter is written only during construction and never
// rewritten, so the lock-free paths may load it freely.
type replica struct {
	cluster *Cluster
	// id is the replica's identity — immutable after construction, so
	// lock-free paths (admission shed errors, health probes) may read it
	// without touching r.node, whose pointer swaps on restart.
	id    NodeID
	node  *node.Node
	ep    transport.Endpoint
	rng   *rand.Rand
	meter *demandMeter // nil unless WithMeasuredDemand
	// adm is the overload-admission state (bounded queue + CoDel-style
	// controller; see admission.go). All-atomic: consulted by the write
	// fast path and fed by the commit leader, lock-free on both sides.
	adm admission
	// failCause is the rejection every client op at a fail-stopped replica
	// receives (nil otherwise), so dead-replica error paths and health probes
	// can report the reason without the replica lock. Set by failStop,
	// cleared by revive.
	failCause atomic.Pointer[Rejection]
	// wal is the durable persistence plane (nil unless WithDurability).
	// Journaling happens through the node's journal hook under mu; the
	// WAL's own sync stage is the only steady-state flusher. Swapped on
	// restart under mu.
	wal *wal.Log
	mu  sync.Mutex

	// store is the lock-free read path's view of the node's content store:
	// nil while the replica is dead, swapped on restart. The store itself is
	// concurrency-safe (hash-striped); the pointer indirection is only so
	// Kill/Restart stay correct without Read taking mu.
	store atomic.Pointer[store.Store]

	// applied is the replica's applied-coverage watermark: the log summary
	// as of the last mutation whose store apply completed. Leveled reads
	// probe it instead of the live log because the node advances the log
	// summary BEFORE applying entries to the store — probing the log
	// directly would let a session read observe coverage whose values the
	// store does not hold yet. Published under r.mu at the end of every
	// mutating critical section, re-seeded on restart (see consistency.go).
	applied appliedMark

	// wq collects concurrent client writes for group commit; opsScratch is
	// the leader's reusable staging buffer (only the leader touches it, and
	// leadership is exclusive).
	wq         writeQueue
	opsScratch []node.WriteOp

	// ackq is the pipelined commit protocol's ordered release stage for
	// acks, fan-out and gated envelopes (durable clusters only; see
	// ackrelease.go). Its worker runs from Start to Stop; outside that
	// window the commit leader releases its own batches.
	ackq ackQueue

	// Lifecycle, guarded by mu: cancel/done belong to the current
	// incarnation's goroutine; dead marks a killed replica.
	cancel context.CancelFunc
	done   chan struct{}
	dead   bool
}

// exportState captures a consistent (summary, store image) pair from a
// live replica — the bootstrap source for a peer's crash recovery. It
// reports ok=false for dead replicas, and for durable replicas whose
// captured image cannot be made durable: the image may hold own-origin
// writes whose covering sync is still in flight, and handing those to a
// peer before they are on disk is exactly the leak the pipelined commit
// protocol gates everywhere else.
func (r *replica) exportState() (*vclock.Summary, []store.Item, bool) {
	r.mu.Lock()
	if r.dead {
		r.mu.Unlock()
		return nil, nil, false
	}
	sum, items := r.node.Summary(), r.node.Store().Snapshot()
	gate := r.durabilityGate()
	r.mu.Unlock()
	if gate.wait() != nil {
		return nil, nil, false
	}
	return sum, items, true
}

// spawn launches (or relaunches) the replica goroutine.
func (r *replica) spawn(parent context.Context, wg *sync.WaitGroup) {
	ctx, cancel := context.WithCancel(parent)
	done := make(chan struct{})
	r.mu.Lock()
	r.cancel = cancel
	r.done = done
	r.mu.Unlock()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		r.run(ctx)
	}()
}

// run is the replica's one event loop: inbound envelopes, the anti-entropy
// session timer, the demand-advert ticker and — on durable replicas — the
// WAL maintenance tick (health check, snapshot rollover). Memory replicas
// leave maint nil: select drops nil-channel cases before it polls or locks
// anything, so they pay nothing for the case they can never take.
func (r *replica) run(ctx context.Context) {
	c := r.cluster
	sessionTimer := time.NewTimer(r.expInterval())
	defer sessionTimer.Stop()
	advertTicker := time.NewTicker(c.opts.advertInterval)
	defer advertTicker.Stop()
	var maint <-chan time.Time
	if r.wal != nil {
		t := time.NewTicker(walMaintenanceInterval)
		defer t.Stop()
		maint = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case env, ok := <-r.ep.Recv():
			if !ok {
				return
			}
			r.handle(env)
		case <-sessionTimer.C:
			r.session()
			sessionTimer.Reset(r.expInterval())
		case <-advertTicker.C:
			r.advertise()
		case <-maint:
			r.walMaintain()
		}
	}
}

func (r *replica) expInterval() time.Duration {
	mean := float64(r.cluster.opts.sessionMean)
	r.mu.Lock()
	v := r.rng.ExpFloat64()
	r.mu.Unlock()
	d := time.Duration(v * mean)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// handle processes one inbound envelope per replica-lock acquisition and
// never waits on the disk. (A burst-draining variant that handled many
// queued envelopes under one lock was measured and rejected: it grows the
// run loop's lock hold time, which directly starves the group-commit leader
// contending for the same lock.)
func (r *replica) handle(env protocol.Envelope) {
	c := r.cluster
	r.mu.Lock()
	before := r.node.SummaryTotal()
	out := r.node.HandleMessage(c.now(), env)
	// Offers, replies, adverts and session requests absorb nothing: only a
	// message that advanced coverage pays for a new applied watermark (a
	// clone, and every session token's cache) and the watch pass — with the
	// store applies done, before the lock drops, so leveled reads trust it.
	advanced := r.node.SummaryTotal() != before
	if advanced {
		r.applied.publish(r.node.Log())
	}
	var gate walGate
	held := false
	if r.wal != nil && carriesEntries(out) {
		// Egress gate of the pipelined commit protocol: entry-carrying
		// envelopes must not escape before every record journaled so far is
		// on disk. The watermark is captured, and the envelopes join the
		// ordered release stage, under the lock the entries were read under.
		gate = r.durabilityGate()
		held = r.ackq.push(ackRelease{out: out, gate: gate, ep: r.ep})
	}
	r.mu.Unlock()
	if advanced {
		c.checkWatches(r.id)
	}
	// With no worker to hold them (push refused) the loop waits itself; a
	// failed gate keeps entries that can never reach disk off the network.
	if held || gate.wait() != nil {
		return
	}
	r.sendAll(out)
}

func (r *replica) session() {
	c := r.cluster
	r.mu.Lock()
	out := r.node.StartSession(c.now(), r.rng)
	r.mu.Unlock()
	r.sendAll(out)
}

func (r *replica) advertise() {
	c := r.cluster
	r.mu.Lock()
	out := r.node.AdvertiseDemand(c.now())
	r.mu.Unlock()
	r.sendAll(out)
}

// sendAll transmits envelopes, marking unreachable peers in the demand
// table (the availability signal §4 calls "an added advantage"). It runs on
// the replica goroutine, where r.ep is stable.
func (r *replica) sendAll(envs []protocol.Envelope) { r.sendAllVia(r.ep, envs) }

// sendAllVia transmits envelopes through a specific endpoint — the commit
// leader captures the endpoint under the replica lock and sends outside it,
// so a concurrent restart swapping r.ep cannot race the send.
func (r *replica) sendAllVia(ep transport.Endpoint, envs []protocol.Envelope) {
	c := r.cluster
	for _, env := range envs {
		if err := ep.Send(env); err != nil {
			r.mu.Lock()
			r.node.Table().MarkUnreachable(env.To, c.now())
			r.mu.Unlock()
		}
	}
}
