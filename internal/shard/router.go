package shard

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/vclock"
)

// Config tunes a Router.
type Config struct {
	// VirtualNodes per shard on the hash ring (DefaultVirtualNodes if 0).
	VirtualNodes int
	// Routing picks the serving replica within the owning group
	// (RouteLowestDemand by default).
	Routing RoutePolicy
	// Seed makes replica RNGs and random routing deterministic.
	Seed int64
	// DataDir, when non-empty, enables the durable persistence plane for
	// every group: group g's replicas keep their WALs and snapshots under
	// DataDir/<group-name>/n<id> (runtime.WithDurability per group), so
	// handoff snapshots and client writes survive crashes, and a router
	// rebuilt over the same DataDir recovers every shard from disk.
	DataDir string
	// RuntimeOptions apply to every group's cluster (session interval,
	// policy, fast push, network faults, ...).
	RuntimeOptions []runtime.Option
	// Obs, when non-nil, enables the observability plane: every group's
	// cluster feeds the registry (with a shard=<name> label distinguishing
	// its series), and the router adds per-shard routed-op and handoff
	// counters on top.
	Obs *obs.Registry
}

// Receipt identifies a routed write: which shard accepted it, at which
// replica, and the write's version within that group. Pass it to Watch to
// observe the write's propagation across the owning group.
type Receipt struct {
	// Shard names the owning group.
	Shard string
	// Node is the replica of that group that acknowledged the write.
	Node NodeID
	// TS is the write's (origin, sequence) position within the group.
	TS vclock.Timestamp
	// Clock is the write's Lamport clock within its group — its position in
	// the store's LWW version order (clock major, TS tiebreak).
	Clock uint64
}

// String renders the receipt.
func (rc Receipt) String() string {
	return fmt.Sprintf("%s/%v@%v", rc.Shard, rc.Node, rc.TS)
}

// Router serves one sharded keyspace: a consistent-hash ring over replica
// groups, each running the fast-consistency protocol independently. The
// router exposes the familiar cluster surface — Write, Read, Watch,
// Converged, Stats — and resolves the owning group per key, so callers
// never see shard boundaries except through receipts.
//
// Router is safe for concurrent use; Write/Read may be called from many
// client goroutines at once.
type Router struct {
	cfg  Config
	ring *Ring

	// clock is the shared coarse routing clock: one background ticker
	// serves every group's per-op demand evaluation (see Group.now).
	clock coarseClock
	stopC chan struct{}

	mu      sync.RWMutex
	groups  map[string]*Group
	started bool
	stopped bool
	ctx     context.Context

	// reshardMu serialises AddShard/RemoveShard end to end: the shard set
	// and ring only change under it, which keeps the handoff and the
	// last-shard guard atomic with respect to concurrent resharding.
	reshardMu sync.Mutex
}

// groupOptions returns the runtime options for one group's cluster,
// appending per-group durability when DataDir is set and the per-group
// observability bundle when Obs is set.
func (cfg Config) groupOptions(spec GroupSpec) []runtime.Option {
	if cfg.DataDir == "" && cfg.Obs == nil {
		return cfg.RuntimeOptions
	}
	opts := append([]runtime.Option(nil), cfg.RuntimeOptions...)
	if cfg.DataDir != "" {
		opts = append(opts, runtime.WithDurability(filepath.Join(cfg.DataDir, spec.Name)))
	}
	if cfg.Obs != nil {
		co := obs.NewClusterObs(cfg.Obs, spec.Graph.N(), obs.L("shard", spec.Name))
		opts = append(opts, runtime.WithObs(co))
	}
	return opts
}

// registerGroupObs attaches the router-level per-shard counters to a fresh
// group. Registration is idempotent, so a router rebuilt on a shared
// registry (or a shard re-added) re-attaches to its series.
func (r *Router) registerGroupObs(g *Group) {
	reg := r.cfg.Obs
	if reg == nil {
		return
	}
	shard := obs.L("shard", g.name)
	g.obsWrites = reg.Counter("repro_shard_ops_total",
		"Client operations routed to the shard, by op.", shard, obs.L("op", "write"))
	g.obsReads = reg.Counter("repro_shard_ops_total",
		"Client operations routed to the shard, by op.", shard, obs.L("op", "read"))
	g.obsWriteErr = reg.Counter("repro_shard_op_errors_total",
		"Routed client operations that failed at the shard, by op.", shard, obs.L("op", "write"))
	g.obsReadErr = reg.Counter("repro_shard_op_errors_total",
		"Routed client operations that failed at the shard, by op.", shard, obs.L("op", "read"))
	g.obsHandoff = reg.Counter("repro_shard_handoff_keys_total",
		"Keys the shard received through resharding handoffs.", shard)
}

// NewRouter assembles a router over the given shard groups. Use Carve to
// derive specs from one shared topology, or hand-build specs for
// heterogeneous shards. Call Start to launch the clusters.
func NewRouter(specs []GroupSpec, cfg Config) (*Router, error) {
	if len(specs) == 0 {
		return nil, errors.New("shard: router needs at least one group")
	}
	r := &Router{
		cfg:    cfg,
		ring:   NewRing(cfg.VirtualNodes),
		groups: make(map[string]*Group, len(specs)),
	}
	for i, spec := range specs {
		if _, dup := r.groups[spec.Name]; dup {
			return nil, fmt.Errorf("shard: duplicate group %q", spec.Name)
		}
		g, err := newGroup(spec, cfg.Seed+int64(i)*104729, cfg.groupOptions(spec), &r.clock)
		if err != nil {
			return nil, err
		}
		if err := r.ring.Add(spec.Name); err != nil {
			return nil, err
		}
		r.registerGroupObs(g)
		r.groups[spec.Name] = g
	}
	return r, nil
}

// Start launches every group's cluster. The router stops when ctx is
// cancelled or Stop is called.
func (r *Router) Start(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return errors.New("shard: router already started")
	}
	r.started = true
	r.ctx = ctx
	r.stopC = make(chan struct{})
	for _, g := range r.groups {
		if err := g.cluster.Start(ctx); err != nil {
			return err
		}
		g.markStarted()
	}
	// The clock starts only once every group is up, so a failed Start leaks
	// no ticker goroutine; until the first tick (and again after Stop),
	// coarseClock.now falls back to the real clock.
	r.clock.ns.Store(time.Now().UnixNano())
	go r.clockLoop(ctx, r.stopC)
	return nil
}

// clockLoop drives the shared coarse routing clock: a millisecond tick is
// far finer than any demand field's rate of change, and it converts every
// routed op's time.Now into one atomic load.
func (r *Router) clockLoop(ctx context.Context, stop <-chan struct{}) {
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	// On exit, clear the cached time so coarseClock.now falls back to the
	// real clock instead of freezing at the last tick (Router reads keep
	// working after Stop).
	defer r.clock.ns.Store(0)
	for {
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		case t := <-ticker.C:
			r.clock.ns.Store(t.UnixNano())
		}
	}
}

// Stop shuts every group down. Safe to call more than once.
func (r *Router) Stop() {
	r.mu.Lock()
	if !r.started || r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	close(r.stopC)
	groups := make([]*Group, 0, len(r.groups))
	for _, g := range r.groups {
		groups = append(groups, g)
	}
	r.mu.Unlock()
	for _, g := range groups {
		g.cluster.Stop()
	}
}

// route resolves key to its owning group.
func (r *Router) route(key string) (*Group, error) {
	owner, ok := r.ring.Owner(key)
	if !ok {
		return nil, errors.New("shard: empty ring")
	}
	r.mu.RLock()
	g := r.groups[owner]
	r.mu.RUnlock()
	if g == nil {
		return nil, fmt.Errorf("shard: ring owner %q has no group", owner)
	}
	return g, nil
}

// OwnerOf returns the shard that owns key.
func (r *Router) OwnerOf(key string) (string, bool) { return r.ring.Owner(key) }

// Write routes a client write to the owning group's serving replica.
func (r *Router) Write(key string, value []byte) (Receipt, error) {
	return r.write(key, value, nil)
}

// Read routes a client read to the owning group's serving replica. The
// returned slice is a read-only view of replicated content (store
// immutability contract); callers that need a mutable buffer copy it.
func (r *Router) Read(key string) ([]byte, bool, error) {
	g, id, _, err := r.routeRead(key, nil, runtime.LevelEventual)
	if err != nil {
		return nil, false, err
	}
	v, ok, err := g.cluster.Read(id, key)
	g.readDone(err)
	return v, ok, err
}

// write is the one routed write: resolve the owning group, pick its serving
// replica, write there. A non-nil session folds the acknowledged position
// into its token for that group; nil is a plain write.
func (r *Router) write(key string, value []byte, s *Session) (Receipt, error) {
	g, err := r.route(key)
	if err != nil {
		return Receipt{}, err
	}
	var tok *runtime.Token
	if s != nil {
		tok = s.token(g.name)
	}
	id := g.pick(r.cfg.Routing, nil)
	rec, err := g.cluster.WriteToken(id, key, value, tok)
	if err != nil {
		if g.obsWriteErr != nil {
			g.obsWriteErr.Inc()
		}
		return Receipt{}, fmt.Errorf("shard: write to %s: %w", g.name, err)
	}
	if g.obsWrites != nil {
		g.obsWrites.Inc()
	}
	return Receipt{Shard: g.name, Node: id, TS: rec.TS, Clock: rec.Clock}, nil
}

// routeRead is the one routed read, up to the cluster call its two faces
// (Router.Read, Session.ReadVersioned) finish with: the owning group, the
// replica that should serve, and — for a session — the read parameters
// carrying its token for that group and its wait parameters. A session's
// read is routed token-aware: session, bounded and strong reads all gate on
// the token (strong subsumes session), so among the group's healthy
// replicas one already covering it is preferred and the read lands where
// it needs no freshness wait whenever such a replica exists. A nil session
// is a plain read.
func (r *Router) routeRead(key string, s *Session, lvl runtime.Level) (*Group, NodeID, *runtime.LeveledRead, error) {
	g, err := r.route(key)
	if err != nil {
		return nil, 0, nil, err
	}
	if s == nil {
		return g, g.pick(r.cfg.Routing, nil), nil, nil
	}
	tok := s.token(g.name)
	s.opt = runtime.LeveledRead{Level: lvl, Token: tok, MaxLag: s.MaxLag, Deadline: s.Deadline}
	if lvl == runtime.LevelEventual {
		tok = nil // an eventual read gates on nothing: plain pick
	}
	return g, g.pick(r.cfg.Routing, tok), &s.opt, nil
}

// readDone counts one routed read's outcome.
func (g *Group) readDone(err error) {
	switch {
	case err != nil && g.obsReadErr != nil:
		g.obsReadErr.Inc()
	case err == nil && g.obsReads != nil:
		g.obsReads.Inc()
	}
}

// Watch observes a routed write propagating across its owning group (a
// write only ever reaches its own shard's replicas).
func (r *Router) Watch(rc Receipt) (*runtime.Watch, error) {
	r.mu.RLock()
	g := r.groups[rc.Shard]
	r.mu.RUnlock()
	if g == nil {
		return nil, fmt.Errorf("shard: no group %q", rc.Shard)
	}
	return g.cluster.Watch(rc.TS), nil
}

// Shards returns the shard names in ring order (ascending).
func (r *Router) Shards() []string { return r.ring.Shards() }

// Group returns a shard's group for direct inspection (stats, faults).
func (r *Router) Group(name string) (*Group, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	g, ok := r.groups[name]
	return g, ok
}

// Converged reports whether every group's live replicas hold equal
// summaries — the sharded analogue of Cluster.Converged. One stalled group
// makes the whole keyspace unconverged.
func (r *Router) Converged() bool {
	r.mu.RLock()
	groups := make([]*Group, 0, len(r.groups))
	for _, g := range r.groups {
		groups = append(groups, g)
	}
	r.mu.RUnlock()
	for _, g := range groups {
		if !g.Converged() {
			return false
		}
	}
	return true
}

// WaitConverged polls until every group converges or ctx expires.
func (r *Router) WaitConverged(ctx context.Context) bool {
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		if r.Converged() {
			return true
		}
		select {
		case <-ctx.Done():
			return r.Converged()
		case <-ticker.C:
		}
	}
}

// Stats sums protocol counters across every replica of every group.
func (r *Router) Stats() node.Stats {
	r.mu.RLock()
	groups := make([]*Group, 0, len(r.groups))
	for _, g := range r.groups {
		groups = append(groups, g)
	}
	r.mu.RUnlock()
	var total node.Stats
	for _, g := range groups {
		addStats(&total, g.Stats())
	}
	return total
}

// Health snapshots every shard's client-plane health, keyed by shard
// name — queue depths, overload state, shed totals and fail-stop reasons
// per replica (see GroupHealth). Routing already consumes the same
// signals per op (saturated and dead replicas are skipped by pick);
// Health exposes them to operators, rebalancers and tests.
func (r *Router) Health() map[string]GroupHealth {
	r.mu.RLock()
	groups := make([]*Group, 0, len(r.groups))
	for _, g := range r.groups {
		groups = append(groups, g)
	}
	r.mu.RUnlock()
	out := make(map[string]GroupHealth, len(groups))
	for _, g := range groups {
		out[g.name] = g.Health()
	}
	return out
}

// GroupStats returns per-shard protocol counters keyed by shard name.
func (r *Router) GroupStats() map[string]node.Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]node.Stats, len(r.groups))
	for name, g := range r.groups {
		out[name] = g.Stats()
	}
	return out
}

// N returns the total replica count across groups.
func (r *Router) N() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	total := 0
	for _, g := range r.groups {
		total += g.N()
	}
	return total
}

// AddShard grows the keyspace: a new group is built (and started, when the
// router runs), every key the grown ring will assign to it is handed off
// from the group that held it, and only then does the new shard join the
// live ring — so a concurrently routed read never lands on an empty group,
// and the absorbed versions advance the new group's clocks before any
// client write can race them. The handoff is a content-level store
// transfer preserving each key's version bit-for-bit, so store digests
// over moved keys are identical on both sides. Handed-off keys remain on
// the old owners as inert residue (the ring never routes to them again);
// the paper's per-group anti-entropy is untouched.
//
// Resharding is not linearizable against concurrent writes to moving keys:
// a write landing on the old owner after its image is captured stays
// there, invisible to the new owner. Quiesce writers (or re-run AddShard's
// handoff) when that window matters.
func (r *Router) AddShard(spec GroupSpec) error {
	r.reshardMu.Lock()
	defer r.reshardMu.Unlock()
	r.mu.Lock()
	if _, dup := r.groups[spec.Name]; dup {
		r.mu.Unlock()
		return fmt.Errorf("shard: group %q already present", spec.Name)
	}
	seed := r.cfg.Seed + int64(len(r.groups))*104729
	g, err := newGroup(spec, seed, r.cfg.groupOptions(spec), &r.clock)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	r.registerGroupObs(g)
	if r.started && !r.stopped {
		if err := g.cluster.Start(r.ctx); err != nil {
			r.mu.Unlock()
			return err
		}
		g.markStarted()
	}
	donors := make([]*Group, 0, len(r.groups))
	for _, old := range r.groups {
		donors = append(donors, old)
	}
	r.mu.Unlock()

	// Handoff against a preview of the grown ring, before routing flips.
	// Consistent hashing guarantees keys move only *onto* the new shard,
	// so donors never receive anything.
	preview := NewRing(r.cfg.VirtualNodes)
	for _, name := range r.ring.Shards() {
		if err := preview.Add(name); err != nil {
			g.cluster.Stop()
			return err
		}
	}
	if err := preview.Add(spec.Name); err != nil {
		g.cluster.Stop()
		return err
	}
	var moved []store.Item
	for _, donor := range donors {
		for _, item := range donor.snapshotUnion() {
			if owner, ok := preview.Owner(item.Key); ok && owner == spec.Name {
				moved = append(moved, item)
			}
		}
	}
	if len(moved) > 0 {
		g.cluster.ApplySnapshot(moved)
		if g.obsHandoff != nil {
			g.obsHandoff.Add(uint64(len(moved)))
		}
	}

	// Flip routing: register the group, then its ring points.
	r.mu.Lock()
	r.groups[spec.Name] = g
	r.mu.Unlock()
	if err := r.ring.Add(spec.Name); err != nil {
		r.mu.Lock()
		delete(r.groups, spec.Name)
		r.mu.Unlock()
		g.cluster.Stop()
		return err
	}
	return nil
}

// RemoveShard shrinks the keyspace: every key the shard held is handed off
// to its post-removal ring owner (the same version-preserving content
// transfer as AddShard, against a preview of the shrunk ring), then the
// shard leaves the live ring and its cluster stops. The same
// non-linearizability caveat as AddShard applies to writes racing the
// handoff.
func (r *Router) RemoveShard(name string) error {
	r.reshardMu.Lock()
	defer r.reshardMu.Unlock()
	r.mu.Lock()
	g := r.groups[name]
	if g == nil {
		r.mu.Unlock()
		return fmt.Errorf("shard: no group %q", name)
	}
	// Sound under reshardMu: only resharding changes the group set.
	if len(r.groups) == 1 {
		r.mu.Unlock()
		return errors.New("shard: cannot remove the last shard")
	}
	started := r.started
	r.mu.Unlock()

	// Handoff before routing flips: redistribute the departing shard's
	// image to the owners a shrunk ring will choose.
	preview := NewRing(r.cfg.VirtualNodes)
	for _, s := range r.ring.Shards() {
		if s == name {
			continue
		}
		if err := preview.Add(s); err != nil {
			return err
		}
	}
	perOwner := make(map[string][]store.Item)
	for _, item := range g.snapshotUnion() {
		owner, ok := preview.Owner(item.Key)
		if !ok {
			continue
		}
		perOwner[owner] = append(perOwner[owner], item)
	}
	r.mu.RLock()
	for owner, items := range perOwner {
		if dst := r.groups[owner]; dst != nil {
			dst.cluster.ApplySnapshot(items)
			if dst.obsHandoff != nil {
				dst.obsHandoff.Add(uint64(len(items)))
			}
		}
	}
	r.mu.RUnlock()

	if err := r.ring.Remove(name); err != nil {
		return err
	}
	r.mu.Lock()
	delete(r.groups, name)
	r.mu.Unlock()
	if started {
		g.cluster.Stop()
	}
	return nil
}
