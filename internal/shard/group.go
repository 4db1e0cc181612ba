package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/demand"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/vclock"
)

// NodeID aliases the replica identifier.
type NodeID = vclock.NodeID

// RoutePolicy selects which replica of the owning group serves an op.
type RoutePolicy int

// The routing policies; dead and shedding replicas are avoided under all of
// them (see Group.pick).
const (
	// RouteLowestDemand sends the op to the replica with the lowest
	// current demand — the least-loaded server, the router's default.
	RouteLowestDemand RoutePolicy = iota
	// RouteHighestDemand sends the op to the replica with the highest
	// current demand. Under the paper's algorithm that replica receives
	// updates first, so reads there see the freshest content.
	RouteHighestDemand
	// RouteRandom picks a uniformly random replica.
	RouteRandom
)

// String names the policy.
func (p RoutePolicy) String() string {
	switch p {
	case RouteLowestDemand:
		return "lowest-demand"
	case RouteHighestDemand:
		return "highest-demand"
	case RouteRandom:
		return "random"
	}
	return fmt.Sprintf("RoutePolicy(%d)", int(p))
}

// Group is one shard's replica set: a live fast-consistency cluster over
// its own sub-topology, serving the slice of the keyspace the ring assigns
// to it. All replicas in a group hold the shard's full content (the paper's
// fully-replicated model applies per shard).
type Group struct {
	name    string
	graph   *topology.Graph
	field   demand.Field
	cluster *runtime.Cluster

	// startNs is the routing time base (unix nanos; 0 = not started),
	// atomic so the per-op route/pick path never takes a group lock — every
	// client read and write of the shard passes through pick.
	startNs atomic.Int64
	// clock is the router's shared coarse clock (nil for a standalone
	// group): demand-based routing reads it instead of calling time.Now
	// per op. Millisecond staleness is invisible to demand fields that
	// change over seconds.
	clock *coarseClock

	mu  sync.Mutex // guards rng (RouteRandom only)
	rng *rand.Rand

	// Per-shard routed-op instruments, set by the router when it carries an
	// observability registry (nil otherwise — the op path nil-checks).
	obsWrites   *obs.Counter
	obsReads    *obs.Counter
	obsWriteErr *obs.Counter
	obsReadErr  *obs.Counter
	obsHandoff  *obs.Counter
}

// coarseClock is a wall clock updated by a background ticker (see
// Router.clockLoop): one atomic load per routed op instead of a vDSO call.
// Before the ticker runs (or after it stops) readers fall back to the real
// clock.
type coarseClock struct{ ns atomic.Int64 }

func (c *coarseClock) now() int64 {
	if c != nil {
		if ns := c.ns.Load(); ns != 0 {
			return ns
		}
	}
	return time.Now().UnixNano()
}

// newGroup assembles (without starting) one shard group. clock may be nil
// (standalone groups route on the real clock).
func newGroup(spec GroupSpec, seed int64, opts []runtime.Option, clock *coarseClock) (*Group, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("shard: group with empty name")
	}
	if spec.Graph == nil || spec.Graph.N() == 0 {
		return nil, fmt.Errorf("shard: group %q has no topology", spec.Name)
	}
	if !spec.Graph.IsConnected() {
		return nil, fmt.Errorf("shard: group %q topology %v is not connected", spec.Name, spec.Graph)
	}
	if spec.Field == nil {
		return nil, fmt.Errorf("shard: group %q has no demand field", spec.Name)
	}
	// The per-group seed goes last so it wins over any blanket
	// runtime.WithSeed in opts: groups must draw distinct RNG streams or
	// their session timing is identically correlated. Callers control
	// determinism through Config.Seed, which this seed derives from.
	all := append(append([]runtime.Option(nil), opts...), runtime.WithSeed(seed))
	return &Group{
		name:    spec.Name,
		graph:   spec.Graph,
		field:   spec.Field,
		cluster: runtime.New(spec.Graph, spec.Field, all...),
		clock:   clock,
		rng:     rand.New(rand.NewSource(seed ^ 0x5bd1e995)),
	}, nil
}

// Name returns the group's ring name.
func (g *Group) Name() string { return g.name }

// N returns the number of replicas in the group.
func (g *Group) N() int { return g.cluster.N() }

// Cluster exposes the underlying live cluster (stats, watches, faults).
func (g *Group) Cluster() *runtime.Cluster { return g.cluster }

// markStarted records the routing time base; the router calls it right
// after the group's cluster starts.
func (g *Group) markStarted() {
	g.startNs.Store(time.Now().UnixNano())
}

// now returns seconds since the group started — the time base for demand
// evaluation during routing. Lock-free: it is on every routed op's path.
func (g *Group) now() float64 {
	start := g.startNs.Load()
	if start == 0 {
		return 0
	}
	now := g.clock.now()
	if now <= start {
		return 0
	}
	return float64(now-start) / float64(time.Second)
}

// pick chooses the replica that should serve the next op under the policy.
// tok is the session token a non-eventual read gates on, nil for every
// other op (a nil token is covered everywhere, as Cluster.TokenCovered
// says). One scan ranks the replicas: dead ones are skipped so routing
// survives faults; replicas whose admission controller is currently
// shedding are avoided so new ops reroute around saturation — unless every
// live replica is shedding, in which case load spreads across them as
// before (rerouting everything onto one "least bad" replica would only
// deepen its queue); and among the healthy ones a replica already covering
// tok wins, because a read there needs no freshness wait. Demand (max under
// RouteHighestDemand, else min) breaks ties within a rank; RouteRandom
// draws uniformly unless a covering replica exists. It runs on every routed
// op, so every probe is one of the cluster's lock-free ones (Serving,
// Overloaded, TokenCovered), not Alive (which takes the replica lock).
func (g *Group) pick(p RoutePolicy, tok *runtime.Token) NodeID {
	n := g.cluster.N()
	if n == 1 {
		return 0
	}
	if p == RouteRandom && tok == nil {
		return g.random(n)
	}
	// rank orders replicas within a tier: lowest demand first, or — the sign
	// flipped — highest first.
	rank := 1.0
	if p == RouteHighestDemand {
		rank = -1
	}
	now := g.now()
	started := g.started()
	covering, best, fallback := NodeID(-1), NodeID(-1), NodeID(-1)
	var coveringK, bestK, fallbackK float64
	for i := 0; i < n; i++ {
		id := NodeID(i)
		if started && !g.cluster.Serving(id) {
			continue
		}
		k := rank * g.field.At(id, now)
		if fallback < 0 || k < fallbackK {
			fallback, fallbackK = id, k
		}
		if g.cluster.Overloaded(id) {
			continue
		}
		if best < 0 || k < bestK {
			best, bestK = id, k
		}
		if tok != nil && (covering < 0 || k < coveringK) && g.cluster.TokenCovered(id, tok) {
			covering, coveringK = id, k
		}
	}
	switch {
	case covering >= 0:
		return covering
	case p == RouteRandom:
		return g.random(n)
	case best >= 0:
		return best
	}
	return max(fallback, 0) // replica 0 when nothing serves at all
}

// random draws a uniformly random replica (RouteRandom).
func (g *Group) random(n int) NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return NodeID(g.rng.Intn(n))
}

// Health snapshots the group's per-replica client-plane health.
func (g *Group) Health() GroupHealth {
	h := GroupHealth{Replicas: make([]runtime.ReplicaHealth, g.cluster.N())}
	for i := range h.Replicas {
		rh := g.cluster.Health(NodeID(i))
		h.Replicas[i] = rh
		if rh.Serving {
			h.Serving++
		}
		if rh.Overloaded {
			h.Overloaded++
		}
		h.QueueDepth += rh.QueueDepth
		h.Shed += rh.Shed
	}
	return h
}

// GroupHealth aggregates one shard group's client-plane health — the
// router's reroute/fast-fail signal.
type GroupHealth struct {
	// Replicas holds each replica's health snapshot, indexed by NodeID.
	Replicas []runtime.ReplicaHealth
	// Serving counts replicas currently accepting client operations;
	// Overloaded those currently shedding.
	Serving, Overloaded int
	// QueueDepth is the parked client writes summed across replicas.
	QueueDepth int
	// Shed is the writes shed since construction, all replicas and reasons.
	Shed uint64
}

// Saturated reports whether every serving replica of the group is
// currently shedding — the group as a whole is past its capacity, so
// callers should back off rather than hunt for a healthy replica in it.
func (h GroupHealth) Saturated() bool {
	return h.Serving > 0 && h.Overloaded == h.Serving
}

func (g *Group) started() bool {
	return g.startNs.Load() != 0
}

// Converged reports whether the group's live replicas hold equal summaries.
func (g *Group) Converged() bool { return g.cluster.Converged() }

// Digest returns the group's common store digest, or false when replicas
// disagree (content still propagating).
func (g *Group) Digest() (uint64, bool) {
	var ref uint64
	first := true
	for i := 0; i < g.cluster.N(); i++ {
		id := NodeID(i)
		if !g.cluster.Alive(id) && g.started() {
			continue
		}
		d := g.cluster.Digest(id)
		if first {
			ref, first = d, false
			continue
		}
		if d != ref {
			return 0, false
		}
	}
	return ref, !first
}

// snapshotUnion merges every live replica's store image via LWW, so the
// result covers writes that have not finished propagating inside the group.
// This is the source side of a shard handoff. Item values are read-only
// views shared with the source replicas' stores (immutability contract), so
// a handoff moves versions without copying payload bytes.
func (g *Group) snapshotUnion() []store.Item {
	merged := store.New()
	for i := 0; i < g.cluster.N(); i++ {
		id := NodeID(i)
		if !g.cluster.Alive(id) && g.started() {
			continue
		}
		items, err := g.cluster.Snapshot(id)
		if err != nil {
			continue
		}
		merged.ApplySnapshot(items)
	}
	return merged.Snapshot()
}

// Stats sums protocol counters over the group's replicas.
func (g *Group) Stats() node.Stats {
	var total node.Stats
	for i := 0; i < g.cluster.N(); i++ {
		addStats(&total, g.cluster.Stats(NodeID(i)))
	}
	return total
}

// addStats accumulates b into a field-by-field.
func addStats(a *node.Stats, b node.Stats) {
	a.SessionsInitiated += b.SessionsInitiated
	a.SessionsReceived += b.SessionsReceived
	a.EntriesSent += b.EntriesSent
	a.EntriesReceived += b.EntriesReceived
	a.FastOffersSent += b.FastOffersSent
	a.FastPushesSent += b.FastPushesSent
	a.FastOffersReceived += b.FastOffersReceived
	a.FastOffersAccepted += b.FastOffersAccepted
	a.FastOffersDeclined += b.FastOffersDeclined
	a.FastEntriesSent += b.FastEntriesSent
	a.FastEntriesGained += b.FastEntriesGained
	a.GapDrops += b.GapDrops
	a.AdvertsSent += b.AdvertsSent
	a.AdvertPulls += b.AdvertPulls
	a.MessagesHandled += b.MessagesHandled
	a.SnapshotsSent += b.SnapshotsSent
	a.SnapshotsReceived += b.SnapshotsReceived
	a.ClientWrites += b.ClientWrites
	a.EntriesAbsorbed += b.EntriesAbsorbed
	a.DuplicateDrops += b.DuplicateDrops
}
