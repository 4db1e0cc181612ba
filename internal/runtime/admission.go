package runtime

import (
	"math"
	"sync/atomic"
	"time"
)

// This file implements the client-plane overload policy: a bounded
// write-combining queue plus a CoDel-style admission controller.
//
// Without a policy, a flash crowd (or a slow disk backing the WAL) turns
// the per-replica combining queue into unbounded growth: every parked
// write pins memory, sojourn time climbs without limit, and the replica
// eventually serves nobody. The controller keeps the replica useful under
// overload by shedding NEW writes instead — a shed write is rejected with
// a *Rejection matching ErrOverload before it reaches the node or the
// WAL, so it is visibly failed (never silently lost) and the durability
// invariants are untouched: only acknowledged writes ever enter the write
// log.
//
// The controller is CoDel-shaped (Nichols & Jacobson): it watches
// sojourn time — how long the oldest request of each acked batch waited
// from arrival to ack, queue wait plus commit plus the covering fsync —
// rather than queue length, because length conflates a fast burst the
// group commit absorbs in one batch with a standing backlog the disk
// cannot drain. (The pipelined commit drains the combining queue at
// memory speed, so under overload the backlog stands between commit and
// durable ack; the ack point is the only place the real delay is
// visible.) Sojourn continuously above Target for a full
// Interval flips the replica into an overloaded state in which arrivals
// are shed on a schedule that tightens with each shed
// (interval/sqrt(drops), the CoDel control law); one batch observed back
// under Target exits the state. A hard queue bound backstops the
// controller: past MaxQueueDepth parked writes, arrivals shed
// unconditionally.
//
// All controller state is atomic. The accept fast path — the only path
// unshedded traffic ever sees — is two atomic loads and zero
// allocations; the shed paths allocate only the error they return.

// The Reason values of a KindOverload Rejection, one per admission decision
// point.
const (
	// ShedQueueFull: the combining queue hit MaxQueueDepth.
	ShedQueueFull = "queue-full"
	// ShedSojourn: the CoDel controller is shedding because queue sojourn
	// stayed above target.
	ShedSojourn = "sojourn"
	// ShedDeadline: the write's deadline expired while it was parked.
	ShedDeadline = "deadline"
)

// AdmissionConfig bounds a replica's write-combining queue and tunes the
// CoDel-style admission controller. The zero value (normalised by
// WithAdmission) enables the controller with its defaults; set Target
// negative for a bounded queue with the controller off.
type AdmissionConfig struct {
	// MaxQueueDepth is the hard bound on writes parked in the combining
	// queue; arrivals past it shed unconditionally. <= 0 selects 4096.
	MaxQueueDepth int
	// Target is the acceptable write sojourn time — arrival to durable
	// ack. Sojourn continuously above it for Interval engages shedding.
	// 0 selects 5ms; negative disables the sojourn controller entirely
	// (bound and deadline still apply).
	Target time.Duration
	// Interval is the controller's observation window: how long sojourn
	// must stay above Target before shedding starts, and the base period
	// of the shed schedule once it does. <= 0 selects 100ms.
	Interval time.Duration
	// WriteDeadline, when positive, stamps every write with
	// arrival+WriteDeadline; writes still parked past it are shed by the
	// commit leader before they reach the node or the WAL.
	WriteDeadline time.Duration
}

// normalized fills defaults and canonicalises "off" values.
func (cfg AdmissionConfig) normalized() AdmissionConfig {
	if cfg.MaxQueueDepth <= 0 {
		cfg.MaxQueueDepth = 4096
	}
	if cfg.Target == 0 {
		cfg.Target = 5 * time.Millisecond
	}
	if cfg.Target < 0 {
		cfg.Target = 0 // controller off
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.WriteDeadline < 0 {
		cfg.WriteDeadline = 0
	}
	return cfg
}

// WithAdmission enables the overload-admission plane with cfg (normalised
// per the field docs). Clusters built without this option still get a
// bounded combining queue (depth 4096) but no sojourn controller and no
// deadlines — closed-loop callers cannot outrun the bound, so the default
// behaviour of existing deployments is unchanged.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(o *options) { o.admission = cfg.normalized() }
}

// admission is one replica's controller state. Everything is atomic: the
// write path consults it lock-free before touching the queue, and the
// commit leader feeds observations back without extending its lock hold.
type admission struct {
	cfg AdmissionConfig

	// overloaded is the controller state: while set, arrivals shed on the
	// drop schedule below. Read by the write fast path and by the shard
	// router's health probe.
	overloaded atomic.Bool
	// firstAbove is when sojourn was first observed above target
	// (UnixNano), 0 while below. Sojourn must stay above target from
	// firstAbove through a full interval to engage shedding.
	firstAbove atomic.Int64
	// dropNext schedules the next shed (UnixNano) while overloaded;
	// dropCount escalates the schedule (interval/sqrt(count)).
	dropNext  atomic.Int64
	dropCount atomic.Int64
	// lastSojourn is the most recent observed batch sojourn in
	// nanoseconds — the basis of the retry-after hint.
	lastSojourn atomic.Int64

	// Shed totals by reason, kept independently of the observability
	// plane so health probes and tests see them on bare clusters.
	shedQueueFull atomic.Uint64
	shedSojourn   atomic.Uint64
	shedDeadline  atomic.Uint64
}

// shouldShed is the pre-enqueue admission decision for one arrival at
// time now (UnixNano). The not-overloaded fast path is one atomic load.
// While overloaded it sheds per the CoDel control law: one write at
// dropNext, then again interval/sqrt(drops) later, tightening as the
// overload persists. Concurrent arrivals racing one scheduled drop may
// shed more than one write; under a standing overload that only hastens
// relief, so the race is left benign rather than paid for with a lock.
func (a *admission) shouldShed(now int64) bool {
	if !a.overloaded.Load() {
		return false
	}
	next := a.dropNext.Load()
	if now < next {
		return false
	}
	n := a.dropCount.Add(1)
	a.dropNext.CompareAndSwap(next, now+int64(float64(a.cfg.Interval)/math.Sqrt(float64(n))))
	return true
}

// observe feeds one batch's sojourn (the oldest request's arrival-to-ack
// delay, measured at the ack point) into the controller. A single batch
// back under target exits the overloaded state: group commit acks in
// large batches, so one healthy release is strong evidence the standing
// backlog is gone.
func (a *admission) observe(now int64, sojourn time.Duration) {
	a.lastSojourn.Store(int64(sojourn))
	if a.cfg.Target <= 0 {
		return
	}
	if sojourn < a.cfg.Target {
		a.firstAbove.Store(0)
		if a.overloaded.Load() {
			a.overloaded.Store(false)
			a.dropCount.Store(0)
		}
		return
	}
	first := a.firstAbove.Load()
	if first == 0 {
		a.firstAbove.CompareAndSwap(0, now)
		return
	}
	if now-first >= int64(a.cfg.Interval) && !a.overloaded.Load() {
		a.dropCount.Store(1)
		a.dropNext.Store(now)
		a.overloaded.Store(true)
	}
}

// retryAfter derives the backoff hint from the last observed sojourn,
// clamped to [1ms, 1s]: the backlog's own drain time is the best
// available estimate of when capacity returns.
func (a *admission) retryAfter() time.Duration {
	return clampRetry(time.Duration(a.lastSojourn.Load()))
}

// shedTotal sums shed writes across reasons.
func (a *admission) shedTotal() uint64 {
	return a.shedQueueFull.Load() + a.shedSojourn.Load() + a.shedDeadline.Load()
}

// shed records one shed write (reason counters plus the observability
// plane's counters when attached) and builds the client's rejection.
func (r *replica) shed(reason string) *Rejection {
	a := &r.adm
	co := r.cluster.opts.obs
	switch reason {
	case ShedQueueFull:
		a.shedQueueFull.Add(1)
		if co != nil {
			co.ShedQueueFull.Inc()
		}
	case ShedSojourn:
		a.shedSojourn.Add(1)
		if co != nil {
			co.ShedSojourn.Inc()
		}
	case ShedDeadline:
		a.shedDeadline.Add(1)
		if co != nil {
			co.ShedDeadline.Inc()
		}
	}
	return &Rejection{Kind: KindOverload, Replica: r.id, Reason: reason, RetryAfter: a.retryAfter()}
}

// ReplicaHealth is a snapshot of one replica's client-plane health — the
// signal the shard router uses to route away from saturated or dead
// replicas. Every field is captured without the replica lock (the queue
// depth takes the queue mutex briefly, as the metrics poll does).
type ReplicaHealth struct {
	// Serving reports whether the replica accepts client operations.
	Serving bool
	// Overloaded reports whether the admission controller is currently
	// shedding.
	Overloaded bool
	// QueueDepth is the number of parked client writes.
	QueueDepth int
	// LastSojourn is the arrival-to-ack sojourn of the most recently
	// acked batch's oldest write.
	LastSojourn time.Duration
	// Shed is the total writes shed since construction, all reasons.
	Shed uint64
	// FailReason is the fail-stop bucket ("disk-full", "io-error") when
	// the replica fail-stopped, "" otherwise.
	FailReason string
}

// Overloaded reports whether replica id's admission controller is
// currently shedding — one atomic load, safe on any client path.
func (c *Cluster) Overloaded(id NodeID) bool {
	if int(id) < 0 || int(id) >= len(c.replicas) {
		return false
	}
	return c.replicas[id].adm.overloaded.Load()
}

// Health snapshots replica id's client-plane health.
func (c *Cluster) Health(id NodeID) ReplicaHealth {
	if int(id) < 0 || int(id) >= len(c.replicas) {
		return ReplicaHealth{}
	}
	r := c.replicas[id]
	h := ReplicaHealth{
		Serving:     r.store.Load() != nil,
		Overloaded:  r.adm.overloaded.Load(),
		QueueDepth:  r.wq.depth(),
		LastSojourn: time.Duration(r.adm.lastSojourn.Load()),
		Shed:        r.adm.shedTotal(),
	}
	if rej := r.failCause.Load(); rej != nil {
		h.FailReason = rej.Reason
	}
	return h
}
