package runtime

import (
	"errors"
	"math"
	"sync"
	"syscall"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// This file implements the client-plane write path: group commit.
//
// Concurrent client writes against one replica land in a per-replica
// combining queue. The first writer to find the queue leaderless becomes the
// commit leader: it drains the queue in batches, folds each batch into the
// node under ONE replica-lock acquisition via node.ClientWriteBatch (one
// write-log lock, one merged fast-update fan-out), completes the waiting
// writers, and keeps draining until the queue is empty, at which point
// leadership lapses. Writers that find a leader already installed just park
// on their request's done channel — they never touch the replica lock.
//
// Batches form adaptively: under light load every batch has one write and
// the path degenerates to the old lock-per-write cost; under contention the
// batch size grows toward the number of concurrent writers, amortising the
// replica lock, the log lock, and the fan-out across all of them.

// writeReq is one client write parked in a replica's combining queue.
type writeReq struct {
	key   string
	value []byte

	// arrival stamps when the write entered the queue (UnixNano); release
	// derives the batch head's sojourn — the admission controller's
	// congestion signal — from it. deadline is arrival+WriteDeadline when
	// deadlines are configured (0 otherwise): a request parked past it is
	// shed by the leader before it reaches the node or the WAL.
	arrival  int64
	deadline int64

	// Filled by the commit leader before signalling done. clock is the
	// entry's Lamport clock — the LWW order's major key — carried so the
	// write can hand session clients the full version receipt.
	ts    vclock.Timestamp
	clock uint64
	err   error

	// done is buffered so the leader never blocks completing a request.
	done chan struct{}
}

// writeReqPool recycles requests (and their channels) across writes.
var writeReqPool = sync.Pool{
	New: func() any { return &writeReq{done: make(chan struct{}, 1)} },
}

// writeQueue is the per-replica write-combining ring: pending requests plus
// the leader flag that serialises commit duty.
type writeQueue struct {
	mu      sync.Mutex
	pending []*writeReq
	spare   []*writeReq // recycled batch buffer, swapped with pending
	leader  bool
}

// enqueue parks req, honouring the admission plane's hard bound: ok is
// false (and req is NOT parked) when max writes are already pending. On
// success, leader reports whether the caller must become the commit
// leader (true exactly when no leader was installed). The bound check
// rides the queue mutex the enqueue already takes, so it is exact and
// costs nothing extra.
func (q *writeQueue) enqueue(req *writeReq, max int) (leader, ok bool) {
	q.mu.Lock()
	if len(q.pending) >= max {
		q.mu.Unlock()
		return false, false
	}
	q.pending = append(q.pending, req)
	if !q.leader {
		q.leader = true
		q.mu.Unlock()
		return true, true
	}
	q.mu.Unlock()
	return false, true
}

// take returns the next batch to commit, or nil when the queue is empty — in
// which case leadership lapses and the caller must stop committing. The
// returned batch must be handed back via recycle.
func (q *writeQueue) take() []*writeReq {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		q.leader = false
		return nil
	}
	batch := q.pending
	if q.spare != nil {
		q.pending = q.spare[:0]
		q.spare = nil
	} else {
		q.pending = nil
	}
	return batch
}

// recycle returns a drained batch buffer for reuse, dropping request refs so
// pooled requests are not pinned.
func (q *writeQueue) recycle(batch []*writeReq) {
	for i := range batch {
		batch[i] = nil
	}
	q.mu.Lock()
	if q.spare == nil || cap(batch) > cap(q.spare) {
		q.spare = batch[:0]
	}
	q.mu.Unlock()
}

// maxLeaderStint bounds how many batches one client commits before the duty
// moves off its goroutine: combining must not turn one client's write into
// unbounded work on other clients' behalf (that is pure write-tail latency),
// but leadership cannot lapse while requests are parked. The bound is a
// latency/churn dial: small values spawn background committers more often
// under sustained load; 16 batches is tens of microseconds of donated time,
// far below scheduling noise, while keeping promotions rare.
const maxLeaderStint = 16

// commitLoop is the leader's duty cycle: drain and commit batches until the
// queue goes empty or the stint budget is spent — in which case the backlog
// is promoted to a transient background committer that retires as soon as
// the queue goes idle. A solo writer commits its own batch and leaves
// without ever spawning anything.
func (r *replica) commitLoop(c *Cluster) {
	if r.drain(c, maxLeaderStint) {
		return
	}
	if co := c.opts.obs; co != nil {
		co.LeaderPromotions.Inc()
	}
	go r.drain(c, math.MaxInt)
}

// drain commits up to n batches, reporting whether leadership was released
// (queue observed empty). Leadership stays held across the n-th batch so a
// caller that stops early can hand the backlog to another drainer. It never
// yields or sleeps between batches: parked writers wait on the drainer, so
// any pause here is pure write-tail latency.
func (r *replica) drain(c *Cluster, n int) bool {
	for i := 0; i < n; i++ {
		batch := r.wq.take()
		if batch == nil {
			return true
		}
		r.commitBatch(c, batch)
	}
	return false
}

// commitBatch folds one batch into the node under a single replica-lock
// acquisition and builds the batch's ackRelease — waiters, fan-out, and the
// WAL point that must be durable first — under that same lock. Everything
// after durability is release's job (ackrelease.go), wherever it runs:
//
// With an ack worker running (durable replica, Start to Stop — the steady
// state) the release joins the ordered release stage BEFORE the replica
// lock drops, so releases queue in commit order; the fsync retires in the
// WAL's sync stage with the lock free and several batches in flight.
//
// With no worker to hand it to (memory replicas, whose release is trivially
// durable; durable replicas before Start or after Stop) the leader drops
// the lock and runs release itself — the same wait on the sync stage, the
// same tail, in commit order because leadership is exclusive.
//
// Either way a sync FAILURE fail-stops the replica (see failStop): the
// batch's entries are in the in-memory log but can never reach disk, so
// letting the replica keep serving would leak them to peers and set up a
// reissued-timestamp divergence on the eventual restart. Entry-carrying
// anti-entropy traffic cannot outrun the pipeline: handle queues such
// envelopes on the same stage, behind every batch committed before them.
func (r *replica) commitBatch(c *Cluster, batch []*writeReq) {
	co := c.opts.obs
	a := &r.adm
	var commitStart time.Time
	if co != nil || a.cfg.Target > 0 || a.cfg.WriteDeadline > 0 {
		commitStart = time.Now()
	}
	if a.cfg.WriteDeadline > 0 {
		if batch = r.expireBatch(batch, commitStart.UnixNano()); len(batch) == 0 {
			return
		}
	}
	r.mu.Lock()
	if r.dead {
		r.mu.Unlock()
		r.failBatch(batch, r.deadError())
		return
	}
	ops := r.opsScratch[:0]
	for _, req := range batch {
		ops = append(ops, node.WriteOp{Key: req.key, Value: req.value})
	}
	entries, out := r.node.ClientWriteBatch(c.now(), ops)
	for i, req := range batch {
		req.ts = entries[i].TS
		req.clock = entries[i].Clock
	}
	// The batch is fully applied to the store; advance the applied
	// watermark under the same lock so session reads can trust it.
	r.applied.publish(r.node.Log())
	// Drop the client value refs before stashing the scratch buffer.
	for i := range ops {
		ops[i].Value = nil
	}
	r.opsScratch = ops[:0]
	rel := ackRelease{batch: batch, out: out, ep: r.ep, start: commitStart}
	if r.wal != nil {
		// A dead log (sticky error, or closed by a crash simulation)
		// rejects journal appends without advancing Records, so the
		// watermark below would be vacuously durable. Health-check first:
		// the batch's entries are in memory but can never reach disk —
		// the fail-stop case, exactly as if the covering sync had failed.
		if err := r.wal.Err(); err != nil {
			r.failStop(err)
			r.failBatch(batch, r.deadError())
			return
		}
		rel.gate = r.durabilityGate()
		if co != nil {
			rel.enq = time.Now()
		}
		if r.ackq.push(rel) {
			r.mu.Unlock()
			return
		}
	}
	r.mu.Unlock()
	r.release(&rel)
}

// failBatch completes every waiter of a batch that will never be
// acknowledged with err, and hands the batch buffer back. When a fail-stop
// is the reason, the caller runs failStop FIRST, so a client that observes
// the error finds the replica already fully stopped.
func (r *replica) failBatch(batch []*writeReq, err error) {
	if co := r.cluster.opts.obs; co != nil {
		co.WriteErrors.Add(uint64(len(batch)))
	}
	for _, req := range batch {
		req.err = err
		req.done <- struct{}{}
	}
	r.wq.recycle(batch)
}

// observeSojourn feeds one acked batch's head sojourn — arrival to ack,
// the queue wait plus commit plus the covering sync — into the admission
// controller and the sojourn histogram. Sojourn is measured at the ack
// point, not at commit pickup, because the pipelined commit drains the
// combining queue at memory speed: under a flood or a slow disk the
// backlog stands between commit and durable ack, and pickup-time sojourn
// would report an idle queue while clients wait unboundedly. Must be
// called BEFORE the batch's done channels fire: a completed request
// returns to the pool immediately.
func (r *replica) observeSojourn(co *obs.ClusterObs, arrival int64) {
	a := &r.adm
	if a.cfg.Target <= 0 && co == nil {
		return
	}
	now := time.Now().UnixNano()
	sojourn := time.Duration(now - arrival)
	a.observe(now, sojourn)
	if co != nil {
		co.SojournSeconds.Observe(sojourn.Seconds())
	}
}

// expireBatch sheds every request whose deadline lapsed while parked,
// completing it with a deadline Rejection BEFORE any of the batch
// reaches the node or the WAL — an expired write is visibly rejected,
// never partially applied. It returns the live remainder in arrival
// order (so ops still align with the entries ClientWriteBatch returns)
// and recycles the buffer itself when nothing survives.
func (r *replica) expireBatch(batch []*writeReq, now int64) []*writeReq {
	live := batch[:0]
	for _, req := range batch {
		if req.deadline != 0 && now > req.deadline {
			req.err = r.shed(ShedDeadline)
			req.done <- struct{}{}
			continue
		}
		live = append(live, req)
	}
	// The in-place filter leaves stale refs past len(live); clear them so
	// recycle's spare buffer never pins pooled requests.
	for i := len(live); i < len(batch); i++ {
		batch[i] = nil
	}
	if len(live) == 0 {
		r.wq.recycle(live)
	}
	return live
}

// failStop crashes a durable replica whose WAL can no longer persist
// writes (disk full, IO error): the store pointer is retracted so reads
// fail, the endpoint closes so nothing already buffered escapes and peers
// mark it unreachable, the run goroutine is cancelled AND waited for
// (matching Kill — restart paths may run the moment dead is observed, and
// the old incarnation must not still be touching r.ep/r.wal), and the WAL
// is abandoned. The in-memory log may hold entries that never reached
// disk — the whole point is that no peer ever sees them, so
// RestartFromDisk later revives the identity from the synced prefix
// without timestamp reuse. Called with r.mu held; returns with it
// released.
func (r *replica) failStop(cause error) {
	r.dead = true
	// Publish the cause before any client can observe the dead state, so
	// every subsequent rejection carries the fail-stop reason (clients
	// distinguish shed-and-retry from gone-for-good).
	r.failCause.Store(&Rejection{Kind: KindFailStop, Replica: r.id, Reason: failStopReason(cause), Cause: cause})
	r.store.Store(nil)
	id := r.node.ID()
	cancel, done, ep, w := r.cancel, r.done, r.ep, r.wal
	r.mu.Unlock()
	ep.Close()
	if cancel != nil {
		cancel()
	}
	if done != nil {
		// The run goroutine takes r.mu (released above) to finish any
		// in-flight envelope, then exits on the cancelled context.
		<-done
	}
	if w != nil {
		w.Abandon()
	}
	if co := r.cluster.opts.obs; co != nil {
		co.Reg.Counter("repro_replica_failstop_total", failStopHelp,
			co.With(obs.L("replica", id.String()), obs.L("reason", failStopReason(cause)))...).Inc()
	}
}

// failStopHelp is shared between the eager family registration (obs.go) and
// the fail-stop increment so both resolve to the same series.
const failStopHelp = "Durable replicas fail-stopped because their WAL could no longer persist writes, by reason."

// failStopReason buckets a fail-stop cause for the metric's reason label:
// operators react differently to a full disk (free space, restart) than to
// a dying one (replace it).
func failStopReason(err error) string {
	if errors.Is(err, syscall.ENOSPC) {
		return "disk-full"
	}
	return "io-error"
}
