package runtime

import (
	"sync"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/wal"
)

// This file implements the third stage of the pipelined durable commit
// protocol: ordered ack release.
//
// The group-commit leader (groupcommit.go) appends and publishes a batch
// under the replica lock, then hands the batch to this stage. The WAL's
// background sync stage (wal.StartPipeline) retires the fsync outside the
// lock, and the per-replica ack worker below releases client acks strictly
// in batch order once each batch's covering sync completes
// (wal.WaitDurable). The replica lock is free during the disk wait, so the
// next batches append and publish while earlier ones are still syncing —
// multiple batches in flight, one fsync shared by all of them when the
// disk is the bottleneck. release is also the ONLY post-commit tail: a
// leader with no worker to hand a batch to (memory replicas; durable ones
// before Start or after Stop) calls it directly.
//
// Invariants the stage preserves:
//
//   - Durable before visible, per session: no client ack and no commit
//     fan-out escapes before the batch's covering sync completes.
//   - Order: acks release in exactly the order batches committed; batch
//     N+1's acks never precede batch N's.
//   - Fail-stop: if a covering sync fails, NO ack it covers escapes — the
//     replica is fail-stopped first and the batch's waiters are failed.

// walGate is the durability gate: a replica's WAL and the index of its
// newest record, captured under r.mu together with whatever is about to
// leave the replica (acks, entry-carrying envelopes, a store image), so
// that wait — called after r.mu drops — returns once every record behind
// that state is on disk. The zero gate (memory replicas) is open. Holding
// the incarnation's own wal also means a concurrent Kill/restart swapping
// r.wal cannot redirect a stale wait.
type walGate struct {
	wal *wal.Log
	rec uint64
}

// durabilityGate captures the gate for the replica's current state. Called
// with r.mu held.
func (r *replica) durabilityGate() walGate {
	if r.wal == nil {
		return walGate{}
	}
	return walGate{wal: r.wal, rec: r.wal.Records()}
}

// wait blocks until the gate's records are durable, or reports why they
// never will be (sticky WAL error, or the log closed first).
func (g walGate) wait() error {
	if g.wal == nil {
		return nil
	}
	return g.wal.WaitDurable(g.rec)
}

// ackRelease is one committed batch waiting for its covering sync: the
// parked writers to complete, the fan-out to send, and the gate that must
// open first. It captures the endpoint of the incarnation that committed
// it, so a concurrent restart swapping r.ep cannot redirect a stale
// release.
type ackRelease struct {
	batch []*writeReq
	out   []protocol.Envelope
	gate  walGate
	ep    transport.Endpoint
	// start is the commit pickup time (CommitSeconds; zero unless
	// observability or admission needs it); enq the hand-off to the ack
	// worker (AckReleaseSeconds; zero when observability is off or the
	// release was never queued).
	start time.Time
	enq   time.Time
}

// ackQueue is the per-replica FIFO between the commit leader and the ack
// worker. Releases enter in commit order (the leader is exclusive) and
// leave in the same order. Lock ordering: r.mu may be held while taking
// q.mu (the leader pushes under the replica lock); never the reverse.
type ackQueue struct {
	mu      sync.Mutex
	cond    sync.Cond
	pending []ackRelease
	head    int
	running bool
	closing bool
	done    chan struct{}
}

// start launches the worker. Called from Cluster.Start for durable
// replicas; before it runs (or after stop), the leader's push fails and
// the leader runs release itself.
func (q *ackQueue) start(r *replica) {
	q.mu.Lock()
	if q.running {
		q.mu.Unlock()
		return
	}
	q.cond.L = &q.mu
	q.running = true
	q.closing = false
	q.done = make(chan struct{})
	q.mu.Unlock()
	go r.ackWorker()
}

// stop drains the queue — every pending release still completes, so no
// client is left parked — then retires the worker.
func (q *ackQueue) stop() {
	q.mu.Lock()
	if !q.running {
		q.mu.Unlock()
		return
	}
	q.closing = true
	q.cond.Broadcast()
	done := q.done
	q.mu.Unlock()
	<-done
	q.mu.Lock()
	q.running = false
	q.mu.Unlock()
}

// push enqueues a release, reporting false when no worker will serve it
// (not started, or stopping) — the caller must then run release itself.
func (q *ackQueue) push(rel ackRelease) bool {
	q.mu.Lock()
	if !q.running || q.closing {
		q.mu.Unlock()
		return false
	}
	q.pending = append(q.pending, rel)
	q.cond.Signal()
	q.mu.Unlock()
	return true
}

// depth returns the number of batches awaiting their covering sync — the
// pipeline's in-flight depth (scrape-time only).
func (q *ackQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending) - q.head
}

// take blocks for the next release in order, reporting ok=false when the
// queue is stopping and drained.
func (q *ackQueue) take() (ackRelease, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.pending)-q.head == 0 && !q.closing {
		q.cond.Wait()
	}
	if len(q.pending)-q.head == 0 {
		return ackRelease{}, false
	}
	rel := q.pending[q.head]
	q.pending[q.head] = ackRelease{}
	q.head++
	if q.head == len(q.pending) {
		q.pending = q.pending[:0]
		q.head = 0
	}
	return rel, true
}

// ackWorker is the replica's ack-release goroutine: one per durable
// replica, alive from Start to Stop, draining releases in commit order.
func (r *replica) ackWorker() {
	q := &r.ackq
	defer close(q.done)
	for {
		rel, ok := q.take()
		if !ok {
			return
		}
		r.release(&rel)
	}
}

// release completes one batch: wait for the covering sync, then ack,
// observe, fire watches, and send the batch's fan-out — the one post-commit
// tail, run off the replica lock by the ack worker or, with no worker, by
// the commit leader.
func (r *replica) release(rel *ackRelease) {
	c := r.cluster
	co := c.opts.obs
	// A queued release whose records are already durable at pickup rode an
	// earlier batch's sync.
	queued := !rel.enq.IsZero()
	coalesced := queued && rel.gate.wal.Durable() >= rel.gate.rec
	if err := rel.gate.wait(); err != nil {
		// The covering sync failed (or the WAL died first): no ack it
		// covers may escape. Fail-stop the replica FIRST — unless a Kill
		// or another fail-stop already retired this incarnation, in which
		// case the verdict is theirs — and only then fail the waiting
		// clients, so a client that observes the error finds the replica
		// already fully stopped.
		r.mu.Lock()
		if r.dead || r.wal != rel.gate.wal {
			r.mu.Unlock()
		} else {
			r.failStop(err)
		}
		// When a fail-stop (ours or a concurrent one) retired the replica,
		// reject with the typed fail-stop error so clients learn the
		// reason; an administrative Kill keeps the raw sync error.
		if r.failCause.Load() != nil {
			err = r.deadError()
		}
		r.failBatch(rel.batch, err)
		return
	}
	r.observeSojourn(co, rel.batch[0].arrival)
	for _, req := range rel.batch {
		req.done <- struct{}{}
	}
	if co != nil {
		co.WritesAcked.Add(uint64(len(rel.batch)))
		co.WriteBatches.Inc()
		co.BatchSize.Observe(float64(len(rel.batch)))
		co.CommitSeconds.Observe(time.Since(rel.start).Seconds())
		if queued {
			// The ack stage's own latency and sync sharing: only releases
			// that waited in the worker's queue have either.
			co.AckReleaseSeconds.Observe(time.Since(rel.enq).Seconds())
			if coalesced {
				co.CoalescedSyncs.Inc()
			}
		}
		c.goodput.RecordN(time.Now(), len(rel.batch))
	}
	c.checkWatches(r.id)
	r.sendAllVia(rel.ep, rel.out)
	r.wq.recycle(rel.batch)
}

// carriesEntries reports whether any envelope carries write-log entries or
// store content — the envelopes the durability gate must hold until the
// records behind them are on disk. Offers and summaries carry only ids and
// version vectors; a crash after they escape is harmless (the peer simply
// never receives the payload and re-learns through anti-entropy).
func carriesEntries(envs []protocol.Envelope) bool {
	for _, env := range envs {
		switch m := env.Msg.(type) {
		case protocol.UpdateBatch:
			if len(m.Entries) > 0 {
				return true
			}
		case protocol.FastPayload:
			if len(m.Entries) > 0 {
				return true
			}
		case protocol.Snapshot:
			return true
		}
	}
	return false
}
