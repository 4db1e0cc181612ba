package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/wal"
)

// This file implements the third stage of the pipelined durable commit
// protocol: the ordered release stage, the one place a durable replica
// waits on its disk.
//
// Whatever must not leave the replica before the WAL covers it is pushed
// onto the per-replica queue below under the replica lock its gate was
// captured under: the group-commit leader (groupcommit.go) pushes a batch's
// waiters and fan-out, the run loop (handle) entry-carrying envelopes with
// no batch. Neither waits — the WAL's background sync stage retires the
// fsync (wal.StartPipeline) with the lock free and the run loop back in
// recv — and when a sync completes the ack worker releases all it covered
// in one pass: acks in commit order, then one merged fan-out. release is
// the ONLY post-commit tail: a leader with no worker to hand a batch to
// (memory replicas; durable ones before Start or after Stop) calls it.
//
// Invariants the stage preserves:
//
//   - Durable before visible: no client ack, no commit fan-out and no
//     entry-carrying envelope escapes before its covering sync completes.
//   - Order: releases leave in exactly the order they were pushed; batch
//     N+1's acks never precede batch N's.
//   - Fail-stop: if a covering sync fails, NOTHING it covers escapes — the
//     replica is fail-stopped first, waiters failed, envelopes dropped.

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

// ackRelease is one unit waiting for its covering sync: the parked writers
// to complete (none when the run loop is holding gated envelopes), the
// envelopes to send, and the gate that must open first. It captures the
// endpoint of the incarnation that produced it, so a concurrent restart
// swapping r.ep cannot redirect a stale release.
type ackRelease struct {
	batch []*writeReq
	out   []protocol.Envelope
	gate  walGate
	ep    transport.Endpoint
	// start is the commit pickup time (CommitSeconds; zero unless
	// observability or admission needs it); enq the hand-off to the ack
	// worker (AckReleaseSeconds; zero when observability is off). queued is
	// set by push: the ack worker, not the producer, runs this release.
	start  time.Time
	enq    time.Time
	queued bool
}

// maxHeldEnvelopes caps the batch-less releases one queue holds behind a
// slow or stuck disk. Past it push drops and counts the envelopes
// (repro_egress_dropped_total); anti-entropy re-learns what they carried.
const maxHeldEnvelopes = 1024

// ackQueue is the per-replica FIFO between the producers (commit leader,
// run loop) and the ack worker. Releases enter under the replica lock, so
// their gates are monotonic in queue order, and leave in the same order.
// Lock ordering: r.mu may be held while taking q.mu; never the reverse.
type ackQueue struct {
	mu      sync.Mutex
	cond    sync.Cond
	pending []ackRelease
	head    int
	held    int           // batch-less releases pending (≤ maxHeldEnvelopes)
	dropped atomic.Uint64 // batch-less releases refused at the cap
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

// push hands a release to the worker, reporting false when none will serve
// it (not started, or stopping) — the caller must then wait itself. A
// batch-less release past maxHeldEnvelopes is dropped here, not queued.
func (q *ackQueue) push(rel ackRelease) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.running || q.closing {
		return false
	}
	if len(rel.batch) == 0 {
		if q.held >= maxHeldEnvelopes {
			q.dropped.Add(1)
			return true
		}
		q.held++
	}
	rel.queued = true
	q.pending = append(q.pending, rel)
	q.cond.Signal()
	return true
}

// depth returns the number of releases awaiting their covering sync — the
// pipeline's in-flight depth (scrape-time only).
func (q *ackQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending) - q.head
}

// take returns the next release in order. With covered nil it blocks for
// one, reporting ok=false when the queue is stopping and drained. Otherwise
// it never blocks and takes the head only if that WAL's completed syncs
// already cover it — same log (so same incarnation and endpoint), gate at
// or below the durable watermark.
func (q *ackQueue) take(covered *wal.Log) (ackRelease, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for covered == nil && len(q.pending) == q.head && !q.closing {
		q.cond.Wait()
	}
	if len(q.pending) == q.head {
		return ackRelease{}, false
	}
	rel := q.pending[q.head]
	if covered != nil && (rel.gate.wal != covered || rel.gate.rec > covered.Durable()) {
		return ackRelease{}, false
	}
	q.pending[q.head] = ackRelease{}
	q.head++
	if q.head == len(q.pending) {
		q.pending = q.pending[:0]
		q.head = 0
	}
	if len(rel.batch) == 0 {
		q.held--
	}
	return rel, true
}

// ackWorker is the replica's ack-release goroutine: one per durable
// replica, alive from Start to Stop, draining releases in commit order.
func (r *replica) ackWorker() {
	q := &r.ackq
	defer close(q.done)
	for {
		rel, ok := q.take(nil)
		if !ok {
			return
		}
		r.release(&rel)
	}
}

// release is the one post-commit tail, run off the replica lock by the ack
// worker or, with no worker, by the commit leader: wait for the covering
// sync, then ack and send. On the worker one sync releases all it covered
// in a single pass — acks in commit order, then one fan-out with same-peer
// offers and pushed payloads merged, so a burst of small batches costs peers
// one message each.
func (r *replica) release(rel *ackRelease) {
	// A release whose records are already durable at pickup rode an earlier
	// batch's sync (asked only when observability stamped it for the queue).
	coalesced := !rel.enq.IsZero() && rel.gate.wal.Durable() >= rel.gate.rec
	if err := rel.gate.wait(); err != nil {
		// The covering sync failed (or the WAL died first): nothing it
		// covers may escape. Fail-stop the replica FIRST — unless a Kill
		// or another fail-stop already retired this incarnation, in which
		// case the verdict is theirs — and only then fail the waiting
		// clients, so a client that observes the error finds the replica
		// already fully stopped. The envelopes are simply dropped.
		r.mu.Lock()
		if r.dead || r.wal != rel.gate.wal {
			r.mu.Unlock()
		} else {
			r.failStop(err)
		}
		// Whoever retired the incarnation — this fail-stop, a concurrent one
		// or an administrative Kill — the waiters learn it as every later
		// client op at the replica does.
		r.failBatch(rel.batch, r.deadError())
		return
	}
	r.ack(rel, coalesced)
	out := rel.out
	for rel.queued {
		next, ok := r.ackq.take(rel.gate.wal)
		if !ok {
			break
		}
		r.ack(&next, true)
		out = append(out, next.out...)
	}
	if len(out) > len(rel.out) {
		out = mergeOffers(out)
	}
	r.sendAllVia(rel.ep, out)
}

// ack completes a durable batch: wake its writers, observe, fire watches.
// A release holding only envelopes has no batch and nothing to ack.
func (r *replica) ack(rel *ackRelease, coalesced bool) {
	if len(rel.batch) == 0 {
		return
	}
	c := r.cluster
	co := c.opts.obs
	r.observeSojourn(co, rel.batch[0].arrival)
	for _, req := range rel.batch {
		req.done <- struct{}{}
	}
	if co != nil {
		co.WritesAcked.Add(uint64(len(rel.batch)))
		co.WriteBatches.Inc()
		co.BatchSize.Observe(float64(len(rel.batch)))
		co.CommitSeconds.Observe(time.Since(rel.start).Seconds())
		if rel.queued {
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
	r.wq.recycle(rel.batch)
}

// mergeOffers folds, in place, the fast-update envelopes of one kind —
// FastOffers, or FastPayloads — bound for the same peer at the same hop
// count into the first of them: their ids or entries concatenated in
// release order, and the newest demand. Every other envelope, and the
// relative order, is kept. Any FastPayload is folded, pushed at commit or
// answering a YES from handle: pushes alone stay in (origin, seq) order
// (release order is commit order), a reply folded among them may not, and
// the receiver's absorb sorts what arrives unsorted.
func mergeOffers(envs []protocol.Envelope) []protocol.Envelope {
	type dest struct {
		to      transport.NodeID
		hops    uint32
		payload bool
	}
	first := make(map[dest]int)
	out := envs[:0]
	for _, env := range envs {
		// A fan-out's envelopes share one slice: copy, never grow it.
		switch m := env.Msg.(type) {
		case protocol.FastOffer:
			k := dest{env.To, m.Hops, false}
			if i, seen := first[k]; seen {
				p := out[i].Msg.(protocol.FastOffer)
				p.IDs, p.Demand = append(p.IDs[:len(p.IDs):len(p.IDs)], m.IDs...), m.Demand
				out[i].Msg = p
				continue
			}
			first[k] = len(out)
		case protocol.FastPayload:
			k := dest{env.To, m.Hops, true}
			if i, seen := first[k]; seen {
				p := out[i].Msg.(protocol.FastPayload)
				p.Entries, p.Demand = append(p.Entries[:len(p.Entries):len(p.Entries)], m.Entries...), m.Demand
				out[i].Msg = p
				continue
			}
			first[k] = len(out)
		}
		out = append(out, env)
	}
	return out
}

// carriesEntries reports whether any envelope carries write-log entries or
// store content — the envelopes the durability gate must hold until the
// records behind them are on disk, a fast update pushed without an offer
// included. Offers and summaries carry only ids and version vectors; a crash
// after they escape is harmless (the peer simply never receives the payload
// and re-learns through anti-entropy).
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
