package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/demand"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/wal"
	"repro/internal/wlog"
)

// Tests for the pipelined durable commit protocol at the cluster level:
// ordered ack release across in-flight batches, and fail-stop before any
// ack covered by a failed sync can escape. The wal-level pipeline tests
// (internal/wal/pipeline_test.go) prove the sync stage; these prove the
// replica's ack-release stage on top of it.

// TestPipelineOrderedAckRelease pins the ordering invariant: with batch
// N's covering sync stalled on a slow disk, batch N+1's ack must not be
// released before batch N's — acks leave in exactly commit order, even
// though the replica lock is free and batch N+1 commits while N still
// waits on the disk.
func TestPipelineOrderedAckRelease(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 16)
	reg := obs.NewRegistry()
	c := durableCluster(t, 2, dir, WithDurabilityFS(ffs), WithObs(obs.NewClusterObs(reg, 2)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Warm up so segment creation is off the measured path.
	if _, err := c.Write(0, "warm", []byte("up")); err != nil {
		t.Fatal(err)
	}

	const stall = 60 * time.Millisecond
	ffs.SetSyncDelay(replicaScope(0), stall, 0, 0)

	var firstAcked atomic.Bool
	var orderViolated atomic.Bool
	firstDone := make(chan error, 1)
	go func() {
		_, err := c.Write(0, "first", []byte("batch-N"))
		firstAcked.Store(true)
		firstDone <- err
	}()
	// Let the first write commit and park on its stalled sync, so the
	// second write forms its own later batch.
	time.Sleep(15 * time.Millisecond)
	secondStart := time.Now()
	if _, err := c.Write(0, "second", []byte("batch-N+1")); err != nil {
		t.Fatalf("second write failed: %v", err)
	}
	if !firstAcked.Load() {
		orderViolated.Store(true)
	}
	secondTook := time.Since(secondStart)
	if err := <-firstDone; err != nil {
		t.Fatalf("first write failed: %v", err)
	}
	if orderViolated.Load() {
		t.Fatal("batch N+1 acked before batch N — ack release is out of order")
	}
	// The second batch needed its own covering sync, serialized after the
	// first one's; with a 60ms stall per fsync its ack cannot have
	// released before the first sync completed.
	if secondTook < stall {
		t.Fatalf("second ack released in %v — before batch N's %v sync stall completed", secondTook, stall)
	}
	if v, ok, err := c.Read(0, "first"); err != nil || !ok || string(v) != "batch-N" {
		t.Fatalf("first write not visible after ack: %q %v %v", v, ok, err)
	}
	if v, ok, err := c.Read(0, "second"); err != nil || !ok || string(v) != "batch-N+1" {
		t.Fatalf("second write not visible after ack: %q %v %v", v, ok, err)
	}
	if got := reg.Total("repro_replica_failstop_total"); got != 0 {
		t.Fatalf("slow disk fail-stopped a replica (%v fail-stops)", got)
	}
	if got := reg.Total("repro_wal_pipeline_syncs_total"); got < 1 {
		t.Fatalf("repro_wal_pipeline_syncs_total = %v — the background sync stage never ran", got)
	}
}

// TestPipelineFailStopBeforeCoveredAckEscapes pins the fail-stop
// invariant under a backed-up pipeline: the disk stalls, several batches
// pile up in flight, then the disk dies mid-stream. Every write whose
// covering sync failed must return an error — never an ack — and the
// client observing that error must find the replica already fully
// stopped. After a power cut and disk recovery, exactly the acked writes
// are readable.
func TestPipelineFailStopBeforeCoveredAckEscapes(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 17)
	reg := obs.NewRegistry()
	c := durableCluster(t, 2, dir, WithDurabilityFS(ffs), WithObs(obs.NewClusterObs(reg, 2)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	if _, err := c.Write(0, "good", []byte("synced")); err != nil {
		t.Fatal(err)
	}

	// Back up the pipeline, stagger writes into it, then kill the disk
	// while batches are still in flight.
	ffs.SetSyncDelay(replicaScope(0), 40*time.Millisecond, 0, 0)
	const writers = 8
	type result struct {
		key          string
		err          error
		deadOnReturn bool
	}
	results := make([]result, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 5 * time.Millisecond)
			key := fmt.Sprintf("inflight%02d", i)
			_, err := c.Write(0, key, []byte("pipelined"))
			dead := false
			if err != nil {
				// The error must find the replica already fail-stopped:
				// store retracted, reads failing.
				_, _, rerr := c.Read(0, "good")
				dead = rerr != nil
			}
			results[i] = result{key: key, err: err, deadOnReturn: dead}
		}()
	}
	time.Sleep(12 * time.Millisecond)
	ffs.FailSyncs(replicaScope(0))
	wg.Wait()

	var failed int
	for _, res := range results {
		if res.err == nil {
			continue
		}
		failed++
		if !res.deadOnReturn {
			t.Fatalf("write %s errored but the replica was still serving reads — ack escaped before fail-stop", res.key)
		}
	}
	if failed == 0 {
		t.Fatal("no write failed despite the disk dying mid-pipeline")
	}
	if got := reg.Total("repro_replica_failstop_total"); got != 1 {
		t.Fatalf("repro_replica_failstop_total = %v, want exactly 1", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `reason="io-error"`) {
		t.Fatal("fail-stop not labelled reason=io-error")
	}

	// The egress gate must have held every non-durable entry: a write that
	// errored was never covered by a completed sync, so it may not have
	// leaked to the peer replica through fan-out or anti-entropy.
	for _, res := range results {
		if res.err == nil {
			continue
		}
		if _, ok, err := c.Read(1, res.key); err != nil {
			t.Fatal(err)
		} else if ok {
			t.Fatalf("non-durable write %s leaked to a peer before the fail-stop", res.key)
		}
	}

	// Power cut on the dead disk, then replace it: recovery must serve
	// every acked write (errored writes are indeterminate — the cut drops
	// an arbitrary suffix of the unsynced tail, so they may or may not
	// replay, but their clients were told "error", never "ack").
	ffs.Cut(replicaScope(0))
	ffs.Heal(replicaScope(0))
	if err := c.RestartFromDisk(0); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Read(0, "good"); err != nil || !ok || string(v) != "synced" {
		t.Fatalf("acked write lost: %q %v %v", v, ok, err)
	}
	for _, res := range results {
		if res.err != nil {
			continue
		}
		v, ok, err := c.Read(0, res.key)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != "pipelined" {
			t.Fatalf("acked write %s lost to the fail-stop: ok=%v v=%q", res.key, ok, v)
		}
	}
}

// The queued path of the release stage. In these tests replica 1's run loop
// is stopped and the test plays replica 1 by hand on its own endpoint, so it
// sees exactly what replica 0 sends, and when, without a second state
// machine answering underneath it.

// heldPeer is the test standing in for replica 1 while replica 0 commits a
// write behind a slow (or dying) sync.
type heldPeer struct {
	t    *testing.T
	c    *Cluster
	ffs  *vfs.FaultFS
	reg  *obs.Registry
	ep   transport.Endpoint
	wal  *wal.Log   // replica 0's WAL, this incarnation
	need uint64     // the record that must be durable before "held" may leave
	done chan error // the held write's verdict
	// started is just before replica 0's run loop (and its maintenance
	// ticker) started.
	started time.Time
}

// heldStall outlasts a WAL maintenance interval, so a tick always lands
// while the held write's sync is still in flight.
const heldStall = walMaintenanceInterval + 150*time.Millisecond

// startHeld starts a 2-replica durable cluster, takes over replica 1, and
// parks the write "held" at replica 0 behind a heldStall sync (which fails
// when failSync is set). It then asks replica 0, as a session partner, for
// everything it has: the reply carries "held", so the egress gate holds it.
// It returns once that reply sits in the release stage's queue.
func startHeld(t *testing.T, failSync bool) *heldPeer {
	t.Helper()
	ffs := vfs.NewFaultFS(vfs.OS, 23)
	reg := obs.NewRegistry()
	// Hour-long timers: replica 0 says only what the test asks it to.
	c := durableCluster(t, 2, t.TempDir(), WithDurabilityFS(ffs), WithObs(obs.NewClusterObs(reg, 2)),
		WithSessionInterval(time.Hour), WithAdvertInterval(time.Hour))
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	started := time.Now()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	p := &heldPeer{t: t, c: c, ffs: ffs, reg: reg, ep: c.net.Attach(1), done: make(chan error, 1), started: started}
	if _, err := c.Write(0, "warm", []byte("up")); err != nil {
		t.Fatal(err)
	}
	r := c.replicas[0]
	r.mu.Lock()
	p.wal = r.wal
	r.mu.Unlock()
	ffs.SetSyncDelay(replicaScope(0), heldStall, 0, 0)
	if failSync {
		ffs.FailSyncs(replicaScope(0))
	}
	before := p.wal.Records()
	go func() {
		_, err := c.Write(0, "held", []byte("not yet durable"))
		p.done <- err
	}()
	p.until("the held write to be journaled", func() bool { return p.wal.Records() > before })
	p.need = p.wal.Records()
	p.send(protocol.SummaryMsg{SessionID: 1 << 40, Summary: vclock.NewSummary()})
	p.until("the gated reply to queue behind the batch the worker is waiting on", func() bool { return r.ackq.depth() >= 1 })
	return p
}

func (p *heldPeer) until(what string, cond func() bool) {
	p.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			p.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func (p *heldPeer) send(m protocol.Message) {
	p.t.Helper()
	if err := p.ep.Send(protocol.Envelope{From: 1, To: 0, Msg: m}); err != nil {
		p.t.Fatal(err)
	}
}

// carriesHeld reports whether env carries the held write's entry.
func carriesHeld(env protocol.Envelope) bool {
	var entries []wlog.Entry
	switch m := env.Msg.(type) {
	case protocol.UpdateBatch:
		entries = m.Entries
	case protocol.FastPayload:
		entries = m.Entries
	case protocol.Snapshot:
		for _, it := range m.Items {
			if it.Key == "held" {
				return true
			}
		}
	}
	for _, e := range entries {
		if e.Key == "held" {
			return true
		}
	}
	return false
}

// next returns the next envelope replica 0 sends that want accepts, failing
// the test on a leak: the held entry observed before its record is durable.
func (p *heldPeer) next(within time.Duration, want func(protocol.Envelope) bool) (protocol.Envelope, bool) {
	p.t.Helper()
	timeout := time.After(within)
	for {
		select {
		case env := <-p.ep.Recv():
			if carriesHeld(env) && p.wal.Durable() < p.need {
				p.t.Fatalf("leak: %v carries the held entry with durable=%d < record %d", env, p.wal.Durable(), p.need)
			}
			if want(env) {
				return env, true
			}
		case <-timeout:
			return protocol.Envelope{}, false
		}
	}
}

// TestReleaseStageKeepsRunLoopResponsive: with an entry-carrying reply held
// behind a slow sync, replica 0 still answers a session request and a fast
// offer at once — before the disk covers the held record, so the run loop
// cannot have waited for it — and again after a WAL maintenance tick has
// fired under the same stalled sync (the tick checks health and never
// flushes, so it cannot have waited either). The held reply leaves only
// afterwards.
func TestReleaseStageKeepsRunLoopResponsive(t *testing.T) {
	p := startHeld(t, false)
	// answers waits for replica 0 to answer what was just sent, with the
	// held record still not durable.
	answers := func(want ...string) {
		t.Helper()
		missing := make(map[string]bool, len(want))
		for _, w := range want {
			missing[w] = true
		}
		for len(missing) > 0 {
			env, ok := p.next(5*time.Second, func(env protocol.Envelope) bool {
				return missing[fmt.Sprintf("%T", env.Msg)] || carriesHeld(env)
			})
			if !ok {
				t.Fatalf("replica 0 never answered %v while a gated reply was pending", want)
			}
			if carriesHeld(env) {
				t.Fatal("the gated reply overtook requests handled after it: the run loop waited on the disk")
			}
			if d := p.wal.Durable(); d >= p.need {
				t.Fatalf("answer arrived only after the held record was durable (%d >= %d): the run loop waited on the disk", d, p.need)
			}
			delete(missing, fmt.Sprintf("%T", env.Msg))
		}
	}
	p.send(protocol.SessionRequest{SessionID: 2 << 40})
	p.send(protocol.FastOffer{IDs: []vclock.Timestamp{{Node: 1, Seq: 999}}})
	answers("protocol.SummaryMsg", "protocol.FastReply")

	// heldStall keeps the sync in flight past the tick.
	time.Sleep(time.Until(p.started.Add(walMaintenanceInterval + 20*time.Millisecond)))
	p.send(protocol.SessionRequest{SessionID: 3 << 40})
	answers("protocol.SummaryMsg")

	if _, ok := p.next(5*time.Second, carriesHeld); !ok {
		t.Fatal("the held reply never left after its covering sync")
	}
	if err := <-p.done; err != nil {
		t.Fatalf("held write failed: %v", err)
	}
}

// TestReleaseStageDropsQueuedEnvelopesOnKill: a Kill with envelopes queued
// drops them (the abandoned WAL never covers their record), and a release
// that still names the dead incarnation's WAL and endpoint after
// RestartFromDisk neither sends nor fail-stops the new incarnation.
func TestReleaseStageDropsQueuedEnvelopesOnKill(t *testing.T) {
	p := startHeld(t, false)
	r := p.c.replicas[0]
	r.mu.Lock()
	oldEp := r.ep
	r.mu.Unlock()
	if err := p.c.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := <-p.done; err == nil {
		t.Fatal("held write acked although its replica was killed before the covering sync")
	}
	p.until("the release stage to drain", func() bool { return r.ackq.depth() == 0 })
	p.ffs.Cut(replicaScope(0))
	p.ffs.Heal(replicaScope(0))
	if err := p.c.RestartFromDisk(0); err != nil {
		t.Fatal(err)
	}
	stale := ackRelease{
		out:    []protocol.Envelope{{From: 0, To: 1, Msg: protocol.UpdateBatch{Entries: []wlog.Entry{{Key: "held"}}}}},
		gate:   walGate{wal: p.wal, rec: p.need},
		ep:     oldEp,
		queued: true,
	}
	r.release(&stale)
	if !p.c.Alive(0) || p.reg.Total("repro_replica_failstop_total") != 0 {
		t.Fatal("a stale release fail-stopped the restarted incarnation")
	}
	if env, ok := p.next(heldStall, carriesHeld); ok {
		t.Fatalf("%v escaped a killed incarnation", env)
	}
}

// TestReleaseStageDropsQueuedEnvelopesOnSyncError: when the covering sync
// fails, the queued envelopes are dropped and the replica is fail-stopped —
// the same verdict the commit batch ahead of them gets.
func TestReleaseStageDropsQueuedEnvelopesOnSyncError(t *testing.T) {
	p := startHeld(t, true)
	var rej *Rejection
	if err := <-p.done; !errors.As(err, &rej) || rej.Cause == nil {
		t.Fatalf("held write returned %v, want a fail-stop rejection carrying the sync error", err)
	}
	if _, _, err := p.c.Read(0, "warm"); err == nil {
		t.Fatal("replica 0 still serves after its covering sync failed")
	}
	p.until("the release stage to drain", func() bool { return p.c.replicas[0].ackq.depth() == 0 })
	if got := p.reg.Total("repro_replica_failstop_total"); got != 1 {
		t.Fatalf("repro_replica_failstop_total = %v, want exactly 1", got)
	}
	if env, ok := p.next(50*time.Millisecond, carriesHeld); ok {
		t.Fatalf("%v escaped although its covering sync failed", env)
	}
}

// TestAdvertPullAnswerWaitsForCoveringSync: a durable replica answering the
// id-0 summary an advert drew sends through the same egress gate as a session
// reply — nothing on the wire while the covering sync is stalled (next fails
// the test on a leak), then exactly one batch carrying the whole difference.
func TestAdvertPullAnswerWaitsForCoveringSync(t *testing.T) {
	p := startHeld(t, false)
	r := p.c.replicas[0]
	p.send(protocol.SummaryMsg{Summary: vclock.NewSummary()})
	p.until("the pull's answer to queue behind the held reply", func() bool { return r.ackq.depth() >= 2 })
	pulled := func(env protocol.Envelope) bool {
		b, ok := env.Msg.(protocol.UpdateBatch)
		return ok && b.SessionID == 0
	}
	env, ok := p.next(5*time.Second, pulled)
	if !ok {
		t.Fatal("the pull's answer never left after its covering sync")
	}
	if b := env.Msg.(protocol.UpdateBatch); !carriesHeld(env) || len(b.Entries) != 2 || !b.Final {
		t.Fatalf("answer = %+v, want one final batch of both writes", b)
	}
	if err := <-p.done; err != nil {
		t.Fatalf("held write failed: %v", err)
	}
	if env, ok := p.next(50*time.Millisecond, pulled); ok {
		t.Fatalf("second answer %v to one pull", env)
	}
}

// TestSessionReadTokenCoversServedVersion: handle applies a batch to the
// lock-free store before it publishes the applied watermark, so a session
// read can be served a version the watermark does not name yet. The replica
// is played by hand up to exactly that point: the token must then cover the
// version that was served, or the next session read — at a replica that only
// holds the older one — would pass its gate and serve below it.
func TestSessionReadTokenCoversServedVersion(t *testing.T) {
	// Never started: the test is the only caller of handle.
	c := New(topology.Ring(4), demand.Static{1, 2, 3, 4}, WithSeed(31))
	batchOf := func(ts vclock.Timestamp, to NodeID) protocol.Envelope {
		e, ok := c.replicas[0].node.Log().Get(ts)
		if !ok {
			t.Fatalf("origin does not retain %v", ts)
		}
		return protocol.Envelope{From: 0, To: to, Msg: protocol.UpdateBatch{Entries: []wlog.Entry{e}, Final: true}}
	}
	older, err := c.Write(0, "k", []byte("older"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []NodeID{1, 2} {
		c.replicas[id].handle(batchOf(older, id))
	}
	newer, err := c.Write(0, "k", []byte("newer"))
	if err != nil {
		t.Fatal(err)
	}
	r := c.replicas[1]
	r.mu.Lock()
	r.node.HandleMessage(c.now(), batchOf(newer, 1)) // applied; handle would publish next
	r.mu.Unlock()
	if r.applied.covers(newer) {
		t.Fatal("the applied watermark names the write before publish")
	}

	var tok Token
	read := &LeveledRead{Level: LevelSession, Token: &tok, Deadline: time.Millisecond}
	v, ok, err := c.ReadLeveled(1, "k", read)
	if err != nil || !ok || v.TS != newer {
		t.Fatalf("session read at the replica mid-handle = %v, %v, %v; want %v served", v, ok, err, newer)
	}
	if !tok.Covers(v.TS) {
		t.Fatalf("token %v does not cover the served version %v", &tok, v.TS)
	}
	if v, _, err := c.ReadLeveled(2, "k", read); !errors.Is(err, ErrNotFresh) {
		t.Fatalf("session read at a replica lacking %v = %q, %v; want ErrNotFresh", newer, v.Value, err)
	}
	// Bounded reads keep "no fold-back": the token tracks only what the
	// session acknowledged or observed at a folding level.
	var loose Token
	if _, _, err := c.ReadLeveled(1, "k", &LeveledRead{Level: LevelBounded, Token: &loose, MaxLag: 1}); err != nil {
		t.Fatal(err)
	}
	if !loose.Equal(&Token{}) {
		t.Errorf("bounded read folded %v into its token", &loose)
	}
}
