package node

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/vclock"
	"repro/internal/wlog"
)

// cluster is a tiny synchronous test harness: a set of nodes and a FIFO
// message queue pumped to quiescence.
type cluster struct {
	nodes map[NodeID]*Node
	queue []protocol.Envelope
	now   float64
	r     *rand.Rand
}

func newCluster(field demand.Field, fastPush bool, adj map[NodeID][]NodeID, factory policy.Factory) *cluster {
	c := &cluster{nodes: make(map[NodeID]*Node), r: rand.New(rand.NewSource(1))}
	for id, nbrs := range adj {
		id := id
		c.nodes[id] = New(Config{
			ID:        id,
			Neighbors: nbrs,
			Selector:  factory(id, nbrs),
			FastPush:  fastPush,
			Demand:    func(now float64) float64 { return field.At(id, now) },
		})
	}
	return c
}

func (c *cluster) refreshTables(field demand.Field) {
	for _, n := range c.nodes {
		n.Table().RefreshAll(field, c.now)
	}
}

func (c *cluster) send(envs []protocol.Envelope) { c.queue = append(c.queue, envs...) }

// pump delivers queued messages until quiet, returning messages delivered.
func (c *cluster) pump(t *testing.T) int {
	t.Helper()
	delivered := 0
	for len(c.queue) > 0 {
		env := c.queue[0]
		c.queue = c.queue[1:]
		dst, ok := c.nodes[env.To]
		if !ok {
			t.Fatalf("message to unknown node: %v", env)
		}
		c.send(dst.HandleMessage(c.now, env))
		delivered++
		if delivered > 100000 {
			t.Fatal("pump did not quiesce — message loop?")
		}
	}
	return delivered
}

func lineAdj(n int) map[NodeID][]NodeID {
	adj := make(map[NodeID][]NodeID, n)
	for i := 0; i < n; i++ {
		var nbrs []NodeID
		if i > 0 {
			nbrs = append(nbrs, NodeID(i-1))
		}
		if i+1 < n {
			nbrs = append(nbrs, NodeID(i+1))
		}
		adj[NodeID(i)] = nbrs
	}
	return adj
}

func TestNewValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New without Selector should panic")
			}
		}()
		New(Config{Demand: func(float64) float64 { return 0 }})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New without Demand should panic")
			}
		}()
		New(Config{Selector: policy.NewRandom(0, nil)})
	}()
}

func TestClientWriteAppliesLocally(t *testing.T) {
	c := newCluster(demand.Static{1, 2}, false, lineAdj(2), policy.NewRandom)
	n0 := c.nodes[0]
	e, out := n0.ClientWrite(0, "k", []byte("v"))
	if len(out) != 0 {
		t.Errorf("without FastPush, ClientWrite emitted %d messages", len(out))
	}
	if e.TS != (vclock.Timestamp{Node: 0, Seq: 1}) {
		t.Errorf("entry TS = %v", e.TS)
	}
	if !n0.Covers(e.TS) {
		t.Error("writer does not cover its own write")
	}
	if v, ok := n0.Store().Get("k"); !ok || string(v) != "v" {
		t.Errorf("store content = (%q, %t)", v, ok)
	}
}

func TestSessionConvergesTwoNodes(t *testing.T) {
	c := newCluster(demand.Static{1, 2}, false, lineAdj(2), policy.NewRandom)
	a, b := c.nodes[0], c.nodes[1]
	a.ClientWrite(0, "x", []byte("1"))
	b.ClientWrite(0, "y", []byte("2"))
	b.ClientWrite(0, "y2", []byte("3"))

	c.send(a.StartSession(1, c.r))
	c.pump(t)

	if a.Summary().Compare(b.Summary()) != vclock.Equal {
		t.Fatalf("summaries differ after session: %v vs %v", a.Summary(), b.Summary())
	}
	if a.Store().Digest() != b.Store().Digest() {
		t.Error("stores differ after session")
	}
	if a.OpenSessions() != 0 || b.OpenSessions() != 0 {
		t.Errorf("open sessions after quiesce: %d / %d", a.OpenSessions(), b.OpenSessions())
	}
	st := a.Stats()
	if st.SessionsInitiated != 1 || st.EntriesReceived != 2 {
		t.Errorf("initiator stats = %+v", st)
	}
	if bs := b.Stats(); bs.SessionsReceived != 1 || bs.EntriesReceived != 1 {
		t.Errorf("responder stats = %+v", bs)
	}
}

func TestSessionBidirectional(t *testing.T) {
	// Both partners must end with the union (step 12: B receives from E and
	// E receives from B in the same session).
	c := newCluster(demand.Static{1, 1}, false, lineAdj(2), policy.NewRandom)
	a, b := c.nodes[0], c.nodes[1]
	for i := 0; i < 5; i++ {
		a.ClientWrite(0, "a", []byte{byte(i)})
		b.ClientWrite(0, "b", []byte{byte(i)})
	}
	c.send(b.StartSession(1, c.r))
	c.pump(t)
	if a.Log().Len() != 10 || b.Log().Len() != 10 {
		t.Errorf("log lengths = %d / %d, want 10 / 10", a.Log().Len(), b.Log().Len())
	}
}

func TestRepeatSessionSendsNothing(t *testing.T) {
	c := newCluster(demand.Static{1, 1}, false, lineAdj(2), policy.NewRandom)
	a := c.nodes[0]
	a.ClientWrite(0, "k", []byte("v"))
	c.send(a.StartSession(1, c.r))
	c.pump(t)
	sent := a.Stats().EntriesSent
	// Second session: already consistent, zero entries move.
	c.send(a.StartSession(2, c.r))
	c.pump(t)
	if got := a.Stats().EntriesSent; got != sent {
		t.Errorf("second session sent %d extra entries, want 0", got-sent)
	}
}

func TestFastUpdateChainFloodsValley(t *testing.T) {
	// Line 0-1-2-3-4 with demand increasing toward node 4 (the valley).
	// A write at node 0 must reach node 4 through the fast-update chain
	// alone — no sessions — whichever shape the chain takes: one pushed
	// payload per link when the write fits a frame, the paper's offer → YES
	// → payload (steps 13–18) when it does not.
	for _, tc := range []struct {
		name           string
		value          []byte
		msgs           int    // messages the whole chain costs
		pushes, offers uint64 // per forwarding node
	}{
		{"frame-sized write is pushed", []byte("v"), 4, 1, 0},
		{"over-frame write is offered", make([]byte, framePayload+1), 12, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			field := demand.Static{1, 2, 3, 4, 5}
			c := newCluster(field, true, lineAdj(5), policy.NewDynamicOrdered)
			c.refreshTables(field)

			e, out := c.nodes[0].ClientWrite(0, "k", tc.value)
			c.send(out) // to node 1, its only neighbour
			if got := c.pump(t); got != tc.msgs {
				t.Errorf("chain cost %d messages, want %d", got, tc.msgs)
			}

			for id := NodeID(0); id <= 4; id++ {
				st := c.nodes[id].Stats()
				if id > 0 && (!c.nodes[id].Covers(e.TS) || st.FastEntriesGained != 1) {
					t.Errorf("node %v missed the fast-update chain (gained %d)", id, st.FastEntriesGained)
				}
				// Node 4 has nobody to hand the write on to: its one neighbour
				// is where it came from.
				if id < 4 && (st.FastPushesSent != tc.pushes || st.FastOffersSent != tc.offers) {
					t.Errorf("node %v sent %d pushes, %d offers, want %d, %d",
						id, st.FastPushesSent, st.FastOffersSent, tc.pushes, tc.offers)
				}
				if st.FastOffersDeclined != 0 || st.DuplicateDrops != 0 || st.GapDrops != 0 {
					t.Errorf("node %v: declined %d, duplicates %d, gaps %d, want none",
						id, st.FastOffersDeclined, st.DuplicateDrops, st.GapDrops)
				}
			}
		})
	}
}

// A pushed payload takes the place of offer and reply, so the receiver does
// the NO's work itself: what it already covers is dropped and counted as
// duplicate, a full cover ends the chain without a message, and a partial
// one forwards only the suffix it gained, one hop further.
func TestPushedPayloadChainSemantics(t *testing.T) {
	field := demand.Static{1, 2, 3}
	c := newCluster(field, true, lineAdj(3), policy.NewDynamicOrdered)
	c.refreshTables(field)
	a, b := c.nodes[0], c.nodes[1]
	push := func(hops uint32, entries ...wlog.Entry) []protocol.Envelope {
		return b.HandleMessage(1, protocol.Envelope{
			From: 0, To: 1,
			Msg: protocol.FastPayload{Entries: entries, Demand: 1, Hops: hops},
		})
	}
	stats := func(when string, duplicates, gained, pushes uint64) {
		t.Helper()
		st := b.Stats()
		if st.DuplicateDrops != duplicates || st.FastEntriesGained != gained || st.FastPushesSent != pushes || st.GapDrops != 0 {
			t.Fatalf("%s: duplicates %d, gained %d, pushes %d, gaps %d, want %d, %d, %d, 0",
				when, st.DuplicateDrops, st.FastEntriesGained, st.FastPushesSent, st.GapDrops, duplicates, gained, pushes)
		}
	}

	e1, _ := a.ClientWrite(0, "k1", []byte("1"))
	e2, _ := a.ClientWrite(0, "k2", []byte("2"))
	if out := push(0, e1, e2); len(out) != 1 || out[0].To != 2 {
		t.Fatalf("new push produced %v, want one envelope to n2", out)
	}
	stats("new push", 0, 2, 1)

	if out := push(0, e1, e2); len(out) != 0 {
		t.Fatalf("fully covered push produced %v, want nothing", out)
	}
	stats("covered push", 2, 2, 1)

	e3, _ := a.ClientWrite(0, "k3", []byte("3"))
	e4, _ := a.ClientWrite(0, "k4", []byte("4"))
	out := push(5, e2, e3, e4)
	if len(out) != 1 || out[0].To != 2 {
		t.Fatalf("partly covered push produced %v, want one envelope to n2", out)
	}
	fwd, ok := out[0].Msg.(protocol.FastPayload)
	if !ok || fwd.Hops != 6 || len(fwd.Entries) != 2 || fwd.Entries[0].TS != e3.TS || fwd.Entries[1].TS != e4.TS {
		t.Fatalf("forwarded %+v, want FastPayload{[%v %v], Hops: 6}", out[0].Msg, e3.TS, e4.TS)
	}
	stats("partly covered push", 3, 4, 2)

	// The release stage may fold a reply payload behind a push, so entries
	// can arrive out of (origin, seq) order: absorbed whole, forwarded sorted.
	e5, _ := a.ClientWrite(0, "k5", []byte("5"))
	e6, _ := a.ClientWrite(0, "k6", []byte("6"))
	out = push(0, e6, e5)
	if len(out) != 1 {
		t.Fatalf("unsorted push produced %v, want one envelope", out)
	}
	if fwd := out[0].Msg.(protocol.FastPayload); len(fwd.Entries) != 2 || fwd.Entries[0].TS != e5.TS || fwd.Entries[1].TS != e6.TS {
		t.Fatalf("unsorted push forwarded %+v, want [%v %v]", fwd.Entries, e5.TS, e6.TS)
	}
	stats("unsorted push", 3, 6, 3)
}

func TestFastOfferDeclinedWhenCovered(t *testing.T) {
	field := demand.Static{1, 2}
	c := newCluster(field, true, lineAdj(2), policy.NewDynamicOrdered)
	c.refreshTables(field)
	a, b := c.nodes[0], c.nodes[1]

	e, out := a.ClientWrite(0, "k", []byte("v"))
	c.send(out)
	c.pump(t)
	if !b.Covers(e.TS) {
		t.Fatal("fast update did not reach node 1")
	}
	// Offer the same id again: B must answer NO and A must send nothing.
	replies := b.HandleMessage(1, protocol.Envelope{
		From: 0, To: 1,
		Msg: protocol.FastOffer{IDs: []vclock.Timestamp{e.TS}},
	})
	if len(replies) != 1 {
		t.Fatalf("expected 1 reply, got %d", len(replies))
	}
	reply, ok := replies[0].Msg.(protocol.FastReply)
	if !ok || reply.Accept {
		t.Errorf("reply = %+v, want Accept=false", replies[0].Msg)
	}
	if out := a.HandleMessage(1, replies[0]); len(out) != 0 {
		t.Errorf("NO reply produced %d messages, want 0", len(out))
	}
	if b.Stats().FastOffersDeclined != 1 {
		t.Errorf("declined = %d, want 1", b.Stats().FastOffersDeclined)
	}
}

func TestFastReplyPartialSubset(t *testing.T) {
	// B already has one of two offered writes; it must request only the
	// missing one.
	field := demand.Static{1, 2}
	c := newCluster(field, false, lineAdj(2), policy.NewRandom)
	a, b := c.nodes[0], c.nodes[1]
	e1, _ := a.ClientWrite(0, "k1", []byte("1"))
	// Sync e1 to B via a session.
	c.send(a.StartSession(1, c.r))
	c.pump(t)
	e2, _ := a.ClientWrite(2, "k2", []byte("2"))

	replies := b.HandleMessage(3, protocol.Envelope{
		From: 0, To: 1,
		Msg: protocol.FastOffer{IDs: []vclock.Timestamp{e1.TS, e2.TS}},
	})
	reply := replies[0].Msg.(protocol.FastReply)
	if !reply.Accept || len(reply.Wanted) != 1 || reply.Wanted[0] != e2.TS {
		t.Errorf("reply = %+v, want exactly [%v] wanted", reply, e2.TS)
	}
}

func TestFastPayloadGapDropped(t *testing.T) {
	// A payload whose entry has a missing predecessor must be dropped and
	// counted, not crash or corrupt the log.
	field := demand.Static{1, 2}
	c := newCluster(field, true, lineAdj(2), policy.NewDynamicOrdered)
	b := c.nodes[1]
	out := b.HandleMessage(0, protocol.Envelope{
		From: 0, To: 1,
		Msg: protocol.FastPayload{Entries: wlogEntry("k", 0, 3)},
	})
	if len(out) != 0 {
		t.Errorf("gapped payload produced %d messages", len(out))
	}
	if b.Stats().GapDrops != 1 {
		t.Errorf("GapDrops = %d, want 1", b.Stats().GapDrops)
	}
	if b.Log().Len() != 0 {
		t.Error("gapped entry entered the log")
	}
}

func TestDemandPiggybackRefreshesTable(t *testing.T) {
	field := demand.Static{5, 9}
	c := newCluster(field, false, lineAdj(2), policy.NewRandom)
	a, b := c.nodes[0], c.nodes[1]
	if a.Table().Demand(1) != 0 {
		t.Fatal("table should start at zero demand")
	}
	c.send(b.StartSession(1, c.r))
	c.pump(t)
	// A received B's request (demand 9); B received A's summary (demand 5).
	if got := a.Table().Demand(1); got != 9 {
		t.Errorf("A's table demand for B = %g, want 9", got)
	}
	if got := b.Table().Demand(0); got != 5 {
		t.Errorf("B's table demand for A = %g, want 5", got)
	}
}

func TestAdvertiseDemand(t *testing.T) {
	field := demand.Static{5, 9, 3}
	c := newCluster(field, false, lineAdj(3), policy.NewRandom)
	mid := c.nodes[1]
	out := mid.AdvertiseDemand(4)
	if len(out) != 2 {
		t.Fatalf("adverts = %d, want 2", len(out))
	}
	for _, env := range out {
		if adv, ok := env.Msg.(protocol.DemandAdvert); !ok || adv.Demand != 9 {
			t.Errorf("advert = %+v", env.Msg)
		}
	}
	c.send(out)
	c.pump(t)
	if got := c.nodes[0].Table().Demand(1); got != 9 {
		t.Errorf("neighbour table demand = %g, want 9", got)
	}
	if mid.Stats().AdvertsSent != 2 {
		t.Errorf("AdvertsSent = %d, want 2", mid.Stats().AdvertsSent)
	}
}

func TestGradientOnlySuppressesUphillOffers(t *testing.T) {
	field := demand.Static{9, 2} // node 0 has higher demand than neighbour
	n := New(Config{
		ID:           0,
		Neighbors:    []NodeID{1},
		Selector:     policy.NewDynamicOrdered(0, []NodeID{1}),
		FastPush:     true,
		GradientOnly: true,
		Demand:       func(now float64) float64 { return field.At(0, now) },
	})
	n.Table().RefreshAll(field, 0)
	_, out := n.ClientWrite(0, "k", []byte("v"))
	if len(out) != 0 {
		t.Errorf("gradient-only node offered uphill: %v", out)
	}
	if st := n.Stats(); st.FastOffersSent != 0 || st.FastPushesSent != 0 {
		t.Errorf("sent %d offers, %d pushes, want none", st.FastOffersSent, st.FastPushesSent)
	}
}

func TestFanOutTargetsMultipleNeighbors(t *testing.T) {
	field := demand.Static{1, 5, 4, 3}
	star := map[NodeID][]NodeID{
		0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0},
	}
	c := newCluster(field, true, star, policy.NewDynamicOrdered)
	// Rebuild node 0 with FanOut 2.
	c.nodes[0] = New(Config{
		ID:        0,
		Neighbors: star[0],
		Selector:  policy.NewDynamicOrdered(0, star[0]),
		FastPush:  true,
		FanOut:    2,
		Demand:    func(now float64) float64 { return field.At(0, now) },
	})
	c.refreshTables(field)
	_, out := c.nodes[0].ClientWrite(0, "k", []byte("v"))
	if len(out) != 2 {
		t.Fatalf("fan-out 2 emitted %d envelopes, want 2", len(out))
	}
	// The write goes to the two highest-demand neighbours: 1 then 2.
	if out[0].To != 1 || out[1].To != 2 {
		t.Errorf("targets = %v, %v, want n1, n2", out[0].To, out[1].To)
	}
}

func TestMaxBatchSplitsWithFinalFlag(t *testing.T) {
	field := demand.Static{1, 1}
	a := New(Config{
		ID: 0, Neighbors: []NodeID{1},
		Selector: policy.NewRandom(0, []NodeID{1}),
		MaxBatch: 2,
		Demand:   func(float64) float64 { return 1 },
	})
	b := New(Config{
		ID: 1, Neighbors: []NodeID{0},
		Selector: policy.NewRandom(1, []NodeID{0}),
		Demand:   func(float64) float64 { return 1 },
	})
	_ = field
	for i := 0; i < 5; i++ {
		a.ClientWrite(0, "k", []byte{byte(i)})
	}
	// Simulate B's summary arriving at A within a session A initiated.
	req := a.StartSession(1, rand.New(rand.NewSource(1)))
	replies := b.HandleMessage(1, req[0])
	out := a.HandleMessage(1, replies[0])
	// out = [own summary, batch1(2), batch2(2), batch3(1, final)]
	var batches []protocol.UpdateBatch
	for _, env := range out {
		if ub, ok := env.Msg.(protocol.UpdateBatch); ok {
			batches = append(batches, ub)
		}
	}
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3", len(batches))
	}
	if len(batches[0].Entries) != 2 || len(batches[2].Entries) != 1 {
		t.Errorf("batch sizes = %d,%d,%d", len(batches[0].Entries), len(batches[1].Entries), len(batches[2].Entries))
	}
	if batches[0].Final || batches[1].Final || !batches[2].Final {
		t.Errorf("final flags = %t,%t,%t, want f,f,t", batches[0].Final, batches[1].Final, batches[2].Final)
	}
}

func TestMisroutedEnvelopePanics(t *testing.T) {
	c := newCluster(demand.Static{1, 1}, false, lineAdj(2), policy.NewRandom)
	defer func() {
		if recover() == nil {
			t.Error("misrouted envelope should panic")
		}
	}()
	c.nodes[0].HandleMessage(0, protocol.Envelope{From: 1, To: 1, Msg: protocol.DemandAdvert{}})
}

func TestLamportClockAdvancesOnReceive(t *testing.T) {
	c := newCluster(demand.Static{1, 1}, false, lineAdj(2), policy.NewRandom)
	a, b := c.nodes[0], c.nodes[1]
	for i := 0; i < 5; i++ {
		a.ClientWrite(0, "k", []byte{byte(i)})
	}
	c.send(b.StartSession(1, c.r))
	c.pump(t)
	// B's next write must carry a clock above everything received, so it
	// wins LWW everywhere.
	e, _ := b.ClientWrite(2, "k", []byte("newest"))
	if e.Clock <= 5 {
		t.Errorf("clock after receive = %d, want > 5", e.Clock)
	}
	c.send(b.StartSession(3, c.r))
	c.pump(t)
	va, _ := a.Store().Get("k")
	if string(va) != "newest" {
		t.Errorf("A's value = %q, want newest", va)
	}
}

// wlogEntry builds a one-entry slice for payload tests.
func wlogEntry(key string, node NodeID, seq uint64) []wlog.Entry {
	return []wlog.Entry{{TS: vclock.Timestamp{Node: node, Seq: seq}, Key: key, Value: []byte("v"), Clock: 1}}
}

func TestSnapshotRecoversTruncatedPartner(t *testing.T) {
	// A writes many entries and truncates its log aggressively; a fresh
	// replica B then sessions with A. Entry replay is impossible
	// (ErrTruncated), so A must send a full-state Snapshot and B must end
	// up with identical content.
	c := newCluster(demand.Static{1, 1}, false, lineAdj(2), policy.NewRandom)
	a, b := c.nodes[0], c.nodes[1]
	for i := 0; i < 10; i++ {
		a.ClientWrite(0, fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	// Truncate everything A has (pretend the whole prefix is stable).
	a.Log().TruncateCovered(a.Summary())

	c.send(b.StartSession(1, c.r))
	c.pump(t)

	if a.Stats().SnapshotsSent != 1 {
		t.Errorf("SnapshotsSent = %d, want 1", a.Stats().SnapshotsSent)
	}
	if b.Stats().SnapshotsReceived != 1 {
		t.Errorf("SnapshotsReceived = %d, want 1", b.Stats().SnapshotsReceived)
	}
	if b.Summary().Compare(a.Summary()) != vclock.Equal {
		t.Errorf("summaries differ after snapshot: %v vs %v", b.Summary(), a.Summary())
	}
	if b.Store().Digest() != a.Store().Digest() {
		t.Error("stores differ after snapshot")
	}
	if b.OpenSessions() != 0 {
		t.Errorf("open sessions = %d after snapshot", b.OpenSessions())
	}
	// B can now serve onward sessions normally for post-snapshot writes.
	a.ClientWrite(2, "fresh", []byte("x"))
	c.send(b.StartSession(3, c.r))
	c.pump(t)
	if !b.Covers(vclock.Timestamp{Node: 0, Seq: 11}) {
		t.Error("post-snapshot write did not propagate")
	}
}

func TestSnapshotChainsAcrossReplicas(t *testing.T) {
	// Three replicas in a line; node 0 truncates, node 1 recovers via
	// snapshot, then node 2 recovers from node 1 (which now also has a
	// truncation floor) — the floor propagates consistently.
	c := newCluster(demand.Static{1, 1, 1}, false, lineAdj(3), policy.NewRoundRobin)
	n0, n1, n2 := c.nodes[0], c.nodes[1], c.nodes[2]
	for i := 0; i < 5; i++ {
		n0.ClientWrite(0, fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	n0.Log().TruncateCovered(n0.Summary())

	c.send(n1.StartSession(1, c.r)) // round-robin picks n0 first
	c.pump(t)
	if n1.Store().Digest() != n0.Store().Digest() {
		t.Fatal("n1 did not recover from n0's snapshot")
	}
	c.send(n2.StartSession(2, c.r)) // n2's only neighbour is n1
	c.pump(t)
	if n2.Store().Digest() != n0.Store().Digest() {
		t.Error("n2 did not recover through n1")
	}
	if n1.Stats().SnapshotsSent != 1 {
		t.Errorf("n1 SnapshotsSent = %d, want 1 (its floor forces a snapshot onward)", n1.Stats().SnapshotsSent)
	}
}
