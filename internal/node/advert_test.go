package node

import (
	"math/rand"
	"testing"

	"repro/internal/protocol"
	"repro/internal/vclock"
)

// summaryAt builds a summary covering origin through seq; summaryOf, origin 0.
func summaryAt(origin NodeID, seq uint64) *vclock.Summary {
	s := vclock.NewSummary()
	s.Advance(origin, seq)
	return s
}

func summaryOf(seq uint64) *vclock.Summary { return summaryAt(0, seq) }

func advertFrom(from NodeID, s *vclock.Summary) protocol.Envelope {
	return protocol.Envelope{From: from, To: 1, Msg: protocol.DemandAdvert{Demand: 3, Summary: s}}
}

// pushOf is a fast update from node 2 carrying origin 0's write seq;
// batchOf is the same write in an anti-entropy batch.
func pushOf(seq uint64) protocol.Envelope {
	return protocol.Envelope{From: 2, To: 1, Msg: protocol.FastPayload{Entries: wlogEntry("k", 0, seq)}}
}

func batchOf(seq uint64) protocol.Envelope {
	return protocol.Envelope{From: 2, To: 1, Msg: protocol.UpdateBatch{Entries: wlogEntry("k", 0, seq), Final: true}}
}

// tick stands for node 1's own advert tick in a feed.
var tick = protocol.Envelope{From: 1, To: 1}

// TestAdvertPull is the receiver's half: node 1 (neighbours 0 and 2) is fed
// envelopes in order and only the last one's output is checked. A pull is one
// SummaryMsg with session id 0, to the advertiser, carrying node 1's summary.
func TestAdvertPull(t *testing.T) {
	cases := []struct {
		name     string
		feed     []protocol.Envelope
		pullFrom NodeID // -1: the last envelope must produce nothing
		pulls    uint64 // AdvertPulls over the whole feed
	}{
		{"advert without summary", []protocol.Envelope{advertFrom(0, nil), advertFrom(0, nil)}, -1, 0},
		{"covered advert", []protocol.Envelope{pushOf(1), advertFrom(0, summaryOf(1))}, -1, 0},
		// Origin 0's writes do not reach node 1 by chain: nothing is in flight.
		{"first advert naming a write of a chain-less origin", []protocol.Envelope{advertFrom(0, summaryOf(1))}, 0, 1},
		{"origin reached by batch is chain-less", []protocol.Envelope{batchOf(1), advertFrom(0, summaryOf(2))}, 0, 1},
		{"two neighbours name the same write inside one tick", []protocol.Envelope{advertFrom(0, summaryOf(1)), advertFrom(2, summaryOf(1))}, -1, 1},
		{"second neighbour names more than was asked for", []protocol.Envelope{advertFrom(0, summaryOf(1)), advertFrom(2, summaryOf(2))}, 2, 2},
		{"unanswered gap is asked again after the own tick", []protocol.Envelope{advertFrom(0, summaryOf(1)), tick, advertFrom(2, summaryOf(1))}, 2, 2},
		{"gap of as many entries as a frame can hold", []protocol.Envelope{advertFrom(0, summaryOf(maxFrameEntries))}, 0, 1},
		{"gap of more entries than any frame holds", []protocol.Envelope{advertFrom(0, summaryOf(maxFrameEntries+1))}, -1, 0},
		// They do (pushOf first): a write an advert names may be in flight, and
		// only a gap the neighbour's previous advert already named is pulled.
		{"first advert from a neighbour", []protocol.Envelope{pushOf(1), advertFrom(0, summaryOf(2))}, -1, 0},
		{"summary after a demand-only advert", []protocol.Envelope{pushOf(1), advertFrom(0, nil), advertFrom(0, summaryOf(2))}, -1, 0},
		{"previous summary covered", []protocol.Envelope{pushOf(1), advertFrom(0, summaryOf(1)), advertFrom(0, summaryOf(2))}, -1, 0},
		{"gap stood one interval", []protocol.Envelope{pushOf(1), advertFrom(0, summaryOf(2)), advertFrom(0, summaryOf(2))}, 0, 1},
		{"gap closed by a push between adverts", []protocol.Envelope{pushOf(1), advertFrom(0, summaryOf(2)), pushOf(2), advertFrom(0, summaryOf(2))}, -1, 0},
		{"another neighbour's first advert", []protocol.Envelope{pushOf(1), advertFrom(0, summaryOf(2)), advertFrom(2, summaryOf(2))}, -1, 0},
		{"demand-only advert keeps the summary on file", []protocol.Envelope{pushOf(1), advertFrom(0, summaryOf(2)), advertFrom(0, nil), advertFrom(0, summaryOf(2))}, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := allocNode(1, []NodeID{0, 2})
			var out []protocol.Envelope
			for _, env := range tc.feed {
				if env == tick {
					n.AdvertiseDemand(0)
					continue
				}
				out = n.HandleMessage(0, env)
				if _, ok := env.Msg.(protocol.DemandAdvert); !ok {
					out = nil // a push or batch continues a chain; not this test's
				}
			}
			if got := n.Stats().AdvertPulls; got != tc.pulls {
				t.Errorf("AdvertPulls = %d, want %d", got, tc.pulls)
			}
			if tc.pullFrom < 0 {
				if len(out) != 0 {
					t.Fatalf("output %v, want no pull", out)
				}
				return
			}
			if len(out) != 1 || out[0].To != tc.pullFrom || out[0].From != 1 {
				t.Fatalf("output %v, want one envelope to %v", out, tc.pullFrom)
			}
			m, ok := out[0].Msg.(protocol.SummaryMsg)
			if !ok || m.SessionID != 0 || m.Summary.Compare(n.Summary()) != vclock.Equal {
				t.Fatalf("pull = %+v, want SummaryMsg id 0 carrying %v", out[0].Msg, n.Summary())
			}
			if n.OpenSessions() != 0 {
				t.Errorf("OpenSessions = %d after a pull, want 0", n.OpenSessions())
			}
		})
	}
}

// TestChainMemoryFollowsArrivalPath: the bit of an origin says how its last
// gained write got here, and only a gain moves it.
func TestChainMemoryFollowsArrivalPath(t *testing.T) {
	n := allocNode(1, []NodeID{0, 2})
	steps := []struct {
		name string
		env  protocol.Envelope
		want bool
	}{
		{"push gains 0:1", pushOf(1), true},
		{"batch gains 0:2", batchOf(2), false},
		{"fully duplicate push", pushOf(1), false},
		{"gap-dropped push", pushOf(5), false},
		{"push gains 0:3", pushOf(3), true},
		{"fully duplicate batch", batchOf(2), true},
		{"batch gains 0:4", batchOf(4), false},
	}
	if n.chained[0] {
		t.Fatal("a fresh node remembers a chain")
	}
	for _, st := range steps {
		n.HandleMessage(0, st.env)
		if got := n.chained[0]; got != st.want {
			t.Fatalf("after %s: chained[0] = %v, want %v", st.name, got, st.want)
		}
	}
	if n.Stats().GapDrops != 1 || n.Stats().DuplicateDrops != 2 {
		t.Errorf("GapDrops %d, DuplicateDrops %d; want 1 and 2", n.Stats().GapDrops, n.Stats().DuplicateDrops)
	}
}

// TestAdvertPullAnswer is the advertiser's half: an id-0 summary is answered
// with exactly the entries the asker lacks in one batch, or with nothing —
// never an empty closing batch, never a Snapshot, never more than one frame.
func TestAdvertPullAnswer(t *testing.T) {
	cases := []struct {
		name     string
		writes   int    // the advertiser holds origin 0 through here
		asker    uint64 // the asker covers origin 0 through here
		value    int    // bytes per write
		truncate bool
		want     int // entries in the one UpdateBatch; 0: no output at all
	}{
		{"asker behind", 3, 1, 1, false, 2},
		{"asker covered", 3, 3, 1, false, 0},
		{"log truncated below the asker", 3, 1, 1, true, 0},
		{"difference over one frame", 3, 1, framePayload/2 + 1, false, 0},
		{"difference of one frame", 3, 1, framePayload/2 - 11, false, 2},
		{"difference of more entries than any frame holds", maxFrameEntries + 1, 0, 0, false, 0},
	}
	allocs := make(map[string]float64)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := allocNode(0, []NodeID{1})
			for i := 0; i < tc.writes; i++ {
				n.ClientWrite(0, "k", make([]byte, tc.value))
			}
			if tc.truncate {
				n.Log().TruncateCovered(n.Summary())
			}
			pull := protocol.Envelope{From: 1, To: 0,
				Msg: protocol.SummaryMsg{Summary: summaryOf(tc.asker), Demand: 2}}
			out := n.HandleMessage(0, pull)
			allocs[tc.name] = testing.AllocsPerRun(20, func() { n.HandleMessage(0, pull) })
			if n.Stats().SnapshotsSent != 0 {
				t.Fatalf("SnapshotsSent = %d, want 0: full state stays with the timer session", n.Stats().SnapshotsSent)
			}
			if tc.want == 0 {
				if len(out) != 0 {
					t.Fatalf("output %v, want none", out)
				}
				return
			}
			if len(out) != 1 || out[0].To != 1 {
				t.Fatalf("output %v, want one envelope to n1", out)
			}
			b, ok := out[0].Msg.(protocol.UpdateBatch)
			if !ok || b.SessionID != 0 || !b.Final || len(b.Entries) != tc.want {
				t.Fatalf("answer = %+v, want a final id-0 UpdateBatch of %d entries", out[0].Msg, tc.want)
			}
			for i, e := range b.Entries {
				if want := (vclock.Timestamp{Node: 0, Seq: tc.asker + uint64(i) + 1}); e.TS != want {
					t.Errorf("entry %d = %v, want %v", i, e.TS, want)
				}
			}
		})
	}
	// The count bound returns before MissingGiven builds a list to throw away.
	if over, covered := allocs["difference of more entries than any frame holds"], allocs["asker covered"]; over != covered {
		t.Errorf("turning away a backlog on its count allocates %v per run, a covered asker %v; want equal", over, covered)
	}
}

// TestAdvertPullGainStartsChain plays the whole exchange on a line 0-1-2:
// node 1 pulls what node 0 advertised and hands the gain onward to node 2,
// never back to the source, although the source has the higher demand.
func TestAdvertPullGainStartsChain(t *testing.T) {
	src, mid := allocNode(0, []NodeID{1}), allocNode(1, []NodeID{0, 2})
	src.ClientWrite(0, "k", []byte("v"))
	mid.Table().Update(0, 9, 0)
	mid.Table().Update(2, 4, 0)

	pull := mid.HandleMessage(1, src.AdvertiseDemand(1)[0])
	if len(pull) != 1 {
		t.Fatalf("first advert produced %v, want one pull", pull)
	}
	answer := src.HandleMessage(1, pull[0])
	if len(answer) != 1 {
		t.Fatalf("advertiser answered %v, want one batch", answer)
	}
	chain := mid.HandleMessage(1, answer[0])
	if !mid.Covers(vclock.Timestamp{Node: 0, Seq: 1}) {
		t.Fatal("pulled entry not absorbed")
	}
	if mid.chained[0] {
		t.Error("a pulled gain set origin 0's chain bit")
	}
	if len(chain) != 1 || chain[0].To != 2 {
		t.Fatalf("chain = %v, want one fast update to n2", chain)
	}
	if p, ok := chain[0].Msg.(protocol.FastPayload); !ok || len(p.Entries) != 1 {
		t.Errorf("chain message = %+v, want the gained entry pushed", chain[0].Msg)
	}
	// Covered now: the next advert pulls nothing.
	if out := mid.HandleMessage(2, src.AdvertiseDemand(2)[0]); len(out) != 0 {
		t.Errorf("advert after the gain produced %v", out)
	}
}

// TestAdvertSummaryIsOneSharedClone pins the ownership rule the receivers
// rely on: every envelope of a tick carries the same summary, and later
// writes do not reach into it.
func TestAdvertSummaryIsOneSharedClone(t *testing.T) {
	n := allocNode(1, []NodeID{0, 2})
	n.ClientWrite(0, "k", []byte("v"))
	out := n.AdvertiseDemand(0)
	a, b := out[0].Msg.(protocol.DemandAdvert).Summary, out[1].Msg.(protocol.DemandAdvert).Summary
	if a == nil || a != b {
		t.Fatalf("summaries %p and %p, want one shared clone", a, b)
	}
	n.ClientWrite(1, "k", []byte("w"))
	if got := a.Get(1); got != 1 {
		t.Errorf("advertised summary moved to n1:%d after a later write", got)
	}
}

// TestSessionBooksBoundedByDegree: a session whose tail is lost (loss,
// partition, killed partner) is never closed; the books are keyed by partner,
// so the next session with that partner replaces it and nothing accumulates.
func TestSessionBooksBoundedByDegree(t *testing.T) {
	neighbors := []NodeID{0, 2, 3}
	n := allocNode(1, neighbors)
	r := rand.New(rand.NewSource(1))
	var first protocol.Envelope
	for i := 0; i < 10000; i++ {
		out := n.StartSession(float64(i), r) // every reply is dropped
		if i == 0 {
			first = out[0]
		}
	}
	if got := n.OpenSessions(); got > len(neighbors) {
		t.Fatalf("OpenSessions = %d after 10000 lost sessions, want <= degree %d", got, len(neighbors))
	}
	// The responder's book is bounded the same way.
	for i := 0; i < 10000; i++ {
		n.HandleMessage(0, protocol.Envelope{From: 2, To: 1, Msg: protocol.SessionRequest{SessionID: uint64(i + 1)}})
	}
	if got := n.OpenSessions(); got > 2*len(neighbors) {
		t.Fatalf("OpenSessions = %d, want <= 2 x degree", got)
	}

	// A late reply to the replaced first session is answered as a responder
	// would: the entries the partner lacks, and no summary of ours.
	n.ClientWrite(0, "k", []byte("v"))
	id := first.Msg.(protocol.SessionRequest).SessionID
	before := n.OpenSessions()
	out := n.HandleMessage(0, protocol.Envelope{From: first.To, To: 1,
		Msg: protocol.SummaryMsg{SessionID: id, Summary: vclock.NewSummary()}})
	if len(out) != 1 {
		t.Fatalf("late reply produced %v, want one batch", out)
	}
	if b, ok := out[0].Msg.(protocol.UpdateBatch); !ok || b.SessionID != id || len(b.Entries) != 1 {
		t.Errorf("late reply answered with %+v", out[0].Msg)
	}
	// Its closing batch closes nothing that is current.
	n.HandleMessage(0, protocol.Envelope{From: first.To, To: 1,
		Msg: protocol.UpdateBatch{SessionID: id, Final: true}})
	if n.OpenSessions() != before {
		t.Errorf("late closing batch changed OpenSessions %d -> %d", before, n.OpenSessions())
	}
	// The advert books hold one bit per remote origin and one sequence per
	// origin, however many writes are pulled and pushed.
	for i := uint64(1); i <= 10000; i += 2 {
		n.HandleMessage(0, advertFrom(0, summaryOf(i+1)))
		n.HandleMessage(0, pushOf(i))
		n.HandleMessage(0, batchOf(i+1))
	}
	if got := n.Stats().AdvertPulls; got != 5000 {
		t.Fatalf("AdvertPulls = %d, want 5000", got)
	}
	if origins := n.Summary().Len(); len(n.chained) != 1 || n.asked.Len() != origins {
		t.Fatalf("chain memory holds %d origins, asked %d; want 1 and %d", len(n.chained), n.asked.Len(), origins)
	}
}
