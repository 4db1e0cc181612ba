package node

import (
	"math/rand"
	"testing"

	"repro/internal/protocol"
	"repro/internal/vclock"
)

// summaryOf builds a summary covering origin 0 through seq.
func summaryOf(seq uint64) *vclock.Summary {
	s := vclock.NewSummary()
	s.Advance(0, seq)
	return s
}

func advertFrom(from NodeID, s *vclock.Summary) protocol.Envelope {
	return protocol.Envelope{From: from, To: 1, Msg: protocol.DemandAdvert{Demand: 3, Summary: s}}
}

// TestAdvertPull is the receiver's half: node 1 (neighbours 0 and 2) is fed
// envelopes in order and only the last one's output is checked. A pull is one
// SummaryMsg with session id 0, to the advertiser, carrying node 1's summary.
func TestAdvertPull(t *testing.T) {
	push := protocol.Envelope{From: 2, To: 1, Msg: protocol.FastPayload{Entries: wlogEntry("k", 0, 1)}}
	cases := []struct {
		name     string
		feed     []protocol.Envelope
		pullFrom NodeID // -1: the last envelope must produce nothing
	}{
		{"advert without summary", []protocol.Envelope{advertFrom(0, nil), advertFrom(0, nil)}, -1},
		{"first advert from a neighbour", []protocol.Envelope{advertFrom(0, summaryOf(1))}, -1},
		{"summary after a demand-only advert", []protocol.Envelope{advertFrom(0, nil), advertFrom(0, summaryOf(1))}, -1},
		{"previous summary covered", []protocol.Envelope{push, advertFrom(0, summaryOf(1)), advertFrom(0, summaryOf(2))}, -1},
		{"gap stood one interval", []protocol.Envelope{advertFrom(0, summaryOf(1)), advertFrom(0, summaryOf(1))}, 0},
		{"gap closed by a push between adverts", []protocol.Envelope{advertFrom(0, summaryOf(1)), push, advertFrom(0, summaryOf(1))}, -1},
		{"another neighbour's first advert", []protocol.Envelope{advertFrom(0, summaryOf(1)), advertFrom(2, summaryOf(1))}, -1},
		{"demand-only advert keeps the summary on file", []protocol.Envelope{advertFrom(0, summaryOf(1)), advertFrom(0, nil), advertFrom(0, summaryOf(1))}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := allocNode(1, []NodeID{0, 2})
			var out []protocol.Envelope
			for _, env := range tc.feed {
				out = n.HandleMessage(0, env)
			}
			if tc.pullFrom < 0 {
				if len(out) != 0 || n.Stats().AdvertPulls != 0 {
					t.Fatalf("output %v, AdvertPulls %d; want no pull", out, n.Stats().AdvertPulls)
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
			if n.Stats().AdvertPulls != 1 || n.OpenSessions() != 0 {
				t.Errorf("AdvertPulls %d, OpenSessions %d; want 1 and 0", n.Stats().AdvertPulls, n.OpenSessions())
			}
		})
	}
}

// TestAdvertPullAnswer is the advertiser's half: an id-0 summary is answered
// with exactly the entries the asker lacks in one batch, or with nothing —
// never an empty closing batch, never a Snapshot, never more than one frame.
func TestAdvertPullAnswer(t *testing.T) {
	cases := []struct {
		name     string
		asker    uint64 // the asker covers origin 0 through here
		value    int    // bytes per write
		truncate bool
		want     int // entries in the one UpdateBatch; 0: no output at all
	}{
		{"asker behind", 1, 1, false, 2},
		{"asker covered", 3, 1, false, 0},
		{"log truncated below the asker", 1, 1, true, 0},
		{"difference over one frame", 1, framePayload/2 + 1, false, 0},
		{"difference of one frame", 1, framePayload/2 - 11, false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := allocNode(0, []NodeID{1})
			for i := 0; i < 3; i++ {
				n.ClientWrite(0, "k", make([]byte, tc.value))
			}
			if tc.truncate {
				n.Log().TruncateCovered(n.Summary())
			}
			out := n.HandleMessage(0, protocol.Envelope{From: 1, To: 0,
				Msg: protocol.SummaryMsg{Summary: summaryOf(tc.asker), Demand: 2}})
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
}

// TestAdvertPullGainStartsChain plays the whole exchange on a line 0-1-2:
// node 1 pulls what node 0 advertised and hands the gain onward to node 2,
// never back to the source, although the source has the higher demand.
func TestAdvertPullGainStartsChain(t *testing.T) {
	src, mid := allocNode(0, []NodeID{1}), allocNode(1, []NodeID{0, 2})
	src.ClientWrite(0, "k", []byte("v"))
	mid.Table().Update(0, 9, 0)
	mid.Table().Update(2, 4, 0)

	adverts := src.AdvertiseDemand(0)
	if out := mid.HandleMessage(0, adverts[0]); len(out) != 0 {
		t.Fatalf("first advert produced %v", out)
	}
	pull := mid.HandleMessage(1, src.AdvertiseDemand(1)[0])
	if len(pull) != 1 {
		t.Fatalf("second advert produced %v, want one pull", pull)
	}
	answer := src.HandleMessage(1, pull[0])
	if len(answer) != 1 {
		t.Fatalf("advertiser answered %v, want one batch", answer)
	}
	chain := mid.HandleMessage(1, answer[0])
	if !mid.Covers(vclock.Timestamp{Node: 0, Seq: 1}) {
		t.Fatal("pulled entry not absorbed")
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
}
