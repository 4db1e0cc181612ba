package node

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/vclock"
)

// allocNode builds a minimal replica for allocation-regression tests.
func allocNode(id NodeID, neighbors []NodeID) *Node {
	return New(Config{
		ID:        id,
		Neighbors: neighbors,
		Selector:  policy.NewRandom(id, neighbors),
		FastPush:  true,
		Demand:    func(float64) float64 { return 1 },
	})
}

// TestHandleDemandAdvertAllocs guards the cheapest, most frequent protocol
// message: a demand advertisement that draws no pull — no summary, a summary
// the log covers, each neighbour's first naming a write that may be in flight,
// or one further ahead than a frame could repair — must be absorbed without
// allocating and without output.
func TestHandleDemandAdvertAllocs(t *testing.T) {
	const runs = 100
	many := make([]NodeID, runs+2) // AllocsPerRun calls once more to warm up
	for i := range many {
		many[i] = NodeID(i + 2)
	}
	cases := []struct {
		name      string
		neighbors []NodeID
		advert    protocol.Message // boxed once, as a transport delivers it
		nextFrom  func(i int) NodeID
	}{
		{"no summary", []NodeID{0, 2}, protocol.DemandAdvert{Demand: 3}, func(int) NodeID { return 2 }},
		{"first from each neighbour", many, protocol.DemandAdvert{Demand: 3, Summary: summaryOf(5)}, func(i int) NodeID { return many[i] }},
		{"previous summary covered", []NodeID{0, 2}, protocol.DemandAdvert{Demand: 3, Summary: summaryAt(1, 1)}, func(int) NodeID { return 2 }},
		{"gap of more entries than any frame holds", []NodeID{0, 2}, protocol.DemandAdvert{Demand: 3, Summary: summaryOf(maxFrameEntries + 2)}, func(int) NodeID { return 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := allocNode(1, tc.neighbors)
			n.ClientWrite(0, "k", []byte("v")) // n covers n1:1
			// Origin 0's writes reach n by chain, so one an advert names may
			// be in flight.
			n.HandleMessage(0, pushOf(1))
			i, emitted := 0, 0
			avg := testing.AllocsPerRun(runs, func() {
				env := protocol.Envelope{From: tc.nextFrom(i), To: 1, Msg: tc.advert}
				i++
				emitted += len(n.HandleMessage(1, env))
			})
			if avg != 0 || emitted != 0 {
				t.Errorf("HandleMessage(DemandAdvert) allocates %v per run and emitted %d envelopes, want 0 and 0", avg, emitted)
			}
			if n.Stats().AdvertPulls != 0 {
				t.Errorf("AdvertPulls = %d, want 0", n.Stats().AdvertPulls)
			}
		})
	}
}

// TestCoversAllocs guards the per-delivery convergence probe of the
// Monte-Carlo inner loop.
func TestCoversAllocs(t *testing.T) {
	n := allocNode(1, []NodeID{0})
	e, _ := n.ClientWrite(0, "k", []byte("v"))
	if avg := testing.AllocsPerRun(100, func() { _ = n.Covers(e.TS) }); avg != 0 {
		t.Errorf("Covers allocates %v per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = n.SummaryTotal() }); avg != 0 {
		t.Errorf("SummaryTotal allocates %v per run, want 0", avg)
	}
}

// TestDeclinedFastOfferAllocs guards the fast-update NO path: an offer whose
// ids are all covered produces one reply envelope and nothing else; the
// wanted-subset scan must not allocate.
func TestDeclinedFastOfferAllocs(t *testing.T) {
	n := allocNode(1, []NodeID{0, 2})
	e, _ := n.ClientWrite(0, "k", []byte("v"))
	ids := []vclock.Timestamp{e.TS}
	env := protocol.Envelope{From: 2, To: 1, Msg: protocol.FastOffer{IDs: ids, Demand: 2}}
	n.HandleMessage(0, env)
	avg := testing.AllocsPerRun(100, func() { n.HandleMessage(1, env) })
	// Two allocations are inherent to the API: the returned envelope slice
	// and boxing the FastReply into the Message interface. Anything beyond
	// those is a regression (e.g. a wanted-subset slice for an empty subset).
	if avg > 2 {
		t.Errorf("HandleMessage(declined FastOffer) allocates %v per run, want <= 2", avg)
	}
}
