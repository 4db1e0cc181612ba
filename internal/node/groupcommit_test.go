package node

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/vclock"
)

func testNode(id NodeID, neighbors []NodeID) *Node {
	return New(Config{
		ID:        id,
		Neighbors: neighbors,
		Selector:  policy.NewDynamicOrdered(id, neighbors),
		FastPush:  true,
		Demand:    func(float64) float64 { return 1 },
	})
}

// TestClientWriteBatchEquivalence commits the same ops through ClientWrite
// one-by-one on one node and through ClientWriteBatch on another: entries
// (timestamps, clocks, content), store state and summaries must be
// identical — a batch is semantically invisible — and the batch fans out
// once, in the shape its size calls for: pushed when it fits a frame,
// offered ids-first when it does not.
func TestClientWriteBatchEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name      string
		valueSize int
		push      bool
	}{
		{"frame-sized batch", 2, true},
		{"over-frame batch", 200, false},
	} {
		t.Run(tc.name, func(t *testing.T) { checkBatchEquivalence(t, tc.valueSize, tc.push) })
	}
}

func checkBatchEquivalence(t *testing.T, valueSize int, push bool) {
	nbrs := []NodeID{1, 2}
	serial := testNode(0, nbrs)
	batched := testNode(0, nbrs)
	// Teach both nodes the same neighbour demands so fast updates match.
	for _, n := range []*Node{serial, batched} {
		n.noteDemand(1, 5, 0)
		n.noteDemand(2, 9, 0)
	}

	ops := make([]WriteOp, 16)
	for i := range ops {
		ops[i] = WriteOp{Key: fmt.Sprintf("k%02d", i%5), Value: bytes.Repeat([]byte{byte('a' + i)}, valueSize)}
	}

	var serialEntries []struct {
		ts    string
		clock uint64
	}
	for _, op := range ops {
		e, _ := serial.ClientWrite(0, op.Key, op.Value)
		serialEntries = append(serialEntries, struct {
			ts    string
			clock uint64
		}{e.TS.String(), e.Clock})
	}

	entries, out := batched.ClientWriteBatch(0, ops)
	if len(entries) != len(ops) {
		t.Fatalf("batch returned %d entries, want %d", len(entries), len(ops))
	}
	for i, e := range entries {
		if e.TS.String() != serialEntries[i].ts || e.Clock != serialEntries[i].clock {
			t.Errorf("entry %d: batch (%v, clock %d) != serial (%s, clock %d)",
				i, e.TS, e.Clock, serialEntries[i].ts, serialEntries[i].clock)
		}
		if e.Key != ops[i].Key || !bytes.Equal(e.Value, ops[i].Value) {
			t.Errorf("entry %d: content %s=%q, want %s=%q", i, e.Key, e.Value, ops[i].Key, ops[i].Value)
		}
	}
	if got, want := batched.Summary().String(), serial.Summary().String(); got != want {
		t.Errorf("summaries differ: batch %s, serial %s", got, want)
	}
	if got, want := batched.Store().Digest(), serial.Store().Digest(); got != want {
		t.Errorf("store digests differ: batch %x, serial %x", got, want)
	}
	if batched.Clock() != serial.Clock() {
		t.Errorf("lamport clocks differ: batch %d, serial %d", batched.Clock(), serial.Clock())
	}

	// The batch must fan out ONE merged envelope, to the same best-demand
	// neighbour the serial path chose, carrying every new write in order.
	if len(out) != 1 {
		t.Fatalf("batch emitted %d envelopes, want 1 merged fast update", len(out))
	}
	if out[0].To != 2 {
		t.Errorf("fast update sent to %v, want highest-demand neighbour 2", out[0].To)
	}
	var ids []vclock.Timestamp
	switch m := out[0].Msg.(type) {
	case protocol.FastPayload:
		if !push {
			t.Fatalf("over-frame batch was pushed, want FastOffer")
		}
		for i, e := range m.Entries {
			ids = append(ids, e.TS)
			if i < len(ops) && !bytes.Equal(e.Value, ops[i].Value) {
				t.Errorf("pushed entry %d carries %q, want %q", i, e.Value, ops[i].Value)
			}
		}
	case protocol.FastOffer:
		if push {
			t.Fatalf("frame-sized batch was offered, want FastPayload")
		}
		ids = m.IDs
	default:
		t.Fatalf("batch emitted %T", out[0].Msg)
	}
	if len(ids) != len(ops) {
		t.Fatalf("fast update carries %d writes, want %d", len(ids), len(ops))
	}
	for i, ts := range ids {
		if ts != entries[i].TS {
			t.Errorf("fast update position %d names %v, want %v", i, ts, entries[i].TS)
		}
	}
	wantPushes, wantOffers := uint64(0), uint64(1)
	if push {
		wantPushes, wantOffers = 1, 0
	}
	if st := batched.Stats(); st.FastPushesSent != wantPushes || st.FastOffersSent != wantOffers {
		t.Errorf("batch sent %d pushes, %d offers, want %d, %d", st.FastPushesSent, st.FastOffersSent, wantPushes, wantOffers)
	}
	// Per op every write fits a frame on its own: 16 pushes, whatever the
	// batch did.
	if st := serial.Stats(); st.FastPushesSent != uint64(len(ops)) || st.FastOffersSent != 0 {
		t.Errorf("serial path sent %d pushes, %d offers, want %d, 0", st.FastPushesSent, st.FastOffersSent, len(ops))
	}
}

// TestClientWriteBatchEmpty checks the zero-op edge.
func TestClientWriteBatchEmpty(t *testing.T) {
	n := testNode(0, []NodeID{1})
	entries, out := n.ClientWriteBatch(0, nil)
	if entries != nil || out != nil {
		t.Fatalf("empty batch produced %v, %v", entries, out)
	}
	if n.Clock() != 0 {
		t.Fatalf("empty batch advanced the clock to %d", n.Clock())
	}
}

// TestClientWriteBatchValueOwnership ensures batched values are copied: the
// caller may reuse its buffer after the call (same contract as ClientWrite).
func TestClientWriteBatchValueOwnership(t *testing.T) {
	n := testNode(0, []NodeID{1})
	buf := []byte("original")
	entries, _ := n.ClientWriteBatch(0, []WriteOp{{Key: "k", Value: buf}})
	copy(buf, "CLOBBER!")
	if got, _ := n.Store().Get("k"); string(got) != "original" {
		t.Fatalf("store value %q mutated by caller buffer reuse", got)
	}
	if string(entries[0].Value) != "original" {
		t.Fatalf("entry value %q mutated by caller buffer reuse", entries[0].Value)
	}
}
