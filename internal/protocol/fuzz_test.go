package protocol

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/vclock"
)

// FuzzEnvelopeDecode: Unmarshal never panics on any input, never builds more
// than the input and the decode bounds allow, and whatever it accepts
// re-marshals to bytes that decode to an equal envelope. Equality is taken on
// the canonical encoding, which covers every field and, unlike ==, holds for
// a NaN demand.
func FuzzEnvelopeDecode(f *testing.F) {
	r := rand.New(rand.NewSource(99))
	for _, msg := range allMessages() {
		good, err := Marshal(Envelope{From: 1, To: 2, Msg: msg})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(good)
		f.Add(good[:len(good)/2])
		bad := append([]byte(nil), good...)
		bad[r.Intn(len(bad))] ^= 1 << r.Intn(8)
		f.Add(bad)
	}
	f.Add(advertWire(func(e *encoder) { e.uvarint(1 << 40) }))
	f.Add(advertWire(func(e *encoder) { e.uvarint(1); e.varint(1 << 30); e.uvarint(3) }))
	f.Add(advertWire(func(e *encoder) { e.uvarint(1); e.varint(-5); e.uvarint(3) }))
	f.Add([]byte{Version, uint8(TypeUpdateBatch), 2, 4, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x1F})

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Unmarshal(data)
		if err != nil {
			return
		}
		checkDecodeBounds(t, env, len(data))
		again, err := Marshal(env)
		if err != nil {
			t.Fatalf("decoded envelope does not marshal: %v", err)
		}
		env2, err := Unmarshal(again)
		if err != nil {
			t.Fatalf("re-marshalled bytes do not decode: %v", err)
		}
		third, err := Marshal(env2)
		if err != nil {
			t.Fatal(err)
		}
		if env2.From != env.From || env2.To != env.To || !bytes.Equal(again, third) {
			t.Fatalf("round trip changed the envelope:\n first %x\nsecond %x", again, third)
		}
	})
}

// checkDecodeBounds fails when a decoded envelope holds more elements than
// its input had bytes or maxBatchEntries allows, or a summary wider than the
// node-id bound: every element costs at least a byte on the wire, so a few
// hostile bytes can never buy a large allocation.
func checkDecodeBounds(t *testing.T, env Envelope, inputLen int) {
	t.Helper()
	elems, summaries := 0, []*vclock.Summary(nil)
	switch m := env.Msg.(type) {
	case SummaryMsg:
		summaries = append(summaries, m.Summary)
	case UpdateBatch:
		elems = len(m.Entries)
	case FastOffer:
		elems = len(m.IDs)
	case FastReply:
		elems = len(m.Wanted)
	case FastPayload:
		elems = len(m.Entries)
	case DemandAdvert:
		summaries = append(summaries, m.Summary)
	case Snapshot:
		elems = len(m.Items)
		summaries = append(summaries, m.Summary)
	}
	if elems > inputLen || elems > maxBatchEntries {
		t.Fatalf("%v decoded %d elements from %d bytes", env, elems, inputLen)
	}
	for _, s := range summaries {
		s.ForEach(func(node vclock.NodeID, _ uint64) {
			if node < 0 || node > maxNodeID {
				t.Fatalf("%v decoded summary origin %v past the node-id bound", env, node)
			}
		})
		if s.Len() > inputLen {
			t.Fatalf("%v decoded %d summary origins from %d bytes", env, s.Len(), inputLen)
		}
	}
}
