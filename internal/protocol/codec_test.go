package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/wlog"
)

func ts(node, seq int) vclock.Timestamp {
	return vclock.Timestamp{Node: vclock.NodeID(node), Seq: uint64(seq)}
}

func sampleSummary() *vclock.Summary {
	s := vclock.NewSummary()
	s.Observe(ts(0, 1))
	s.Observe(ts(0, 2))
	s.Observe(ts(3, 1))
	return s
}

func sampleEntries() []wlog.Entry {
	return []wlog.Entry{
		{TS: ts(1, 1), Key: "alpha", Value: []byte("value-1"), Clock: 10},
		{TS: ts(2, 4), Key: "", Value: nil, Clock: 0},
		{TS: ts(1, 2), Key: "k", Value: []byte{0, 255, 127}, Clock: 999999},
	}
}

func allMessages() []Message {
	return []Message{
		SessionRequest{SessionID: 42, Demand: 13.5},
		SummaryMsg{SessionID: 42, Summary: sampleSummary(), Demand: 2},
		UpdateBatch{SessionID: 42, Entries: sampleEntries(), Final: true, Demand: 1},
		UpdateBatch{SessionID: 7, Entries: nil, Final: false, Demand: 0},
		FastOffer{IDs: []vclock.Timestamp{ts(1, 1), ts(2, 9)}, Demand: 8, Hops: 3},
		FastOffer{},
		FastReply{Accept: true, Wanted: []vclock.Timestamp{ts(1, 1)}, Demand: 4},
		FastReply{Accept: false},
		FastPayload{Entries: sampleEntries()[:1], Demand: 5, Hops: 1},
		DemandAdvert{Demand: 77.25},
		DemandAdvert{Demand: 77.25, Summary: sampleSummary()},
		DemandAdvert{Summary: vclock.NewSummary()},
		Snapshot{SessionID: 9, Summary: sampleSummary(), Items: []store.Item{
			{Key: "a", Value: []byte("v1"), TS: ts(1, 1), Clock: 3},
			{Key: "b", Value: nil, TS: ts(2, 4), Clock: 9},
		}, Demand: 1.5},
		Snapshot{Summary: sampleSummary()},
	}
}

func TestRoundTripAllMessageTypes(t *testing.T) {
	for _, msg := range allMessages() {
		msg := msg
		t.Run(msg.MsgType().String(), func(t *testing.T) {
			env := Envelope{From: 3, To: 9, Msg: msg}
			buf, err := Marshal(env)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			got, err := Unmarshal(buf)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if got.From != 3 || got.To != 9 {
				t.Errorf("routing = %v->%v, want n3->n9", got.From, got.To)
			}
			assertMessagesEqual(t, msg, got.Msg)
		})
	}
}

// assertMessagesEqual compares messages, treating nil and empty slices as
// equal and comparing summaries by lattice equality.
func assertMessagesEqual(t *testing.T, want, got Message) {
	t.Helper()
	if want.MsgType() != got.MsgType() {
		t.Fatalf("type = %v, want %v", got.MsgType(), want.MsgType())
	}
	if w, ok := want.(SummaryMsg); ok {
		g := got.(SummaryMsg)
		if w.SessionID != g.SessionID || w.Demand != g.Demand {
			t.Fatalf("summary fields: got %+v, want %+v", g, w)
		}
		if w.Summary.Compare(g.Summary) != vclock.Equal {
			t.Fatalf("summary vector: got %v, want %v", g.Summary, w.Summary)
		}
		return
	}
	if w, ok := want.(DemandAdvert); ok {
		g := got.(DemandAdvert)
		if w.Demand != g.Demand || (w.Summary == nil) != (g.Summary == nil) {
			t.Fatalf("advert fields: got %+v, want %+v", g, w)
		}
		if w.Summary.Compare(g.Summary) != vclock.Equal {
			t.Fatalf("advert summary: got %v, want %v", g.Summary, w.Summary)
		}
		return
	}
	if !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, want)
	}
}

// normalize maps empty slices to nil (including entry values) so DeepEqual
// ignores the distinction; the codec decodes zero-length values as nil.
func normalizeEntries(entries []wlog.Entry) []wlog.Entry {
	if len(entries) == 0 {
		return nil
	}
	out := make([]wlog.Entry, len(entries))
	for i, e := range entries {
		if len(e.Value) == 0 {
			e.Value = nil
		}
		out[i] = e
	}
	return out
}

func normalize(m Message) Message {
	switch v := m.(type) {
	case UpdateBatch:
		v.Entries = normalizeEntries(v.Entries)
		return v
	case FastOffer:
		if len(v.IDs) == 0 {
			v.IDs = nil
		}
		return v
	case FastReply:
		if len(v.Wanted) == 0 {
			v.Wanted = nil
		}
		return v
	case FastPayload:
		v.Entries = normalizeEntries(v.Entries)
		return v
	}
	return m
}

func TestMarshalDeterministic(t *testing.T) {
	env := Envelope{From: 1, To: 2, Msg: SummaryMsg{SessionID: 5, Summary: sampleSummary()}}
	a, err := Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Marshal is not deterministic for summaries")
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	good, err := Marshal(Envelope{From: 1, To: 2, Msg: DemandAdvert{Demand: 1}})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("empty", func(t *testing.T) {
		if _, err := Unmarshal(nil); err == nil {
			t.Error("empty input accepted")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte{99}, good[1:]...)
		if _, err := Unmarshal(bad); !errors.Is(err, ErrBadVersion) {
			t.Errorf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("bad type", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[1] = 200
		if _, err := Unmarshal(bad); !errors.Is(err, ErrBadType) {
			t.Errorf("err = %v, want ErrBadType", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 2; cut < len(good); cut++ {
			if _, err := Unmarshal(good[:cut]); err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 0xFF)
		if _, err := Unmarshal(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("oversized", func(t *testing.T) {
		if _, err := Unmarshal(make([]byte, MaxEnvelopeSize+1)); !errors.Is(err, ErrTooLarge) {
			t.Errorf("err = %v, want ErrTooLarge", err)
		}
	})
}

func TestUnmarshalRejectsHugeDeclaredLengths(t *testing.T) {
	// A batch header declaring 2^40 entries must be rejected before
	// allocating anything.
	e := &encoder{}
	e.u8(Version)
	e.u8(uint8(TypeUpdateBatch))
	e.varint(1)
	e.varint(2)
	e.uvarint(1)       // session
	e.uvarint(1 << 40) // entry count
	if _, err := Unmarshal(e.buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
	// An advert's summary is bounded as a session's is.
	if _, err := Unmarshal(advertWire(func(e *encoder) { e.uvarint(1 << 40) })); !errors.Is(err, ErrCorrupt) {
		t.Errorf("advert summary of 2^40 pairs: err = %v, want ErrCorrupt", err)
	}
}

// advertWire hand-encodes a demand advert whose presence flag is set and
// whose summary bytes are whatever summary writes.
func advertWire(summary func(e *encoder)) []byte {
	e := &encoder{}
	e.u8(Version)
	e.u8(uint8(TypeDemandAdvert))
	e.varint(1) // from
	e.varint(2) // to
	e.f64(1.25) // demand
	e.bool(true)
	summary(e)
	return e.buf
}

func TestUnmarshalRejectsHostileNodeIDs(t *testing.T) {
	// Summaries are dense vectors indexed by NodeID, so a decoded id must be
	// non-negative and bounded — otherwise a hostile peer could force a
	// multi-gigabyte allocation (or a panic) with a few bytes.
	t.Run("negative timestamp node", func(t *testing.T) {
		env := Envelope{From: 1, To: 2, Msg: FastOffer{
			IDs: []vclock.Timestamp{{Node: -5, Seq: 1}},
		}}
		buf, err := Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("huge timestamp node", func(t *testing.T) {
		env := Envelope{From: 1, To: 2, Msg: FastOffer{
			IDs: []vclock.Timestamp{{Node: 1 << 25, Seq: 1}},
		}}
		buf, err := Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("huge summary origin", func(t *testing.T) {
		e := &encoder{}
		e.u8(Version)
		e.u8(uint8(TypeSummary))
		e.varint(1)       // from
		e.varint(2)       // to
		e.uvarint(7)      // session
		e.uvarint(1)      // one pair
		e.varint(1 << 30) // hostile origin id
		e.uvarint(3)      // seq
		e.f64(1.25)       // demand
		if _, err := Unmarshal(e.buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	for name, origin := range map[string]int64{"huge": 1 << 30, "just past the bound": maxNodeID + 1, "negative": -5} {
		t.Run(name+" advert summary origin", func(t *testing.T) {
			buf := advertWire(func(e *encoder) {
				e.uvarint(1) // one pair
				e.varint(origin)
				e.uvarint(3)
			})
			if _, err := Unmarshal(buf); !errors.Is(err, ErrCorrupt) {
				t.Errorf("err = %v, want ErrCorrupt", err)
			}
		})
	}
	t.Run("advert summary origin at the bound", func(t *testing.T) {
		buf := advertWire(func(e *encoder) {
			e.uvarint(1)
			e.varint(maxNodeID)
			e.uvarint(3)
		})
		env, err := Unmarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := env.Msg.(DemandAdvert).Summary.Get(maxNodeID); got != 3 {
			t.Errorf("summary[maxNodeID] = %d, want 3", got)
		}
	})
}

func TestMarshalReturnsCallerOwnedBuffer(t *testing.T) {
	// Marshal builds in a pooled scratch buffer; the returned bytes must be
	// a private copy, unaffected by later Marshal/WriteEnvelope calls.
	env := Envelope{From: 1, To: 2, Msg: SummaryMsg{SessionID: 5, Summary: sampleSummary()}}
	first, err := Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), first...)
	for i := 0; i < 10; i++ {
		if _, err := Marshal(Envelope{From: 9, To: 8, Msg: DemandAdvert{Demand: float64(i)}}); err != nil {
			t.Fatal(err)
		}
		var sink bytes.Buffer
		if err := WriteEnvelope(&sink, Envelope{From: 3, To: 4, Msg: SessionRequest{SessionID: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first, want) {
		t.Error("Marshal result was clobbered by later pooled encodes")
	}
}

func TestWriteEnvelopeMatchesMarshalFraming(t *testing.T) {
	for _, msg := range allMessages() {
		env := Envelope{From: 1, To: 2, Msg: msg}
		body, err := Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		var framed bytes.Buffer
		if err := WriteEnvelope(&framed, env); err != nil {
			t.Fatal(err)
		}
		var hdr [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(hdr[:], uint64(len(body)))
		want := append(hdr[:n:n], body...)
		if !bytes.Equal(framed.Bytes(), want) {
			t.Errorf("%T: WriteEnvelope bytes differ from uvarint(len)+Marshal", msg)
		}
	}
}

func TestUnmarshalFuzzNoPanic(t *testing.T) {
	// The decoder must return errors, never panic, on arbitrary input.
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, r.Intn(64))
		r.Read(buf)
		_, _ = Unmarshal(buf) // must not panic
	}
	// Also flip bits of valid messages.
	for _, msg := range allMessages() {
		good, err := Marshal(Envelope{From: 1, To: 2, Msg: msg})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(good); i++ {
			for bit := 0; bit < 8; bit++ {
				bad := append([]byte(nil), good...)
				bad[i] ^= 1 << bit
				_, _ = Unmarshal(bad) // must not panic
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		entries := make([]wlog.Entry, r.Intn(5))
		for i := range entries {
			key := make([]byte, r.Intn(10))
			val := make([]byte, r.Intn(20))
			r.Read(key)
			r.Read(val)
			entries[i] = wlog.Entry{
				TS:    ts(r.Intn(100), 1+r.Intn(1000)),
				Key:   string(key),
				Value: val,
				Clock: uint64(r.Intn(1 << 30)),
			}
		}
		env := Envelope{
			From: vclock.NodeID(r.Intn(1000)),
			To:   vclock.NodeID(r.Intn(1000)),
			Msg:  UpdateBatch{SessionID: uint64(r.Intn(1 << 20)), Entries: entries, Final: r.Intn(2) == 0, Demand: r.Float64() * 100},
		}
		buf, err := Marshal(env)
		if err != nil {
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return got.From == env.From && got.To == env.To &&
			reflect.DeepEqual(normalize(env.Msg), normalize(got.Msg))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("round-trip property: %v", err)
	}
}

func TestStreamFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := allMessages()
	for i, m := range msgs {
		env := Envelope{From: vclock.NodeID(i), To: vclock.NodeID(i + 1), Msg: m}
		if err := WriteEnvelope(&buf, env); err != nil {
			t.Fatalf("WriteEnvelope(%d): %v", i, err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range msgs {
		env, err := ReadEnvelope(r)
		if err != nil {
			t.Fatalf("ReadEnvelope(%d): %v", i, err)
		}
		if env.From != vclock.NodeID(i) {
			t.Errorf("frame %d From = %v, want n%d", i, env.From, i)
		}
		assertMessagesEqual(t, want, env.Msg)
	}
	if _, err := ReadEnvelope(r); err == nil {
		t.Error("ReadEnvelope past end should fail")
	}
}

func TestReadEnvelopeTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, Envelope{From: 1, To: 2, Msg: DemandAdvert{Demand: 5}}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := bufio.NewReader(bytes.NewReader(full[:cut]))
		if _, err := ReadEnvelope(r); err == nil {
			t.Errorf("truncated stream at %d accepted", cut)
		}
	}
}

func TestTypeString(t *testing.T) {
	want := map[Type]string{
		TypeSessionRequest: "session-request",
		TypeSummary:        "summary",
		TypeUpdateBatch:    "update-batch",
		TypeFastOffer:      "fast-offer",
		TypeFastReply:      "fast-reply",
		TypeFastPayload:    "fast-payload",
		TypeDemandAdvert:   "demand-advert",
		Type(0):            "Type(0)",
	}
	for typ, name := range want {
		if got := typ.String(); got != name {
			t.Errorf("Type(%d).String() = %q, want %q", uint8(typ), got, name)
		}
	}
}

func TestEnvelopeString(t *testing.T) {
	env := Envelope{From: 1, To: 2, Msg: DemandAdvert{}}
	if got := env.String(); got != "n1->n2 demand-advert" {
		t.Errorf("String() = %q", got)
	}
}

func TestWireCompactness(t *testing.T) {
	// §8: "it requires few additional bytes in the exchange of messages".
	// A demand advert must stay under 24 bytes on the wire.
	buf, err := Marshal(Envelope{From: 5, To: 6, Msg: DemandAdvert{Demand: 123.456}})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 24 {
		t.Errorf("demand advert wire size = %d bytes, want <= 24", len(buf))
	}
	// A fast offer of one id stays under 32 bytes.
	buf, err = Marshal(Envelope{From: 5, To: 6, Msg: FastOffer{IDs: []vclock.Timestamp{ts(3, 7)}, Demand: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 32 {
		t.Errorf("single-id fast offer wire size = %d bytes, want <= 32", len(buf))
	}
}

func BenchmarkMarshalUpdateBatch(b *testing.B) {
	env := Envelope{From: 1, To: 2, Msg: UpdateBatch{SessionID: 1, Entries: sampleEntries(), Final: true}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalUpdateBatch(b *testing.B) {
	buf, err := Marshal(Envelope{From: 1, To: 2, Msg: UpdateBatch{SessionID: 1, Entries: sampleEntries(), Final: true}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
