package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/wlog"
)

// Wire format: every envelope is
//
//	version(1) type(1) from(varint-zigzag) to(varint-zigzag) body
//
// Integers are unsigned varints unless noted; node ids use zigzag varints so
// small ids stay single-byte. Strings and byte slices are length-prefixed.
// The stream framing (WriteEnvelope/ReadEnvelope) adds a uvarint total
// length so messages can be framed over TCP.

// Wire version and decode bounds.
const (
	// Version is the wire protocol version byte.
	Version = 1
	// MaxEnvelopeSize bounds decoded envelopes to keep a malicious or
	// corrupt peer from forcing huge allocations.
	MaxEnvelopeSize = 16 << 20
	// maxBatchEntries bounds per-batch entry counts on decode.
	maxBatchEntries = 1 << 20
	// maxNodeID bounds decoded replica ids. NodeIDs are small dense
	// integers, and summary vectors are dense arrays indexed by id — an
	// unchecked hostile id would force a multi-gigabyte vector allocation.
	// 1<<16 replicas is far beyond any deployment here and caps a decoded
	// summary vector at 512 KiB.
	maxNodeID = 1 << 16
	// maxPooledBuf caps the capacity of buffers returned to the codec
	// pools, so one near-MaxEnvelopeSize message cannot pin megabytes of
	// scratch memory for the rest of the process lifetime.
	maxPooledBuf = 64 << 10
)

// Errors returned by the codec.
var (
	ErrBadVersion = errors.New("protocol: unsupported wire version")
	ErrBadType    = errors.New("protocol: unknown message type")
	ErrCorrupt    = errors.New("protocol: corrupt message")
	ErrTooLarge   = errors.New("protocol: message exceeds size limit")
)

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}
func (e *encoder) varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}
func (e *encoder) f64(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *encoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) ts(t vclock.Timestamp) {
	e.varint(int64(t.Node))
	e.uvarint(t.Seq)
}
func (e *encoder) entry(en wlog.Entry) {
	e.ts(en.TS)
	e.str(en.Key)
	e.bytes(en.Value)
	e.uvarint(en.Clock)
}
func (e *encoder) summary(s *vclock.Summary) {
	// The dense vector iterates its origins in ascending order, so the wire
	// bytes are deterministic with no intermediate map or sort.
	e.uvarint(uint64(s.Len()))
	s.ForEach(func(node vclock.NodeID, seq uint64) {
		e.varint(int64(node))
		e.uvarint(seq)
	})
}

// encPool recycles encoder buffers across Marshal/WriteEnvelope calls; the
// protocol hot path would otherwise regrow a fresh buffer per message.
var encPool = sync.Pool{New: func() any { return &encoder{buf: make([]byte, 0, 512)} }}

// putEncoder returns e to the pool unless its buffer grew past maxPooledBuf
// (one oversized message must not pin a large buffer forever).
func putEncoder(e *encoder) {
	if cap(e.buf) <= maxPooledBuf {
		encPool.Put(e)
	}
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, d.off)
	}
}
func (d *decoder) u8() uint8 {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}
func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}
func (d *decoder) f64() float64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("f64")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("bytes length")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += int(n)
	return out
}
func (d *decoder) str() string { return string(d.bytes()) }
func (d *decoder) bool() bool  { return d.u8() != 0 }
func (d *decoder) nodeID() vclock.NodeID {
	node := d.varint()
	if node < 0 || node > maxNodeID {
		d.fail("node id out of range")
		return 0
	}
	return vclock.NodeID(node)
}
func (d *decoder) ts() vclock.Timestamp {
	node := d.nodeID()
	seq := d.uvarint()
	return vclock.Timestamp{Node: node, Seq: seq}
}
func (d *decoder) entry() wlog.Entry {
	return wlog.Entry{TS: d.ts(), Key: d.str(), Value: d.bytes(), Clock: d.uvarint()}
}
func (d *decoder) summary() *vclock.Summary {
	n := d.uvarint()
	if n > maxBatchEntries {
		d.fail("summary size")
		return nil
	}
	s := vclock.NewSummary()
	for i := uint64(0); i < n && d.err == nil; i++ {
		node := d.nodeID()
		seq := d.uvarint()
		if d.err == nil {
			s.Advance(node, seq)
		}
	}
	return s
}

// Marshal encodes an envelope to wire bytes. The returned slice is freshly
// allocated and owned by the caller; the scratch buffer used to build it is
// pooled. Writers on the hot path use WriteEnvelope, which skips the copy.
func Marshal(env Envelope) ([]byte, error) {
	e := encPool.Get().(*encoder)
	defer putEncoder(e)
	if err := e.envelope(env); err != nil {
		return nil, err
	}
	return append([]byte(nil), e.buf...), nil
}

// envelope resets e and encodes env into its buffer.
func (e *encoder) envelope(env Envelope) error {
	e.buf = e.buf[:0]
	e.u8(Version)
	e.u8(uint8(env.Msg.MsgType()))
	e.varint(int64(env.From))
	e.varint(int64(env.To))
	switch m := env.Msg.(type) {
	case SessionRequest:
		e.uvarint(m.SessionID)
		e.f64(m.Demand)
	case SummaryMsg:
		e.uvarint(m.SessionID)
		e.summary(m.Summary)
		e.f64(m.Demand)
	case UpdateBatch:
		e.uvarint(m.SessionID)
		e.uvarint(uint64(len(m.Entries)))
		for _, en := range m.Entries {
			e.entry(en)
		}
		e.bool(m.Final)
		e.f64(m.Demand)
	case FastOffer:
		e.uvarint(uint64(len(m.IDs)))
		for _, ts := range m.IDs {
			e.ts(ts)
		}
		e.f64(m.Demand)
		e.uvarint(uint64(m.Hops))
	case FastReply:
		e.bool(m.Accept)
		e.uvarint(uint64(len(m.Wanted)))
		for _, ts := range m.Wanted {
			e.ts(ts)
		}
		e.f64(m.Demand)
		e.uvarint(uint64(m.Hops))
	case FastPayload:
		e.uvarint(uint64(len(m.Entries)))
		for _, en := range m.Entries {
			e.entry(en)
		}
		e.f64(m.Demand)
		e.uvarint(uint64(m.Hops))
	case DemandAdvert:
		e.f64(m.Demand)
		e.bool(m.Summary != nil)
		if m.Summary != nil {
			e.summary(m.Summary)
		}
	case Snapshot:
		e.uvarint(m.SessionID)
		e.summary(m.Summary)
		e.uvarint(uint64(len(m.Items)))
		for _, item := range m.Items {
			e.str(item.Key)
			e.bytes(item.Value)
			e.ts(item.TS)
			e.uvarint(item.Clock)
		}
		e.f64(m.Demand)
	default:
		return fmt.Errorf("%w: %T", ErrBadType, env.Msg)
	}
	if len(e.buf) > MaxEnvelopeSize {
		return ErrTooLarge
	}
	return nil
}

// Unmarshal decodes wire bytes into an envelope.
func Unmarshal(buf []byte) (Envelope, error) {
	if len(buf) > MaxEnvelopeSize {
		return Envelope{}, ErrTooLarge
	}
	d := &decoder{buf: buf}
	if v := d.u8(); v != Version {
		if d.err != nil {
			return Envelope{}, d.err
		}
		return Envelope{}, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	typ := Type(d.u8())
	env := Envelope{
		From: vclock.NodeID(d.varint()),
		To:   vclock.NodeID(d.varint()),
	}
	switch typ {
	case TypeSessionRequest:
		env.Msg = SessionRequest{SessionID: d.uvarint(), Demand: d.f64()}
	case TypeSummary:
		env.Msg = SummaryMsg{SessionID: d.uvarint(), Summary: d.summary(), Demand: d.f64()}
	case TypeUpdateBatch:
		m := UpdateBatch{SessionID: d.uvarint()}
		n := d.uvarint()
		if n > maxBatchEntries {
			return Envelope{}, fmt.Errorf("%w: batch of %d entries", ErrTooLarge, n)
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			m.Entries = append(m.Entries, d.entry())
		}
		m.Final = d.bool()
		m.Demand = d.f64()
		env.Msg = m
	case TypeFastOffer:
		m := FastOffer{}
		n := d.uvarint()
		if n > maxBatchEntries {
			return Envelope{}, fmt.Errorf("%w: offer of %d ids", ErrTooLarge, n)
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			m.IDs = append(m.IDs, d.ts())
		}
		m.Demand = d.f64()
		m.Hops = uint32(d.uvarint())
		env.Msg = m
	case TypeFastReply:
		m := FastReply{Accept: d.bool()}
		n := d.uvarint()
		if n > maxBatchEntries {
			return Envelope{}, fmt.Errorf("%w: reply of %d ids", ErrTooLarge, n)
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			m.Wanted = append(m.Wanted, d.ts())
		}
		m.Demand = d.f64()
		m.Hops = uint32(d.uvarint())
		env.Msg = m
	case TypeFastPayload:
		m := FastPayload{}
		n := d.uvarint()
		if n > maxBatchEntries {
			return Envelope{}, fmt.Errorf("%w: payload of %d entries", ErrTooLarge, n)
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			m.Entries = append(m.Entries, d.entry())
		}
		m.Demand = d.f64()
		m.Hops = uint32(d.uvarint())
		env.Msg = m
	case TypeDemandAdvert:
		m := DemandAdvert{Demand: d.f64()}
		if d.bool() {
			m.Summary = d.summary()
		}
		env.Msg = m
	case TypeSnapshot:
		m := Snapshot{SessionID: d.uvarint(), Summary: d.summary()}
		n := d.uvarint()
		if n > maxBatchEntries {
			return Envelope{}, fmt.Errorf("%w: snapshot of %d items", ErrTooLarge, n)
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			m.Items = append(m.Items, store.Item{
				Key:   d.str(),
				Value: d.bytes(),
				TS:    d.ts(),
				Clock: d.uvarint(),
			})
		}
		m.Demand = d.f64()
		env.Msg = m
	default:
		return Envelope{}, fmt.Errorf("%w: %d", ErrBadType, uint8(typ))
	}
	if d.err != nil {
		return Envelope{}, d.err
	}
	if d.off != len(buf) {
		return Envelope{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(buf)-d.off)
	}
	return env, nil
}

// WriteEnvelope frames and writes an envelope to w: uvarint length followed
// by the Marshal bytes. The wire bytes are built in a pooled buffer, so the
// steady-state send path allocates nothing.
func WriteEnvelope(w io.Writer, env Envelope) error {
	e := encPool.Get().(*encoder)
	defer putEncoder(e)
	if err := e.envelope(env); err != nil {
		return err
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(e.buf)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("protocol: writing frame header: %w", err)
	}
	if _, err := w.Write(e.buf); err != nil {
		return fmt.Errorf("protocol: writing frame body: %w", err)
	}
	return nil
}

// bodyPool recycles frame-body buffers across ReadEnvelope calls. Unmarshal
// copies every variable-length field out of the frame, so the buffer can be
// reused as soon as decoding finishes.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// ReadEnvelope reads one framed envelope from r.
func ReadEnvelope(r io.ByteReader) (Envelope, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return Envelope{}, err
	}
	if size > MaxEnvelopeSize {
		return Envelope{}, ErrTooLarge
	}
	bp := bodyPool.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= maxPooledBuf {
			bodyPool.Put(bp)
		}
	}()
	if uint64(cap(*bp)) < size {
		*bp = make([]byte, size)
	}
	body := (*bp)[:size]
	if err := readFull(r, body); err != nil {
		// The length header was already consumed, so any EOF mid-frame —
		// including before the first body byte — is a truncated stream, not
		// an orderly close.
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Envelope{}, fmt.Errorf("protocol: reading frame body: %w", err)
	}
	return Unmarshal(body)
}

// readFull fills buf from r, using bulk reads when r is also an io.Reader
// (bufio.Reader is, on every transport in this repo).
func readFull(r io.ByteReader, buf []byte) error {
	if rr, ok := r.(io.Reader); ok {
		_, err := io.ReadFull(rr, buf)
		return err
	}
	for i := range buf {
		b, err := r.ReadByte()
		if err != nil {
			return err
		}
		buf[i] = b
	}
	return nil
}
