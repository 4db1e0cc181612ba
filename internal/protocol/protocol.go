// Package protocol defines the messages of the fast-consistency protocol
// and a compact binary wire codec for them.
//
// The message set follows the paper's §2.1 algorithm step by step:
//
//   - SessionRequest  — step 2: "E sends to B a message to request for
//     initiate a session".
//   - SummaryMsg      — steps 4/6: the partners exchange summary vectors.
//   - UpdateBatch     — steps 8/11: each side sends the entries the other
//     has not seen.
//   - FastOffer       — step 13: "a request for fast update ... has
//     information (id and timestamp) of new arrived messages"; note no
//     summary vectors are exchanged.
//   - FastReply       — step 15: YES (send them) or NO (already have them).
//     Our reply carries the precise subset wanted, a strict generalisation
//     that saves payload when the neighbour has some of the offered writes.
//   - FastPayload     — step 17: the update messages themselves.
//   - DemandAdvert    — §4: periodic advertisement of a replica's demand to
//     its neighbours, "in a way similar to IP routing algorithms". It
//     carries the sender's summary vector too — steps 3–4 unsolicited; a
//     SummaryMsg of session id 0 answers it and draws a frame-sized difference.
//
// Every message carries the sender's current demand so tables refresh for
// free on any contact ("it requires few additional bytes in the exchange of
// messages between replicas", §8).
package protocol

import (
	"fmt"

	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/wlog"
)

// Type discriminates wire messages.
type Type uint8

// Message types. Values are wire-stable; do not reorder.
const (
	TypeSessionRequest Type = iota + 1
	TypeSummary
	TypeUpdateBatch
	TypeFastOffer
	TypeFastReply
	TypeFastPayload
	TypeDemandAdvert
	TypeSnapshot
)

// String returns the message type name.
func (t Type) String() string {
	switch t {
	case TypeSessionRequest:
		return "session-request"
	case TypeSummary:
		return "summary"
	case TypeUpdateBatch:
		return "update-batch"
	case TypeFastOffer:
		return "fast-offer"
	case TypeFastReply:
		return "fast-reply"
	case TypeFastPayload:
		return "fast-payload"
	case TypeDemandAdvert:
		return "demand-advert"
	case TypeSnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Message is implemented by all protocol payloads.
type Message interface {
	MsgType() Type
}

// SessionRequest asks the receiver to begin an anti-entropy session.
type SessionRequest struct {
	// SessionID correlates the messages of one session.
	SessionID uint64
	// Demand is the initiator's current demand (piggybacked advertisement).
	Demand float64
}

// MsgType implements Message.
func (SessionRequest) MsgType() Type { return TypeSessionRequest }

// SummaryMsg carries a replica's summary vector during a session.
type SummaryMsg struct {
	SessionID uint64
	Summary   *vclock.Summary
	Demand    float64
}

// MsgType implements Message.
func (SummaryMsg) MsgType() Type { return TypeSummary }

// UpdateBatch carries entries the partner is missing. Final marks the last
// batch of a session (step 12's session completion).
type UpdateBatch struct {
	SessionID uint64
	Entries   []wlog.Entry
	Final     bool
	Demand    float64
}

// MsgType implements Message.
func (UpdateBatch) MsgType() Type { return TypeUpdateBatch }

// FastOffer announces newly arrived writes by id only (step 13).
type FastOffer struct {
	IDs    []vclock.Timestamp
	Demand float64
	// Hops counts fast-update chain hops for diagnostics; the chain of
	// §2 "floods the valleys" through successive highest-demand neighbours.
	Hops uint32
}

// MsgType implements Message.
func (FastOffer) MsgType() Type { return TypeFastOffer }

// FastReply answers a FastOffer. Accept=false means the receiver already has
// every offered write (paper's NO). Accept=true carries the subset still
// wanted (paper's YES; the paper requests all offered ids — a receiver that
// has none of them wants them all, which is the common case).
type FastReply struct {
	Accept bool
	Wanted []vclock.Timestamp
	Demand float64
	// Hops echoes the offer's hop count so the offering replica can stamp
	// the payload without per-offer state.
	Hops uint32
}

// MsgType implements Message.
func (FastReply) MsgType() Type { return TypeFastReply }

// FastPayload delivers the writes accepted by a FastReply (step 17).
type FastPayload struct {
	Entries []wlog.Entry
	Demand  float64
	Hops    uint32
}

// MsgType implements Message.
func (FastPayload) MsgType() Type { return TypeFastPayload }

// DemandAdvert is the periodic neighbour-table refresh of §4. Summary is the
// sender's summary vector at the tick, one read-only clone shared by the
// tick's envelopes; nil means "demand only". A receiver still lacking what
// the previous advert named pulls it with a SummaryMsg whose SessionID is 0,
// answered only when the difference fits one network frame.
type DemandAdvert struct {
	Demand  float64
	Summary *vclock.Summary
}

// MsgType implements Message.
func (DemandAdvert) MsgType() Type { return TypeDemandAdvert }

// Snapshot is a full-state transfer: the sender's complete store image plus
// its summary vector. It is the recovery path when write-log truncation has
// discarded entries a partner still needs (the storage/session-length
// trade-off of Bayou's log truncation, paper §7) — the partner adopts the
// summary and merges the store image instead of replaying entries.
type Snapshot struct {
	SessionID uint64
	Summary   *vclock.Summary
	Items     []store.Item
	Demand    float64
}

// MsgType implements Message.
func (Snapshot) MsgType() Type { return TypeSnapshot }

// Envelope is a routed message.
type Envelope struct {
	From vclock.NodeID
	To   vclock.NodeID
	Msg  Message
}

// String renders the envelope for traces.
func (e Envelope) String() string {
	return fmt.Sprintf("%v->%v %v", e.From, e.To, e.Msg.MsgType())
}

// Compile-time interface compliance checks.
var (
	_ Message = SessionRequest{}
	_ Message = SummaryMsg{}
	_ Message = UpdateBatch{}
	_ Message = FastOffer{}
	_ Message = FastReply{}
	_ Message = FastPayload{}
	_ Message = DemandAdvert{}
	_ Message = Snapshot{}
)
