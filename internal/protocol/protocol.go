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
	// SessionID names the session; 0 is the pull an advertised summary drew,
	// which opens no session and is answered by at most one frame.
	SessionID uint64
	// Summary is the sender's summary vector; the receiver owns it.
	Summary *vclock.Summary
	// Demand is the sender's current demand (piggybacked advertisement).
	Demand float64
}

// MsgType implements Message.
func (SummaryMsg) MsgType() Type { return TypeSummary }

// UpdateBatch carries entries the partner is missing. Final marks the last
// batch of a session (step 12's session completion).
type UpdateBatch struct {
	// SessionID names the session, or 0 for the answer to an advert pull.
	SessionID uint64
	// Entries are the writes the partner lacks, (origin, seq)-ascending.
	Entries []wlog.Entry
	// Final marks the session's last batch from this side.
	Final bool
	// Demand is the sender's current demand (piggybacked advertisement).
	Demand float64
}

// MsgType implements Message.
func (UpdateBatch) MsgType() Type { return TypeUpdateBatch }

// FastOffer announces newly arrived writes by id only (step 13).
type FastOffer struct {
	// IDs name the offered writes; no values travel until a YES.
	IDs []vclock.Timestamp
	// Demand is the sender's current demand (piggybacked advertisement).
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
	// Accept is the paper's YES (true) or NO (false).
	Accept bool
	// Wanted is the subset of the offered ids the receiver lacks.
	Wanted []vclock.Timestamp
	// Demand is the sender's current demand (piggybacked advertisement).
	Demand float64
	// Hops echoes the offer's hop count so the offering replica can stamp
	// the payload without per-offer state.
	Hops uint32
}

// MsgType implements Message.
func (FastReply) MsgType() Type { return TypeFastReply }

// FastPayload delivers the writes accepted by a FastReply (step 17), or — a
// gain that fits one network frame — is pushed unasked, with no offer before.
type FastPayload struct {
	// Entries are the writes, per origin in sequence order.
	Entries []wlog.Entry
	// Demand is the sender's current demand (piggybacked advertisement).
	Demand float64
	// Hops is the chain hop count the payload travelled to get here.
	Hops uint32
}

// MsgType implements Message.
func (FastPayload) MsgType() Type { return TypeFastPayload }

// DemandAdvert is the periodic neighbour-table refresh of §4. Summary is the
// sender's summary vector at the tick, one read-only clone shared by the
// tick's envelopes; nil means "demand only". A receiver lacking writes it
// names, and expecting no fast-update chain to bring them, pulls them with a
// SummaryMsg whose SessionID is 0, answered only when the difference fits one
// network frame.
type DemandAdvert struct {
	// Demand is the sender's demand at the tick.
	Demand float64
	// Summary is the sender's summary vector at the tick, or nil; receivers
	// keep the pointer and must not mutate it.
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
	// SessionID names the session the transfer closes.
	SessionID uint64
	// Summary is the coverage the store image stands for.
	Summary *vclock.Summary
	// Items is the sender's complete store image.
	Items []store.Item
	// Demand is the sender's current demand (piggybacked advertisement).
	Demand float64
}

// MsgType implements Message.
func (Snapshot) MsgType() Type { return TypeSnapshot }

// Envelope is a routed message.
type Envelope struct {
	// From is the sending replica.
	From vclock.NodeID
	// To is the replica the transport delivers to.
	To vclock.NodeID
	// Msg is the payload, one of the message types above.
	Msg Message
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
