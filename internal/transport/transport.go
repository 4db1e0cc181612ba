// Package transport moves protocol envelopes between live replicas.
//
// Two implementations are provided. Memory is an in-process network with
// configurable latency, loss and partitions, used by the runtime cluster and
// by failure-injection tests; like a TCP connection, each of its directed
// links delivers in send order. TCP runs the same wire protocol over real
// sockets (stdlib net), demonstrating that the protocol is deployable, not
// just simulable.
package transport

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/protocol"
	"repro/internal/vclock"
)

// NodeID aliases the replica identifier.
type NodeID = vclock.NodeID

// Errors common to transports.
var (
	// ErrClosed is returned by operations on a closed transport.
	ErrClosed = errors.New("transport: closed")
	// ErrUnknownPeer is returned when sending to an unregistered replica.
	ErrUnknownPeer = errors.New("transport: unknown peer")
	// ErrDropped is returned when fault injection discarded the message.
	ErrDropped = errors.New("transport: message dropped")
)

// Faults is the uniform fault-injection surface a transport may expose.
// All methods are safe for concurrent use and take effect immediately for
// messages sent after the call; messages already in flight are unaffected.
// The chaos harness drives this interface to script partitions, loss and
// latency against a live cluster.
type Faults interface {
	// Partition severs the directed links a->b and b->a.
	Partition(a, b NodeID)
	// PartitionSets severs every link between a node in left and a node in
	// right (both directions), splitting the network into two sides.
	PartitionSets(left, right []NodeID)
	// Heal restores the links between a and b.
	Heal(a, b NodeID)
	// HealAll restores every severed link.
	HealAll()
	// SetLoss changes the per-message drop probability at runtime.
	SetLoss(rate float64)
	// SetLatency changes the base delivery delay and the uniform random
	// jitter bound at runtime. It never reorders a link: a message sent
	// after the call, however short its delay, is delivered after the
	// messages already in flight on its directed link.
	SetLatency(latency, jitter time.Duration)
}

// Endpoint is one replica's attachment to a network.
//
// Every directed link is FIFO: envelopes one endpoint sends to one peer are
// received in the order they were sent, on Memory (one ordered delay line
// per destination) as on TCP (one connection per peer). Messages may be
// lost, never reordered within a link; different links are independent.
// The fast-update path relies on it — a fast entry that arrives ahead of its
// predecessor is dropped as a gap.
type Endpoint interface {
	// Send delivers env to env.To. Delivery is asynchronous; an error means
	// the message will never arrive (closed, unknown peer, or injected
	// fault).
	Send(env protocol.Envelope) error
	// Recv is the stream of inbound envelopes. It is closed when the
	// endpoint closes.
	Recv() <-chan protocol.Envelope
	// Close detaches the endpoint. Safe to call twice.
	Close() error
}

// wrapSendErr annotates a send error with routing context.
func wrapSendErr(err error, env protocol.Envelope) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("sending %v: %w", env, err)
}
