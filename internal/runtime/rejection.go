package runtime

import (
	"errors"
	"fmt"
	"time"
)

// This file is the client plane's one shape for "no": every client
// operation a replica refuses — a write shed by admission, a leveled read
// whose freshness wait deadlined, any op at a replica that stopped serving
// — returns a *Rejection. Clients branch on Kind (or, equivalently, on
// RetryAfter > 0: retry here after that long, otherwise go elsewhere).

// ErrOverload is the sentinel every admission-control rejection matches:
// errors.Is(err, ErrOverload) reports that a write was shed (and is worth
// retrying after a backoff) as opposed to failed (replica down).
var ErrOverload = errors.New("runtime: replica overloaded")

// ErrNotFresh is the sentinel every freshness-deadline rejection matches:
// errors.Is(err, ErrNotFresh) reports that the replica could not reach the
// read's required coverage in time (worth retrying, possibly elsewhere) as
// opposed to being down.
var ErrNotFresh = errors.New("runtime: replica not fresh enough")

// Kind classifies a Rejection by what the client should do next.
type Kind uint8

// The rejection kinds. The first two are retryable and carry a positive
// RetryAfter; the last is not and never does.
const (
	// KindOverload: the admission plane shed a write BEFORE it reached the
	// node or the WAL (Reason ShedQueueFull, ShedSojourn or ShedDeadline).
	// Matches ErrOverload.
	KindOverload Kind = iota + 1
	// KindNotFresh: a leveled read's freshness wait deadlined (Reason is the
	// level's name). Matches ErrNotFresh.
	KindNotFresh
	// KindFailStop: the replica no longer serves — its WAL could not persist
	// writes (Reason "disk-full" or "io-error", Cause the WAL error) or an
	// operator killed it (Reason "killed"). Gone until restarted: reroute.
	KindFailStop
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindOverload:
		return "overload"
	case KindNotFresh:
		return "not-fresh"
	case KindFailStop:
		return "fail-stop"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Rejection is the typed error of every refused client operation.
type Rejection struct {
	// Kind is the class of refusal.
	Kind Kind
	// Replica is the replica that refused.
	Replica NodeID
	// Reason is the decision point within the kind (see the Kind constants).
	Reason string
	// RetryAfter is the server's backoff hint: the queue's recent sojourn
	// for an overload, half the anti-entropy interval for a freshness shed,
	// both clamped to [1ms, 1s]; zero for a fail-stop.
	RetryAfter time.Duration
	// Cause is the WAL error behind a fail-stop (nil otherwise); Unwrap
	// exposes it, so errors.Is(err, syscall.ENOSPC) still reaches it.
	Cause error
}

// Error renders the rejection.
func (e *Rejection) Error() string {
	switch {
	case e.Kind == KindFailStop && e.Cause != nil:
		return fmt.Sprintf("runtime: replica %v fail-stopped (%s): %v", e.Replica, e.Reason, e.Cause)
	case e.Kind == KindFailStop:
		return fmt.Sprintf("runtime: replica %v is down (%s)", e.Replica, e.Reason)
	}
	return fmt.Sprintf("runtime: replica %v rejected op: %v (%s, retry after %v)",
		e.Replica, e.Kind, e.Reason, e.RetryAfter)
}

// Is matches the kind's sentinel: ErrOverload for KindOverload, ErrNotFresh
// for KindNotFresh. A fail-stop matches neither — clients must not retry it.
func (e *Rejection) Is(target error) bool {
	return (e.Kind == KindOverload && target == ErrOverload) ||
		(e.Kind == KindNotFresh && target == ErrNotFresh)
}

// Unwrap exposes the fail-stop's WAL error.
func (e *Rejection) Unwrap() error { return e.Cause }

// clampRetry bounds a retry-after hint to [1ms, 1s].
func clampRetry(d time.Duration) time.Duration {
	return min(max(d, time.Millisecond), time.Second)
}

// deadError describes why the replica no longer accepts client operations:
// the fail-stop verdict when there is one (published by failStop, read here
// without the replica lock), an administrative kill otherwise.
func (r *replica) deadError() error {
	if rej := r.failCause.Load(); rej != nil {
		return rej
	}
	return &Rejection{Kind: KindFailStop, Replica: r.id, Reason: "killed"}
}
