package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// This file is the chaos client plane and its session-guarantee oracle.
// Background workload workers always drive their traffic through real
// client sessions; when Scenario.Sessions is set the mix is
// mixed-consistency and every successful session- or strong-level read is
// checked op-by-op against the session's floor — the freshest version
// (Lamport clock major, timestamp tiebreak: the store's LWW order) the
// session has written or read per key. A read below the floor is a
// monotonic-reads violation; a miss on a key the session wrote is a
// read-your-writes violation. Freshness sheds (ErrNotFresh after the
// deadline) and outage errors are NOT violations — refusing to serve stale
// is exactly the freshness contract under faults — so the oracle stays
// armed through partitions, crash/recover cycles, and floods.
//
// Scope mirrors the client surface's documented guarantees: floors reset
// when a reshard moves key ownership (shard.Session carries tokens per
// group), and empty-state restarts — which deliberately lose acked state —
// are not scheduled in session-armed scenarios.

// sessionFreshDeadline bounds every session read's freshness wait in chaos
// runs: short enough that a partition-stranded read sheds and the worker
// moves on, long enough that healthy replication always makes it.
const sessionFreshDeadline = 400 * time.Millisecond

// clusterClient is one failover-capable client of the single-cluster system
// under test: ops round-robin over replicas (next is shared by every client
// of the cluster), retrying elsewhere when a replica is down or cannot
// serve fresh — the client-side failover a real deployment would have, and
// sound because the session token makes any replica a valid server for the
// same guarantees. The sharded system needs no counterpart: the router's
// own token-aware routing picks the serving replica, so a *shard.Session is
// the client as is.
type clusterClient struct {
	sess *runtime.Session
	next *atomic.Uint64
	n    int
}

// Write implements workload.Client.
func (c *clusterClient) Write(key string, value []byte) (shard.Receipt, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		id := NodeID(c.next.Add(1) % uint64(c.n))
		rec, werr := c.sess.Write(id, key, value)
		if werr == nil {
			return shard.Receipt{Node: id, TS: rec.TS, Clock: rec.Clock}, nil
		}
		err = werr
	}
	return shard.Receipt{}, err
}

// ReadVersioned implements workload.Client.
func (c *clusterClient) ReadVersioned(key string, lvl runtime.Level) (store.Versioned, bool, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		id := NodeID(c.next.Add(1) % uint64(c.n))
		v, ok, rerr := c.sess.ReadLevel(id, key, lvl)
		if rerr == nil {
			return v, ok, nil
		}
		err = rerr
	}
	return store.Versioned{}, false, err
}

// sessionOracle aggregates verdict state across every checked session.
type sessionOracle struct {
	mu         sync.Mutex
	sessions   int
	reads      int // successful session/strong-level reads checked
	violations int
	samples    []string // first few violation details for the report
}

func newSessionOracle() *sessionOracle { return &sessionOracle{} }

// open registers one more checked session and returns its number.
func (o *sessionOracle) open() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sessions++
	return o.sessions
}

func (o *sessionOracle) read() {
	o.mu.Lock()
	o.reads++
	o.mu.Unlock()
}

func (o *sessionOracle) violation(detail string) {
	o.mu.Lock()
	o.violations++
	if len(o.samples) < 4 {
		o.samples = append(o.samples, detail)
	}
	o.mu.Unlock()
}

func (o *sessionOracle) stats() (sessions, reads, violations int, samples []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sessions, o.reads, o.violations, append([]string(nil), o.samples...)
}

// sessFloor is one session's reference state for one key.
type sessFloor struct {
	ver   store.Versioned // only its place in LWW order matters
	wrote bool            // the session wrote the key: session reads must find it
}

// trackedClient is the workload.Client every chaos worker drives: each op
// flows through the tracker's gate (so Pause drains all traffic) and acked
// writes join the durability books; when the scenario armed the session
// oracle, session/strong reads are additionally checked against the
// session's floors.
type trackedClient struct {
	t      *tracker
	sys    workload.Client
	id     int // oracle session number (0 when unarmed)
	gen    int // reshard generation the floors were built under
	floors map[string]*sessFloor
}

// client opens one tracked client over a fresh client of the system under
// test — the tracker's face to workload.Run.
func (t *tracker) client() workload.Client {
	c := &trackedClient{t: t, sys: t.open()}
	if t.oracle != nil {
		c.id = t.oracle.open()
		c.floors = make(map[string]*sessFloor)
	}
	return c
}

func (c *trackedClient) floor(key string) *sessFloor {
	f := c.floors[key]
	if f == nil {
		f = &sessFloor{}
		c.floors[key] = f
	}
	return f
}

// syncGen drops the floors when key ownership may have moved, returning
// whether a reshard is in flight right now (checks are suspended while one
// is — the handoff window is documented non-linearizable).
func (c *trackedClient) syncGen() bool {
	active, gen := c.t.reshardState()
	if gen != c.gen {
		c.gen = gen
		c.floors = make(map[string]*sessFloor)
	}
	return active
}

// Write implements workload.Client, recording the ack.
func (c *trackedClient) Write(key string, value []byte) (shard.Receipt, error) {
	c.t.gate.RLock()
	defer c.t.gate.RUnlock()
	rc, err := c.sys.Write(key, value)
	if err != nil {
		return rc, err
	}
	c.t.recordAck(key, value, ackLoc{shard: rc.Shard, node: rc.Node})
	if c.floors == nil || c.syncGen() {
		return rc, nil // unarmed, or mid-reshard: such acks are at-risk, keep them off the floors
	}
	f := c.floor(key)
	if ver := (store.Versioned{TS: rc.TS, Clock: rc.Clock}); f.ver.Older(ver) {
		f.ver = ver
	}
	f.wrote = true
	return rc, nil
}

// ReadVersioned implements workload.Client.
func (c *trackedClient) ReadVersioned(key string, lvl runtime.Level) (store.Versioned, bool, error) {
	c.t.gate.RLock()
	defer c.t.gate.RUnlock()
	v, ok, err := c.sys.ReadVersioned(key, lvl)
	if err != nil {
		// Sheds (not-fresh after the deadline) and outages are the
		// workload's business; refusing to serve stale is the contract.
		return v, false, err
	}
	if c.floors == nil || (lvl != runtime.LevelSession && lvl != runtime.LevelStrong) {
		return v, ok, nil // eventual/bounded reads carry no per-session floor
	}
	if c.syncGen() {
		return v, ok, nil
	}
	f := c.floor(key)
	o := c.t.oracle
	o.read()
	switch {
	case !ok && f.wrote:
		o.violation(fmt.Sprintf(
			"session %d: %v read of %q missed the session's own write (floor clock %d) — read-your-writes violation",
			c.id, lvl, key, f.ver.Clock))
	case ok && v.Older(f.ver):
		o.violation(fmt.Sprintf(
			"session %d: %v read of %q served clock %d (%v) below floor clock %d (%v) — monotonic-reads violation",
			c.id, lvl, key, v.Clock, v.TS, f.ver.Clock, f.ver.TS))
	case ok && f.ver.Older(v):
		f.ver = v
	}
	return v, ok, nil
}

// sessionChecks turns the oracle's verdict into the final gate: zero
// violations, over a schedule that actually exercised sessioned reads.
func (e *engine) sessionChecks() {
	sessions, reads, violations, samples := e.tracker.oracle.stats()
	res := CheckResult{
		Name: "final/session-guarantees",
		Pass: violations == 0 && reads > 0,
		Obs:  fmt.Sprintf("%d sessioned reads over %d sessions, 0 violations", reads, sessions),
	}
	switch {
	case violations > 0:
		res.Obs = ""
		res.Detail = fmt.Sprintf("%d session-guarantee violations (first %d: %v)",
			violations, len(samples), samples)
	case reads == 0:
		res.Obs = ""
		res.Detail = "session oracle armed but no session-level read ever succeeded"
	}
	e.rep.add(res)
}
