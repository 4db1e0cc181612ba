package transport

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/protocol"
)

// MemoryConfig tunes the in-memory network.
type MemoryConfig struct {
	// Latency delays each delivery (0 = immediate handoff).
	Latency time.Duration
	// Jitter adds up to this much uniformly random extra latency.
	Jitter time.Duration
	// LossRate drops each message independently with this probability.
	LossRate float64
	// Buffer is each endpoint's inbound queue capacity (default 256).
	Buffer int
	// Seed drives the loss/jitter RNG (0 = fixed default seed).
	Seed int64
}

// Memory is an in-process network hub. Endpoints attach by node id; Send
// routes through the hub, applying latency, loss, and partitions.
// Memory is safe for concurrent use, including runtime fault mutation
// (Partition/Heal/SetLoss/SetLatency) concurrent with sends.
//
// Every directed link keeps order, as a TCP connection does: a delayed
// message waits on its destination's delay line (see memEndpoint) and is
// never delivered before an earlier message of the same link, whatever
// jitter or a SetLatency change did to their delays. Links into one endpoint
// are independent and may interleave.
//
// The hub lock is a RWMutex: every send of every replica routes through
// here, so senders take only the read side (fault state and the endpoint
// table are read-mostly) and sends on disjoint links proceed in parallel.
// Fault mutation and attach/close take the write side; the loss/jitter RNG
// has its own small mutex, touched only when loss or jitter is configured.
type Memory struct {
	cfg MemoryConfig

	mu        sync.RWMutex
	endpoints map[NodeID]*memEndpoint
	cut       map[[2]NodeID]bool // severed directed links
	loss      float64            // current drop probability
	latency   time.Duration      // current base delay
	jitter    time.Duration      // current jitter bound
	closed    bool
	wg        sync.WaitGroup // armed endpoint timers + running callbacks

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewMemory creates an in-memory network. The config's Latency, Jitter and
// LossRate seed the initial fault state; SetLoss and SetLatency change it
// at runtime.
func NewMemory(cfg MemoryConfig) *Memory {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 256
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Memory{
		cfg:       cfg,
		endpoints: make(map[NodeID]*memEndpoint),
		cut:       make(map[[2]NodeID]bool),
		loss:      cfg.LossRate,
		latency:   cfg.Latency,
		jitter:    cfg.Jitter,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Attach creates the endpoint for node id. Attaching the same id twice
// replaces the previous endpoint (the old one is closed).
func (m *Memory) Attach(id NodeID) Endpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.endpoints[id]; ok {
		old.closeLocked()
	}
	ep := &memEndpoint{
		net: m,
		id:  id,
		ch:  make(chan protocol.Envelope, m.cfg.Buffer),
	}
	m.endpoints[id] = ep
	return ep
}

// Partition severs the directed links a->b and b->a.
func (m *Memory) Partition(a, b NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cut[[2]NodeID{a, b}] = true
	m.cut[[2]NodeID{b, a}] = true
}

// PartitionSets severs every link between a node in left and a node in
// right (both directions), splitting the network into two sides.
func (m *Memory) PartitionSets(left, right []NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, a := range left {
		for _, b := range right {
			m.cut[[2]NodeID{a, b}] = true
			m.cut[[2]NodeID{b, a}] = true
		}
	}
}

// Heal restores the links between a and b.
func (m *Memory) Heal(a, b NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cut, [2]NodeID{a, b})
	delete(m.cut, [2]NodeID{b, a})
}

// HealAll restores every severed link.
func (m *Memory) HealAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.cut)
}

// SetLoss changes the per-message drop probability at runtime.
func (m *Memory) SetLoss(rate float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.loss = rate
}

// SetLatency changes the base delivery delay and jitter bound at runtime.
// Messages already in flight keep their delivery time, and a message sent
// afterwards with a shorter delay (zero included) still queues behind them
// on its link.
func (m *Memory) SetLatency(latency, jitter time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.latency = latency
	m.jitter = jitter
}

// Close shuts the network and all endpoints. Messages still in flight are
// discarded; when Close returns no endpoint timer is armed and no delivery
// callback is running.
func (m *Memory) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	for _, ep := range m.endpoints {
		ep.closeLocked()
	}
	m.mu.Unlock()
	m.wg.Wait()
	return nil
}

// send routes an envelope, applying faults. Called by endpoints. Senders
// share the hub read lock, so concurrent traffic on disjoint links does not
// serialise.
func (m *Memory) send(env protocol.Envelope) error {
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return wrapSendErr(ErrClosed, env)
	}
	if m.cut[[2]NodeID{env.From, env.To}] {
		m.mu.RUnlock()
		return wrapSendErr(ErrDropped, env)
	}
	dst, ok := m.endpoints[env.To]
	if !ok || dst.closed {
		m.mu.RUnlock()
		return wrapSendErr(ErrUnknownPeer, env)
	}
	loss, delay, jitter := m.loss, m.latency, m.jitter
	m.mu.RUnlock()

	if loss > 0 || jitter > 0 {
		m.rngMu.Lock()
		dropped := loss > 0 && m.rng.Float64() < loss
		if !dropped && jitter > 0 {
			delay += time.Duration(m.rng.Int63n(int64(jitter)))
		}
		m.rngMu.Unlock()
		if dropped {
			return wrapSendErr(ErrDropped, env)
		}
	}

	dst.enqueue(env, delay)
	return nil
}

// delayed is one message on an endpoint's delay line.
type delayed struct {
	at  time.Time // delivery time
	env protocol.Envelope
}

// memEndpoint is one node's attachment. Inbound messages that must wait out
// a link delay sit on line, the endpoint's one delay line: ordered by
// delivery time, ties in send order, and served by one timer aimed at its
// head — not a timer and a goroutine per message, which is what let two
// sends on one link land out of order.
type memEndpoint struct {
	net *Memory
	id  NodeID
	ch  chan protocol.Envelope

	mu     sync.Mutex
	closed bool
	line   []delayed            // line[head:] is in flight, by delivery time
	head   int                  // first undelivered element of line
	last   map[NodeID]time.Time // newest delivery time given out, per sender
	timer  *time.Timer          // fires fire() at line[head].at
}

// Send implements Endpoint.
func (e *memEndpoint) Send(env protocol.Envelope) error {
	env.From = e.id
	return e.net.send(env)
}

// Recv implements Endpoint.
func (e *memEndpoint) Recv() <-chan protocol.Envelope { return e.ch }

// enqueue accepts an inbound envelope due after delay. Its delivery time is
// now+delay, clamped so it never precedes an earlier message of the same
// directed link; a zero-delay message is handed over at once only when
// nothing of its link is still in flight.
func (e *memEndpoint) enqueue(env protocol.Envelope, delay time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	if delay <= 0 && e.head == len(e.line) {
		// Nothing in flight at all: the no-latency network's whole path, with
		// no clock read.
		e.deliver(env)
		return
	}
	now := time.Now()
	at := now.Add(delay)
	if last := e.last[env.From]; last.After(at) {
		at = last
	}
	if delay <= 0 {
		// Everything due is delivered first, so what is left of this link on
		// the line is exactly what the message must stay behind.
		e.drain(now)
		if !at.After(now) {
			e.deliver(env)
			return
		}
	}
	if e.last == nil {
		e.last = make(map[NodeID]time.Time)
	}
	e.last[env.From] = at
	// Insert from the back, passing only strictly later messages: links with
	// one constant delay append, and equal times keep send order.
	e.line = append(e.line, delayed{})
	i := len(e.line) - 1
	for ; i > e.head && e.line[i-1].at.After(at); i-- {
		e.line[i] = e.line[i-1]
	}
	e.line[i] = delayed{at: at, env: env}
	if i == e.head {
		e.arm(now)
	}
}

// arm aims the endpoint's timer at the head of the delay line. The hub's
// WaitGroup counts armed timers and running callbacks together: one Add per
// arming of an idle timer, one Done per callback or successful Stop. Called
// with e.mu held and the endpoint open, which orders every Add before the
// Wait in Memory.Close.
func (e *memEndpoint) arm(now time.Time) {
	d := e.line[e.head].at.Sub(now)
	if e.timer == nil {
		e.net.wg.Add(1)
		e.timer = time.AfterFunc(d, e.fire)
	} else if !e.timer.Reset(d) {
		e.net.wg.Add(1)
	}
}

// fire is the timer callback: deliver what is due, aim at what is left.
func (e *memEndpoint) fire() {
	defer e.net.wg.Done()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	now := time.Now()
	e.drain(now)
	if e.head < len(e.line) {
		e.arm(now)
	}
}

// drain delivers, in line order, every message due by now. Called with e.mu
// held.
func (e *memEndpoint) drain(now time.Time) {
	for e.head < len(e.line) && !e.line[e.head].at.After(now) {
		e.deliver(e.line[e.head].env)
		e.line[e.head] = delayed{}
		e.head++
	}
	// Reclaim the delivered prefix: at once when the line is empty, else when
	// it is the larger half, so a line that never runs dry does not grow.
	if e.head == len(e.line) {
		e.line, e.head = e.line[:0], 0
	} else if e.head >= 64 && 2*e.head >= len(e.line) {
		n := copy(e.line, e.line[e.head:])
		clear(e.line[n:])
		e.line, e.head = e.line[:n], 0
	}
}

// deliver hands an envelope to the receiver, dropping it when the buffer is
// full (backpressure-as-loss, like UDP; anti-entropy tolerates loss by
// design). Called with e.mu held and the endpoint open.
func (e *memEndpoint) deliver(env protocol.Envelope) {
	select {
	case e.ch <- env:
	default:
	}
}

// Close implements Endpoint.
func (e *memEndpoint) Close() error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.closeLocked()
	return nil
}

func (e *memEndpoint) closeLocked() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	if e.timer != nil && e.timer.Stop() {
		e.net.wg.Done()
	}
	e.line, e.last = nil, nil
	close(e.ch)
}

// Compile-time interface compliance checks.
var (
	_ Endpoint = (*memEndpoint)(nil)
	_ Faults   = (*Memory)(nil)
)
