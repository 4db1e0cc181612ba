package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/wlog"
)

// This file implements the tunable consistency plane: per-op read levels
// on top of the eventual protocol, keyed by session tokens that carry
// summary-vector watermarks.
//
// A Token records, as a vclock.Summary, every write position the session
// has acknowledged (its own writes) or observed (its reads). Any replica
// can then serve the session's guarantees by waiting until its APPLIED
// coverage dominates the token:
//
//   - LevelSession (read-your-writes + monotonic reads): the replica must
//     cover the token exactly (lag 0); the replica's coverage and the
//     served version's position are folded back into the token so later
//     reads — at any replica — can never observe an older state.
//   - LevelBounded: the replica may lag the token by at most MaxLag writes
//     — the summary-distance staleness gate. Bounded reads do not fold
//     coverage back, so the token keeps tracking only what the session
//     actually acknowledged/observed.
//   - LevelStrong: the read first pins the freshest version of the key
//     across all live replicas (the LWW winner), waits until the serving
//     replica covers it, then reads — a converged read of that key as of
//     the call.
//
// Waits are deadline-bounded: a replica that cannot catch up in time sheds
// the read with a KindNotFresh *Rejection matching ErrNotFresh and carrying
// a retry-after hint — the same type the admission plane sheds writes with,
// so client retry loops handle both identically.
//
// The covered fast path takes no lock at all and allocates nothing: one
// atomic store-pointer load, one atomic load of the replica's immutable
// applied-watermark snapshot (a pointer compare against the token's cache
// in the steady state, one summary pass plus token merge when coverage
// advanced), and a striped store read. Wait queues park OFF this path
// behind an atomic count, exactly like propagation watches, so plain
// eventual reads are untouched.

// Level selects the consistency guarantee of one leveled read.
type Level int

// The consistency levels a leveled read can request, weakest to
// strongest; NumLevels sizes per-level arrays.
const (
	// LevelEventual serves whatever the replica has — the plain read path
	// with a version receipt.
	LevelEventual Level = iota
	// LevelSession guarantees read-your-writes and monotonic reads with
	// respect to the supplied session token, waiting for coverage if the
	// replica lags it.
	LevelSession
	// LevelBounded serves the read only when the replica lags the token's
	// known head by at most MaxLag writes (summary distance).
	LevelBounded
	// LevelStrong serves a converged read of the touched key: the freshest
	// version acknowledged anywhere at call time is pinned, waited for,
	// then read. A strong read carrying a session token additionally
	// honors the token (strong subsumes session).
	LevelStrong
	// NumLevels is the number of consistency levels (for per-level arrays).
	NumLevels = int(LevelStrong) + 1
)

// String names the level the way flags and metrics spell it.
func (l Level) String() string {
	switch l {
	case LevelEventual:
		return "eventual"
	case LevelSession:
		return "session"
	case LevelBounded:
		return "bounded"
	case LevelStrong:
		return "strong"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Token is a session's freshness watermark: a summary vector recording
// every write position the session has acknowledged or observed. The zero
// value is an empty token (covered by every replica). Tokens are NOT safe
// for concurrent use — a session is a single logical client; concurrent
// clients each carry their own.
type Token struct {
	sum vclock.Summary
	// covered caches the applied-watermark snapshot the token last merged
	// to (token == snapshot exactly), so the steady-state probe of a
	// session pinned to one replica is a single pointer compare. Snapshots
	// are immutable and any token growth clears the cache, so a hit can
	// never claim stale coverage.
	covered *vclock.Summary
}

// ObserveWrite folds an acknowledged write's position into the token.
func (t *Token) ObserveWrite(ts vclock.Timestamp) {
	if t.sum.Covers(ts) {
		return
	}
	t.covered = nil
	t.sum.Advance(ts.Node, ts.Seq)
}

// Covers reports whether the token already records the write ts.
func (t *Token) Covers(ts vclock.Timestamp) bool { return t.sum.Covers(ts) }

// Positions returns a copy of the token's watermark vector.
func (t *Token) Positions() *vclock.Summary { return t.sum.Clone() }

// Reset empties the token in place.
func (t *Token) Reset() { *t = Token{} }

// Clone returns an independent copy of the token.
func (t *Token) Clone() *Token {
	c := &Token{}
	c.sum.Merge(&t.sum)
	return c
}

// Equal reports whether two tokens record identical watermarks.
func (t *Token) Equal(other *Token) bool {
	return t.sum.Compare(&other.sum) == vclock.Equal
}

// String renders the token's watermarks.
func (t *Token) String() string { return t.sum.String() }

// tokenVersion tags the token wire encoding. Encoding: the version byte,
// a uvarint origin count, then per origin a uvarint (node, seq) pair in
// strictly ascending node order with seq > 0 — the canonical form
// UnmarshalBinary enforces, so encode/decode round-trips bit-exactly.
const tokenVersion = 1

// maxTokenOrigin bounds the node ids a decoded token may carry, so a
// hostile encoding cannot make the dense watermark vector allocate
// unboundedly.
const maxTokenOrigin = 1 << 20

// AppendBinary appends the token's wire encoding to dst and returns the
// extended slice.
func (t *Token) AppendBinary(dst []byte) []byte {
	dst = append(dst, tokenVersion)
	dst = binary.AppendUvarint(dst, uint64(t.sum.Len()))
	t.sum.ForEach(func(node vclock.NodeID, seq uint64) {
		dst = binary.AppendUvarint(dst, uint64(node))
		dst = binary.AppendUvarint(dst, seq)
	})
	return dst
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (t *Token) MarshalBinary() ([]byte, error) { return t.AppendBinary(nil), nil }

// readUvarint decodes one minimally-encoded uvarint from data, rejecting
// the redundant encodings binary.Uvarint accepts (so every token value has
// exactly one wire form and encodings compare byte-wise).
func readUvarint(data []byte) (v uint64, n int, err error) {
	v, n = binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, errors.New("runtime: truncated token varint")
	}
	if n > 1 && data[n-1] == 0 {
		return 0, 0, errors.New("runtime: non-minimal token varint")
	}
	return v, n, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// token's contents. It rejects anything but the canonical form AppendBinary
// produces: unknown versions, truncated or trailing bytes, non-minimal
// varints, out-of-order or duplicate origins, zero sequence numbers, and
// origins past maxTokenOrigin.
func (t *Token) UnmarshalBinary(data []byte) error {
	if len(data) == 0 {
		return errors.New("runtime: empty token encoding")
	}
	if data[0] != tokenVersion {
		return fmt.Errorf("runtime: unknown token version %d", data[0])
	}
	rest := data[1:]
	count, n, err := readUvarint(rest)
	if err != nil {
		return err
	}
	rest = rest[n:]
	if count > maxTokenOrigin {
		return fmt.Errorf("runtime: token origin count %d too large", count)
	}
	var tok Token
	prev := int64(-1)
	for i := uint64(0); i < count; i++ {
		node, n, err := readUvarint(rest)
		if err != nil {
			return err
		}
		rest = rest[n:]
		seq, n, err := readUvarint(rest)
		if err != nil {
			return err
		}
		rest = rest[n:]
		if node >= maxTokenOrigin {
			return fmt.Errorf("runtime: token origin %d too large", node)
		}
		if int64(node) <= prev {
			return fmt.Errorf("runtime: token origins out of order at %d", node)
		}
		if seq == 0 {
			return fmt.Errorf("runtime: token origin %d has zero sequence", node)
		}
		prev = int64(node)
		tok.sum.Advance(vclock.NodeID(node), seq)
	}
	if len(rest) != 0 {
		return fmt.Errorf("runtime: %d trailing bytes after token", len(rest))
	}
	*t = tok
	return nil
}

// DefaultFreshWait bounds a leveled read's freshness wait when
// LeveledRead.Deadline is zero. It is far past the propagation latency of
// a healthy cluster; reads that hit it are stalled by a partition, an
// overload, or a dead origin — exactly what ErrNotFresh reports.
const DefaultFreshWait = 2 * time.Second

// LeveledRead carries one read's optional consistency parameters. Reuse
// one value across reads (it is plain data) to keep the covered fast path
// free of per-call allocation.
type LeveledRead struct {
	// Level is the consistency guarantee to enforce.
	Level Level
	// Token is the session's watermark. nil degenerates session and
	// bounded reads to eventual (there is nothing to be consistent with).
	Token *Token
	// MaxLag is LevelBounded's staleness bound: the maximum number of
	// writes (summary distance) the replica may lag the token.
	MaxLag uint64
	// Deadline bounds the freshness wait; 0 selects DefaultFreshWait.
	Deadline time.Duration
}

// WriteReceipt is an acknowledged write's full version: the timestamp that
// names it in summary vectors and the Lamport clock the LWW resolution
// orders by.
type WriteReceipt struct {
	// TS is the write's (origin, sequence) position.
	TS vclock.Timestamp
	// Clock is the write's Lamport clock.
	Clock uint64
}

// ReadLeveled is the leveled face of the one client read (see serve): it
// serves key at replica id under the consistency level opt selects and
// returns the versioned value, so callers (session caches, invariant
// oracles) can order what they observed. A nil opt is a plain read. The
// returned value slice is a read-only view of replicated content (store
// immutability contract); callers that need a mutable buffer copy it.
func (c *Cluster) ReadLeveled(id NodeID, key string, opt *LeveledRead) (store.Versioned, bool, error) {
	st, err := c.serve(id, key, opt)
	if err != nil {
		return store.Versioned{}, false, err
	}
	v, ok := st.Read(key)
	if ok && opt != nil && opt.Token != nil && (opt.Level == LevelSession || opt.Level == LevelStrong) {
		// What was served joins the session's monotonic floor. The gate's
		// fold-back is not enough: applies precede publish, so the lock-free
		// store may hold a version the applied watermark does not name yet.
		opt.Token.ObserveWrite(v.TS)
	}
	return v, ok, nil
}

// serve is the one client read body, up to the store lookup its two faces
// (Cluster.Read, ReadLeveled) finish with: it resolves the replica, refuses
// if it is not serving — reads at a killed replica fail, a crashed server
// cannot serve, matching writes — meters the request, enforces the
// freshness gate of opt's level (nil opt: a plain read, no gate) and returns
// the store to read key from. The lookup then counts the read once in the
// store's striped read counter; a leveled read also counts under its level
// here.
//
// The read path never acquires the replica lock: the store pointer is
// published atomically (nil while the replica is dead), the demand meter is
// atomic, the store itself is hash-striped, and the covered fast path of a
// leveled read is atomic loads plus one pass over the applied-watermark
// snapshot — it allocates nothing. Reads that must wait park on the
// cluster's freshness queue until the replica catches up, the deadline
// lapses (a KindNotFresh *Rejection matching ErrNotFresh), or the replica
// dies.
func (c *Cluster) serve(id NodeID, key string, opt *LeveledRead) (*store.Store, error) {
	if int(id) < 0 || int(id) >= len(c.replicas) {
		return nil, fmt.Errorf("runtime: no replica %v", id)
	}
	r := c.replicas[id]
	st := r.store.Load()
	if st == nil {
		return nil, r.deadError()
	}
	if r.meter != nil {
		r.meter.Record(time.Now())
	}
	if opt == nil {
		return st, nil
	}
	waited := false
	switch tok := opt.Token; opt.Level {
	case LevelSession, LevelBounded:
		// A nil token has nothing to be consistent with: eventual semantics.
		// Otherwise the steady-state probe runs inline, so the covered read
		// pays one atomic load and a pointer compare over the plain read
		// path; the token cache misses only when the replica's coverage
		// advanced.
		if tok == nil {
			break
		}
		if sum := r.applied.snap.Load(); sum == nil || tok.covered != sum {
			var maxLag uint64
			if opt.Level == LevelBounded {
				maxLag = opt.MaxLag
			}
			if err := c.awaitToken(r, opt, maxLag, opt.Level == LevelSession); err != nil {
				return nil, err
			}
			waited = true
		}
	case LevelStrong:
		if tok != nil {
			// Strong subsumes session: a token-carrying strong read also
			// honors the session floor. Without this, a dead replica holding
			// the only copy of a session-observed version would let the
			// freshest-live answer regress below the floor; instead the read
			// sheds until the origin returns.
			if err := c.awaitToken(r, opt, 0, true); err != nil {
				return nil, err
			}
		}
		if want, found := c.freshestVersion(key); found && !r.applied.covers(want.TS) {
			if err := c.waitFresh(r, nil, want.TS, 0, opt); err != nil {
				return nil, err
			}
			if !r.applied.covers(want.TS) {
				return nil, c.notFresh(r, opt.Level)
			}
		}
		waited = true
	}
	if waited {
		// The waits may have outlived the incarnation the store was loaded
		// from: a read parked across a kill and restart wakes on the new
		// incarnation's coverage and must not serve the old one's store.
		if st = r.store.Load(); st == nil {
			return nil, r.deadError()
		}
	}
	c.countRead(opt.Level)
	return st, nil
}

// awaitToken gates a token-carrying read: it returns once r's applied
// coverage is within maxLag of opt.Token (folding the coverage back into
// the token when merge is set), parking on the freshness queue if it is not
// there yet. Off the covered fast path of session reads, which probe the
// token's cache inline first.
func (c *Cluster) awaitToken(r *replica, opt *LeveledRead, maxLag uint64, merge bool) error {
	if r.applied.readCovered(opt.Token, maxLag, merge) {
		return nil
	}
	if err := c.waitFresh(r, &opt.Token.sum, vclock.Timestamp{}, maxLag, opt); err != nil {
		return err
	}
	// Caught up — or a racing restart reset coverage: re-check.
	if !r.applied.readCovered(opt.Token, maxLag, merge) {
		return c.notFresh(r, opt.Level)
	}
	return nil
}

// notFresh builds the freshness rejection and counts the shed. The backoff
// hint is half the mean anti-entropy session interval — the expected time
// to the next absorb — clamped like the admission plane's.
func (c *Cluster) notFresh(r *replica, lvl Level) error {
	if r.store.Load() == nil {
		return r.deadError()
	}
	if co := c.opts.obs; co != nil {
		co.NotFresh.Inc()
	}
	return &Rejection{Kind: KindNotFresh, Replica: r.id, Reason: lvl.String(),
		RetryAfter: clampRetry(c.opts.sessionMean / 2)}
}

// countRead bumps the per-level read counter when observability is on.
func (c *Cluster) countRead(lvl Level) {
	co := c.opts.obs
	if co == nil {
		return
	}
	switch lvl {
	case LevelEventual:
		co.ReadsEventual.Inc()
	case LevelSession:
		co.ReadsSession.Inc()
	case LevelBounded:
		co.ReadsBounded.Inc()
	case LevelStrong:
		co.ReadsStrong.Inc()
	}
}

// freshestVersion pins the LWW-freshest version of key across all live
// replicas — the strong read's convergence target. found is false when no
// live replica holds the key.
func (c *Cluster) freshestVersion(key string) (store.Versioned, bool) {
	var want store.Versioned
	found := false
	for _, rp := range c.replicas {
		stp := rp.store.Load()
		if stp == nil {
			continue
		}
		v, ok := stp.GetVersion(key)
		if !ok {
			continue
		}
		if !found || want.Older(v) {
			want, found = v, true
		}
	}
	return want, found
}

// TokenCovered reports whether replica id's applied coverage already
// dominates tok — the shard router's routing probe, taken without any
// lock (two atomic loads plus one summary pass). A nil token
// is covered everywhere; a dead replica covers nothing.
func (c *Cluster) TokenCovered(id NodeID, tok *Token) bool {
	if int(id) < 0 || int(id) >= len(c.replicas) {
		return false
	}
	r := c.replicas[id]
	if r.store.Load() == nil {
		return false
	}
	if tok == nil {
		return true
	}
	return r.applied.lagBehind(&tok.sum) == 0
}

// Session binds a token to a cluster with per-session wait parameters — the
// convenience surface over WriteToken/ReadLeveled. Not safe for concurrent
// use; one session is one logical client.
type Session struct {
	c *Cluster
	// MaxLag is the staleness bound LevelBounded reads enforce.
	MaxLag uint64
	// Deadline bounds every freshness wait; 0 selects DefaultFreshWait.
	Deadline time.Duration

	tok Token
	opt LeveledRead
}

// NewSession starts an empty session against the cluster.
func (c *Cluster) NewSession() *Session { return &Session{c: c} }

// Write performs a session write at replica id: the acknowledged position
// joins the token.
func (s *Session) Write(id NodeID, key string, value []byte) (WriteReceipt, error) {
	return s.c.WriteToken(id, key, value, &s.tok)
}

// Read serves a session-level read at replica id (read-your-writes +
// monotonic reads).
func (s *Session) Read(id NodeID, key string) (store.Versioned, bool, error) {
	return s.ReadLevel(id, key, LevelSession)
}

// ReadLevel serves a read at replica id under an explicit level, carrying
// the session's token and wait parameters.
func (s *Session) ReadLevel(id NodeID, key string, lvl Level) (store.Versioned, bool, error) {
	s.opt = LeveledRead{Level: lvl, Token: &s.tok, MaxLag: s.MaxLag, Deadline: s.Deadline}
	return s.c.ReadLeveled(id, key, &s.opt)
}

// appliedMark is a replica's applied-coverage watermark: the log summary
// as of the last mutation whose store apply completed, maintained by the
// runtime because the node advances the log summary BEFORE applying
// entries to the store (probing the live log could show coverage whose
// values the store lacks). publish/reset run under the replica lock at the
// end of mutating critical sections and swap in a fresh immutable
// snapshot; read-side probes are one atomic load plus a pass over the
// snapshot — no lock at all on the covered session-read fast path, the
// same shape as the lock-free store pointer. A nil snapshot (before the
// first publish) reads as empty coverage.
type appliedMark struct {
	snap atomic.Pointer[vclock.Summary]
}

// publish folds the log's current summary into a widened copy of the
// watermark and swaps it in (monotonic within an incarnation). Called
// under the replica lock after every store apply completes, which
// serializes it with reset; the clone-per-apply cost rides the write path,
// keeping every read probe allocation-free.
func (m *appliedMark) publish(lg *wlog.Log) {
	next := m.snap.Load().Clone()
	lg.MergeSummaryInto(next)
	m.snap.Store(next)
}

// reset REPLACES the watermark with the log's current summary — the
// restart path, where a new incarnation's coverage may be behind the old
// one's and a stale watermark would overstate what the new store holds.
func (m *appliedMark) reset(lg *wlog.Log) {
	m.snap.Store(lg.Summary())
}

// readCovered is the session-read probe. A token whose cache pins the
// current snapshot is covered by one pointer compare; otherwise one pass
// over the snapshot reports whether the watermark's lag behind the token is
// within maxLag. When covered exactly (lag 0) and merge is set, the
// snapshot is folded into the token (the monotonic-reads update) and the
// cache re-pins, so a session parked on one replica pays the pass only when
// the replica's coverage advances.
func (m *appliedMark) readCovered(tok *Token, maxLag uint64, merge bool) bool {
	sum := m.snap.Load()
	if sum != nil && tok.covered == sum {
		return true
	}
	lag, gains := sum.LagDelta(&tok.sum)
	ok := lag <= maxLag
	if ok && merge {
		if gains {
			tok.sum.Merge(sum)
		}
		if lag == 0 {
			tok.covered = sum
		}
	}
	return ok
}

// lagBehind returns how many writes want covers that the watermark does
// not.
func (m *appliedMark) lagBehind(want *vclock.Summary) uint64 {
	return m.snap.Load().LagBehind(want)
}

// covers reports whether the watermark covers the single write ts.
func (m *appliedMark) covers(ts vclock.Timestamp) bool {
	return m.snap.Load().Covers(ts)
}

// freshWaiter is one leveled read parked until a replica's applied
// coverage reaches its target: a summary watermark within maxLag
// (session/bounded) or a single write (strong). ch closes when satisfied.
// want is only dereferenced while the waiter is registered, during which
// the owning reader is parked — so the token's summary is never read and
// written concurrently.
type freshWaiter struct {
	id     NodeID
	want   *vclock.Summary
	ts     vclock.Timestamp
	maxLag uint64
	ch     chan struct{}
}

// satisfied probes the waiter's target against a replica's watermark.
func (w *freshWaiter) satisfied(m *appliedMark) bool {
	if w.want != nil {
		return m.lagBehind(w.want) <= w.maxLag
	}
	return m.covers(w.ts)
}

// freshQueue is the cluster's set of parked leveled reads. count mirrors
// len(waiters) so the per-advance signal is one atomic load when no read
// is waiting — the same fast-path shape as propagation watches.
type freshQueue struct {
	mu      sync.Mutex
	waiters []*freshWaiter
	count   atomic.Int32
}

// signalFresh wakes every waiter on replica id whose target the replica's
// applied coverage now satisfies. Called from every point that advances a
// replica's coverage (via checkWatches) and from the restart paths.
func (c *Cluster) signalFresh(id NodeID) {
	q := &c.fresh
	if q.count.Load() == 0 {
		return
	}
	r := c.replicas[id]
	q.mu.Lock()
	n := 0
	for _, w := range q.waiters {
		if w.id == id && w.satisfied(&r.applied) {
			close(w.ch)
			q.count.Add(-1)
			continue
		}
		q.waiters[n] = w
		n++
	}
	for i := n; i < len(q.waiters); i++ {
		q.waiters[i] = nil
	}
	q.waiters = q.waiters[:n]
	q.mu.Unlock()
}

// remove unregisters w (deadline path), reporting false when a signal
// already fired it.
func (q *freshQueue) remove(w *freshWaiter) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, cw := range q.waiters {
		if cw == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			q.count.Add(-1)
			return true
		}
	}
	return false
}

// waitFresh parks the calling read until replica r's applied coverage
// satisfies the target (want within maxLag, or the single write ts when
// want is nil), opt's deadline lapses, or the replica dies. Runs only on
// the miss path — the covered fast path never calls it.
func (c *Cluster) waitFresh(r *replica, want *vclock.Summary, ts vclock.Timestamp, maxLag uint64, opt *LeveledRead) error {
	deadline := opt.Deadline
	if deadline <= 0 {
		deadline = DefaultFreshWait
	}
	w := &freshWaiter{id: r.id, want: want, ts: ts, maxLag: maxLag, ch: make(chan struct{})}
	q := &c.fresh
	q.mu.Lock()
	// Re-check under the queue lock: the covering advance may have landed
	// (and signalled) between the fast-path probe and registration.
	if w.satisfied(&r.applied) {
		q.mu.Unlock()
		return nil
	}
	q.waiters = append(q.waiters, w)
	q.count.Add(1)
	q.mu.Unlock()

	var waitStart time.Time
	co := c.opts.obs
	if co != nil {
		waitStart = time.Now()
	}
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case <-w.ch:
		if co != nil {
			co.FreshWaitSeconds.Observe(time.Since(waitStart).Seconds())
		}
		return nil
	case <-timer.C:
		if !q.remove(w) {
			// A signal fired between the timeout and the removal: the
			// coverage arrived in time after all.
			if co != nil {
				co.FreshWaitSeconds.Observe(time.Since(waitStart).Seconds())
			}
			return nil
		}
		return c.notFresh(r, opt.Level)
	}
}
