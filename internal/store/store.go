// Package store implements the replicated key-value content store each
// replica serves to its clients.
//
// The paper's model (§2) is a fully replicated system: every node must
// eventually hold exactly the same content. Writes arrive as wlog entries;
// the store applies them with last-writer-wins resolution on the entry's
// Lamport clock (ties broken by origin id), which is deterministic and
// order-independent, so any two replicas that have applied the same set of
// entries hold identical content — the convergence property anti-entropy
// relies on.
//
// The store also tracks read statistics: how many client reads were served
// and how many of those were served with *stale* content relative to a
// reference version. This is the paper's headline metric — "number of
// requests satisfied with consistent content" (Fig. 3).
//
// Values follow the wlog immutability contract: entry values are never
// mutated after insertion into a log, so the store aliases them rather than
// copying — Apply retains the entry's value slice, and Get/GetVersion/
// Snapshot return views that callers must treat as read-only.
//
// # Concurrency
//
// The store is the client-plane hot spot: every client read lands here while
// anti-entropy applies entries concurrently. Keys are hash-striped across
// fixed segments, each with its own RWMutex, so concurrent Get/Apply on
// different keys take disjoint locks and concurrent reads of the same
// segment share a read lock; the read/applied counters are atomics, so a
// Get never takes an exclusive lock. Whole-store views (Keys, Snapshot,
// Digest) visit segments one at a time: each segment is internally
// consistent, but the view is not a point-in-time snapshot across segments
// under concurrent writes — callers compare digests or hand off snapshots at
// quiesce points, where the distinction vanishes.
package store

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/vclock"
	"repro/internal/wlog"
)

// Versioned is a stored value together with the write that produced it.
type Versioned struct {
	// Value is the stored payload (a read-only view).
	Value []byte
	// TS is the producing write's (origin, sequence) position.
	TS vclock.Timestamp
	// Clock is that write's Lamport clock, the LWW order's major key.
	Clock uint64
}

// Older reports whether v precedes w in the store's last-writer-wins
// order: lower Lamport clock, ties broken by the total order on timestamps.
func (v Versioned) Older(w Versioned) bool {
	if v.Clock != w.Clock {
		return v.Clock < w.Clock
	}
	return v.TS.Compare(w.TS) < 0
}

// segments is the stripe count — a power of two so the hash folds with a
// mask. 16 keeps cross-CPU collisions on independent keys unlikely at
// realistic client concurrency while keeping the (padded) segment array
// cheap enough that simulation workloads can still build thousands of
// short-lived stores per second.
const segments = 16

// segment is one stripe: a map guarded by its own lock, plus the stripe's
// share of the read counters — counting on the segment the reader already
// owns keeps the hot-key read path off any store-global cache line. The
// struct is padded to a cache line so neighbouring stripes never false-share.
type segment struct {
	mu         sync.RWMutex
	kv         map[string]Versioned
	reads      atomic.Uint64
	staleReads atomic.Uint64
	_          [16]byte // pad to a full cache line (mutex 24 + map 8 + counters 16)
}

// Store is a convergent replicated KV store. The zero value is ready to use.
// Store is safe for concurrent use.
type Store struct {
	segs [segments]segment

	applied atomic.Int64
}

// New returns an empty store.
func New() *Store { return &Store{} }

// seg returns the segment owning key (FNV-1a over the key bytes).
func (s *Store) seg(key string) *segment {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * prime32
	}
	return &s.segs[h&(segments-1)]
}

// Apply folds one write into the store. Apply is idempotent for a given
// entry and commutative across distinct entries: the final state depends
// only on the set of entries applied.
func (s *Store) Apply(e wlog.Entry) {
	s.applied.Add(1)
	sg := s.seg(e.Key)
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if sg.kv == nil {
		sg.kv = make(map[string]Versioned)
	}
	cur, ok := sg.kv[e.Key]
	if ok && !wins(e, cur) {
		return
	}
	// The value is aliased, not copied: entries are immutable once logged.
	sg.kv[e.Key] = Versioned{Value: e.Value, TS: e.TS, Clock: e.Clock}
}

// wins reports whether entry e supersedes the current versioned value under
// last-writer-wins (see Versioned.Older).
func wins(e wlog.Entry, cur Versioned) bool {
	return cur.Older(Versioned{TS: e.TS, Clock: e.Clock})
}

// Read serves a client read of key: the current version and whether it
// exists, counted once in the key's stripe. The returned value slice is a
// read-only view; callers must not mutate it. Read takes only a shared
// segment lock, so concurrent reads never serialise against each other.
func (s *Store) Read(key string) (Versioned, bool) {
	sg := s.seg(key)
	sg.reads.Add(1)
	sg.mu.RLock()
	v, ok := sg.kv[key]
	sg.mu.RUnlock()
	return v, ok
}

// Get is Read for callers that want only the value. (It keeps its own
// lookup: a Versioned is too wide for the compiler to pass in registers,
// and the plain client read path is this function.)
func (s *Store) Get(key string) ([]byte, bool) {
	sg := s.seg(key)
	sg.reads.Add(1)
	sg.mu.RLock()
	v, ok := sg.kv[key]
	sg.mu.RUnlock()
	return v.Value, ok
}

// GetVersion returns the version metadata for key without counting a read.
// The returned value slice is a read-only view.
func (s *Store) GetVersion(key string) (Versioned, bool) {
	sg := s.seg(key)
	sg.mu.RLock()
	defer sg.mu.RUnlock()
	v, ok := sg.kv[key]
	if !ok {
		return Versioned{}, false
	}
	return v, true
}

// ReadAsOf serves a client read of key and records whether the served
// version is at least want (the reference write). A read is stale when the
// key is absent or its version's write is neither want itself nor a
// later-clocked write. This implements the paper's "requests satisfied with
// consistent (updated) content" counter.
func (s *Store) ReadAsOf(key string, want vclock.Timestamp, wantClock uint64) (fresh bool) {
	sg := s.seg(key)
	sg.reads.Add(1)
	sg.mu.RLock()
	v, ok := sg.kv[key]
	sg.mu.RUnlock()
	fresh = ok && (v.TS == want || v.Clock > wantClock ||
		(v.Clock == wantClock && v.TS.Compare(want) >= 0))
	if !fresh {
		sg.staleReads.Add(1)
	}
	return fresh
}

// Keys returns all keys in ascending order.
func (s *Store) Keys() []string {
	keys := make([]string, 0, s.Len())
	for i := range s.segs {
		sg := &s.segs[i]
		sg.mu.RLock()
		for k := range sg.kv {
			keys = append(keys, k)
		}
		sg.mu.RUnlock()
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.segs {
		sg := &s.segs[i]
		sg.mu.RLock()
		n += len(sg.kv)
		sg.mu.RUnlock()
	}
	return n
}

// Applied returns how many entries have been applied (including no-ops that
// lost LWW resolution).
func (s *Store) Applied() int {
	return int(s.applied.Load())
}

// ReadStats returns the total reads served and how many were stale.
func (s *Store) ReadStats() (reads, stale uint64) {
	for i := range s.segs {
		reads += s.segs[i].reads.Load()
		stale += s.segs[i].staleReads.Load()
	}
	return reads, stale
}

// Item is one key's versioned state, the unit of full-state snapshots.
type Item struct {
	Key   string
	Value []byte
	TS    vclock.Timestamp
	Clock uint64
}

// Snapshot exports the store's current contents in ascending key order. The
// item values are read-only views of the stored values (immutability
// contract), so exporting copies no payload bytes. Under concurrent writes
// the image is consistent per key (and per segment) but not across segments;
// see the package comment.
func (s *Store) Snapshot() []Item {
	items := make([]Item, 0, s.Len())
	for i := range s.segs {
		sg := &s.segs[i]
		sg.mu.RLock()
		for k, v := range sg.kv {
			items = append(items, Item{Key: k, Value: v.Value, TS: v.TS, Clock: v.Clock})
		}
		sg.mu.RUnlock()
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Key < items[j].Key })
	return items
}

// ApplySnapshot merges a full-state snapshot using the same LWW resolution
// as Apply, so it is safe regardless of interleaving with entry-wise
// updates.
func (s *Store) ApplySnapshot(items []Item) {
	for _, item := range items {
		s.Apply(wlog.Entry{TS: item.TS, Key: item.Key, Value: item.Value, Clock: item.Clock})
	}
}

// Digest returns a deterministic fingerprint of the store content, usable to
// check that two replicas converged to identical state. It is an FNV-1a hash
// over sorted key/value/version triples.
func (s *Store) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	items := s.Snapshot()
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	for _, it := range items {
		for i := 0; i < len(it.Key); i++ {
			mix(it.Key[i])
		}
		mix(0)
		for _, b := range it.Value {
			mix(b)
		}
		mix(0)
		for i := 0; i < 8; i++ {
			mix(byte(it.Clock >> (8 * i)))
		}
		for i := 0; i < 4; i++ {
			mix(byte(uint32(it.TS.Node) >> (8 * i)))
		}
		for i := 0; i < 8; i++ {
			mix(byte(it.TS.Seq >> (8 * i)))
		}
	}
	return h
}
