// Package wlog implements the per-replica write log of the anti-entropy
// protocol.
//
// Every client write becomes an Entry stamped with a vclock.Timestamp. The
// log indexes entries by origin so that, given a partner's summary vector,
// it can produce exactly the entries the partner is missing (the data phase
// of an anti-entropy session, paper §2.1 steps 7–11).
//
// The log also supports the truncation policies discussed in the paper's
// related-work section (Bayou, Petersen et al.): entries covered by a
// "stable" summary — one known to be dominated by every replica's summary —
// may be discarded to bound storage, at the cost of longer sessions with
// replicas that later turn out to need them.
//
// # Immutability contract
//
// An Entry's Key and Value are immutable from the moment the entry enters a
// log: neither the log nor any caller may mutate them afterwards. Append
// copies the caller's value slice (the caller may reuse its buffer), but
// every read path — Get, MissingGiven, All — returns entries that share the
// log's backing arrays, and Add/AddBatch retain the given entries without
// copying. This makes the protocol data phase zero-copy end to end: an entry
// produced by one replica's MissingGiven can flow through an in-memory
// transport into a partner's AddBatch and store with no per-entry
// allocation. Callers that genuinely need a private mutable copy use
// Entry.Clone.
package wlog

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/vclock"
)

// Entry is one replicated write operation.
type Entry struct {
	// TS uniquely identifies the write (origin replica + sequence).
	TS vclock.Timestamp
	// Key and Value carry the write's content ("write" operation of the
	// paper's model §2). Both are immutable once the entry is in a log; see
	// the package comment's immutability contract.
	Key   string
	Value []byte
	// Clock is the Lamport clock attached at the origin; the store uses it
	// for last-writer-wins conflict resolution across origins.
	Clock uint64
}

// Clone returns a deep copy of e, for the rare caller that needs a mutable
// value outside the immutability contract.
func (e Entry) Clone() Entry {
	c := e
	if e.Value != nil {
		c.Value = append([]byte(nil), e.Value...)
	}
	return c
}

// String renders the entry compactly for traces.
func (e Entry) String() string {
	return fmt.Sprintf("%v %s=%q@%d", e.TS, e.Key, e.Value, e.Clock)
}

// ErrGap is returned by Add when an entry would leave a sequence hole for
// its origin (e.g. receiving n3:5 while the log only covers n3:3).
var ErrGap = errors.New("wlog: entry would create a sequence gap")

// ErrTruncated is returned by MissingGiven when the partner needs entries
// the log has already truncated; recovery requires a full-state transfer.
var ErrTruncated = errors.New("wlog: required entries already truncated")

// logChunk is the number of entries per full storage chunk. 1024 entries ≈
// 64KiB of Entry headers — large enough to amortise chunk allocation, small
// enough that a partially truncated head chunk pins little memory.
// logChunkSeed is the capacity of an origin's very first allocation: most
// origins in a simulation hold a handful of entries, and paying a full
// chunk for each would dominate small-trial memory.
const (
	logChunk     = 1024
	logChunkSeed = 8
)

// chunkedEntries stores one origin's retained entries in fixed-size chunks.
// Unlike a single contiguous slice, appends never recopy or re-zero the
// entries already stored (no growslice doubling on million-entry logs — the
// sustained-write hot path), and truncation drops whole chunks instead of
// copying the survivors. The tail chunk starts at logChunkSeed capacity and
// grows geometrically in place until it reaches logChunk (a bounded, one-off
// cost per origin); every earlier chunk holds exactly logChunk entries, so
// indexing stays O(1).
type chunkedEntries struct {
	off    int       // entries logically dropped from the front of chunks[0]
	n      int       // retained entry count
	chunks [][]Entry // every chunk but the last holds exactly logChunk entries
}

func (c *chunkedEntries) append(e Entry) {
	if len(c.chunks) == 0 {
		c.chunks = append(c.chunks, make([]Entry, 0, logChunkSeed))
	}
	last := len(c.chunks) - 1
	ch := c.chunks[last]
	if len(ch) == cap(ch) {
		if cap(ch) < logChunk {
			// Grow the tail chunk toward full size. Copying here is safe
			// under the immutability contract — previously handed-out views
			// keep reading identical entries from the old array — and
			// bounded: an origin pays at most ~2/3·logChunk copied entries
			// over its whole lifetime.
			bigger := make([]Entry, len(ch), min(cap(ch)*4, logChunk))
			copy(bigger, ch)
			c.chunks[last] = bigger
			ch = bigger
		} else {
			ch = make([]Entry, 0, logChunk)
			c.chunks = append(c.chunks, ch)
			last++
		}
	}
	c.chunks[last] = append(ch, e)
	c.n++
}

// at returns the i-th retained entry (0-based).
func (c *chunkedEntries) at(i int) Entry {
	j := i + c.off
	return c.chunks[j/logChunk][j%logChunk]
}

// appendRange appends the retained entries [from, to) to dst as zero-copy
// views sharing the chunk backing arrays.
func (c *chunkedEntries) appendRange(dst []Entry, from, to int) []Entry {
	j, end := from+c.off, to+c.off
	for j < end {
		ch := c.chunks[j/logChunk]
		lo := j % logChunk
		hi := lo + (end - j)
		if hi > len(ch) {
			hi = len(ch)
		}
		dst = append(dst, ch[lo:hi]...)
		j += hi - lo
	}
	return dst
}

// dropFront discards the first d retained entries, calling onDrop for each
// (storage accounting), zeroing the vacated slots so value refs release, and
// freeing whole chunks as the floor passes them.
func (c *chunkedEntries) dropFront(d int, onDrop func(Entry)) {
	if d > c.n {
		d = c.n
	}
	for i := 0; i < d; i++ {
		j := c.off + i
		ch := c.chunks[j/logChunk]
		onDrop(ch[j%logChunk])
		ch[j%logChunk] = Entry{}
	}
	c.off += d
	c.n -= d
	for len(c.chunks) > 0 && c.off >= logChunk {
		c.chunks[0] = nil
		c.chunks = c.chunks[1:]
		c.off -= logChunk
	}
}

// Log is a write log. The zero value is ready to use. Log is safe for
// concurrent use.
type Log struct {
	mu sync.RWMutex
	// byOrigin[n] holds, in sequence order, entries originated at n that are
	// still retained. Retained entries are always a contiguous sequence
	// range [truncated[n]+1 .. summary.Get(n)].
	byOrigin map[vclock.NodeID]*chunkedEntries
	// truncated[n] is the highest sequence from origin n discarded by
	// truncation. 0 means nothing was truncated.
	truncated map[vclock.NodeID]uint64
	// floor, when non-nil, is the persisted-snapshot watermark truncation
	// may not cross: entries with sequences above it are not yet covered by
	// any durable snapshot, so compacting them away would leave disk
	// recovery (snapshot + retained log) incomplete. See LimitTruncation.
	floor   *vclock.Summary
	summary vclock.Summary
	bytes   int
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Append records a new local write at origin, assigning the next sequence
// number, and returns the resulting entry. The caller supplies the Lamport
// clock value. The caller's value slice is copied; the returned entry shares
// the log's backing array and is immutable.
func (l *Log) Append(origin vclock.NodeID, key string, value []byte, clock uint64) Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Entry{TS: l.summary.Next(origin), Key: key, Clock: clock}
	if value != nil {
		e.Value = append([]byte(nil), value...)
	}
	l.insertLocked(e)
	return e
}

// LocalWrite is one client write of a local group commit: the content plus
// the Lamport clock the origin assigned. AppendBatch turns each into an
// Entry stamped with the origin's next sequence number.
type LocalWrite struct {
	Key   string
	Value []byte
	Clock uint64
}

// AppendBatch records a batch of new local writes at origin under one lock
// acquisition — the log half of a client-plane group commit. Sequence
// numbers are assigned in batch order, so the returned entries (in input
// order) are exactly what a per-write Append loop would have produced.
// Values are copied like Append; the returned entries share the log's
// backing arrays and are immutable.
func (l *Log) AppendBatch(origin vclock.NodeID, writes []LocalWrite) []Entry {
	if len(writes) == 0 {
		return nil
	}
	// One arena holds every copied value: a batch costs one value
	// allocation instead of one per write. Sub-slices are immutable the
	// moment they enter the log, so sharing a backing array is safe.
	total := 0
	for _, w := range writes {
		total += len(w.Value)
	}
	arena := make([]byte, 0, total)
	out := make([]Entry, 0, len(writes))
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, w := range writes {
		e := Entry{TS: l.summary.Next(origin), Key: w.Key, Clock: w.Clock}
		if len(w.Value) > 0 {
			start := len(arena)
			arena = append(arena, w.Value...)
			e.Value = arena[start:len(arena):len(arena)]
		}
		l.insertLocked(e)
		out = append(out, e)
	}
	return out
}

// Add inserts an entry received from a partner, retaining e's Key and Value
// without copying (immutability contract). Duplicates are ignored and
// reported as (false, nil). Entries that would create a sequence gap return
// ErrGap; callers deliver a remote origin's entries in sequence order, which
// MissingGiven guarantees.
func (l *Log) Add(e Entry) (added bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.summary.Get(e.TS.Node)
	switch {
	case e.TS.Seq <= cur:
		return false, nil
	case e.TS.Seq != cur+1:
		return false, fmt.Errorf("%w: got %v, have seq %d", ErrGap, e.TS, cur)
	}
	l.insertLocked(e)
	return true, nil
}

// AddBatch inserts a batch of entries received from a partner, taking the
// log lock once for the whole batch. Entries must arrive in the (origin,
// seq)-ascending order MissingGiven produces so one origin's entries never
// self-gap. Duplicates are skipped silently; entries that would create a
// sequence gap are skipped and counted in gaps. AddBatch returns the entries
// actually added, in input order, sharing the input's backing arrays.
func (l *Log) AddBatch(entries []Entry) (added []Entry, gaps int) {
	if len(entries) == 0 {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range entries {
		cur := l.summary.Get(e.TS.Node)
		switch {
		case e.TS.Seq <= cur:
			continue
		case e.TS.Seq != cur+1:
			gaps++
			continue
		}
		l.insertLocked(e)
		if added == nil {
			added = make([]Entry, 0, len(entries))
		}
		added = append(added, e)
	}
	return added, gaps
}

func (l *Log) insertLocked(e Entry) {
	l.summary.Observe(e.TS)
	if l.byOrigin == nil {
		l.byOrigin = make(map[vclock.NodeID]*chunkedEntries)
	}
	ce := l.byOrigin[e.TS.Node]
	if ce == nil {
		ce = &chunkedEntries{}
		l.byOrigin[e.TS.Node] = ce
	}
	ce.append(e)
	l.bytes += len(e.Key) + len(e.Value)
}

// Summary returns a copy of the log's summary vector.
func (l *Log) Summary() *vclock.Summary {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.summary.Clone()
}

// SummaryTotal returns the total number of writes the log's summary covers,
// without cloning the vector. It is the cheap convergence-progress probe.
func (l *Log) SummaryTotal() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.summary.Total()
}

// CompareSummary returns the lattice order between the log's summary and
// other, without cloning the vector.
func (l *Log) CompareSummary(other *vclock.Summary) vclock.Ordering {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.summary.Compare(other)
}

// Covers reports whether the log has received the write named by ts.
func (l *Log) Covers(ts vclock.Timestamp) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.summary.Covers(ts)
}

// LagBehind returns how many writes want covers that the log has not yet
// received, without cloning the vector. Zero means the log covers want.
func (l *Log) LagBehind(want *vclock.Summary) uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.summary.LagBehind(want)
}

// MergeSummaryInto folds the log's summary into dst (element-wise max)
// without cloning the vector. dst must not be shared with other
// goroutines; the log's own summary is only read.
func (l *Log) MergeSummaryInto(dst *vclock.Summary) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	dst.Merge(&l.summary)
}

// Get returns the entry named by ts, if it is retained. The entry shares the
// log's backing arrays (immutability contract).
func (l *Log) Get(ts vclock.Timestamp) (Entry, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	entries := l.byOrigin[ts.Node]
	base := l.truncated[ts.Node]
	if entries == nil || ts.Seq <= base || ts.Seq > l.summary.Get(ts.Node) {
		return Entry{}, false
	}
	return entries.at(int(ts.Seq - base - 1)), true
}

// MissingGiven returns, in a deterministic order (origin ascending, then
// sequence ascending), all retained entries not covered by the partner
// summary. The entries share the log's backing arrays (immutability
// contract); only the returned slice itself is fresh. If truncation already
// discarded entries the partner needs, it returns ErrTruncated.
func (l *Log) MissingGiven(partner *vclock.Summary) ([]Entry, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()

	// Size the result exactly before collecting, so one allocation serves
	// the whole batch.
	need := 0
	var err error
	l.summary.ForEach(func(origin vclock.NodeID, have uint64) {
		theirs := partner.Get(origin)
		if theirs >= have || err != nil {
			return
		}
		if base := l.truncated[origin]; theirs < base {
			err = fmt.Errorf("%w: partner at %v:%d, truncated through %d",
				ErrTruncated, origin, theirs, base)
			return
		}
		need += int(have - theirs)
	})
	if err != nil {
		return nil, err
	}
	if need == 0 {
		return nil, nil
	}
	out := make([]Entry, 0, need)
	l.summary.ForEach(func(origin vclock.NodeID, have uint64) {
		theirs := partner.Get(origin)
		if theirs >= have {
			return
		}
		base := l.truncated[origin]
		out = l.byOrigin[origin].appendRange(out, int(theirs-base), int(have-base))
	})
	return out, nil
}

// Len returns the number of retained entries.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := 0
	for _, entries := range l.byOrigin {
		n += entries.n
	}
	return n
}

// Bytes returns the approximate retained payload size (keys + values).
func (l *Log) Bytes() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.bytes
}

// All returns every retained entry ordered by origin then sequence, sharing
// the log's backing arrays (immutability contract). Unlike MissingGiven with
// an empty summary, All never fails on a truncated log: it returns whatever
// is retained.
func (l *Log) All() []Entry {
	return l.retained()
}

func (l *Log) retained() []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n := 0
	for _, entries := range l.byOrigin {
		n += entries.n
	}
	if n == 0 {
		return nil
	}
	out := make([]Entry, 0, n)
	l.summary.ForEach(func(origin vclock.NodeID, _ uint64) {
		if entries := l.byOrigin[origin]; entries != nil {
			out = entries.appendRange(out, 0, entries.n)
		}
	})
	return out
}

// LimitTruncation sets (or, with nil, clears) the persisted-snapshot floor:
// from now on TruncateCovered and TruncateKeepLast will never discard an
// entry whose sequence exceeds the floor for its origin, no matter what
// watermark the caller passes. The durable runtime pins the floor to the
// summary of the replica's latest on-disk snapshot after every save, which
// makes the invariant "everything the disk cannot reproduce is still in the
// log" structural instead of a caller obligation. persisted is cloned;
// origins absent from it (floor zero) cannot be truncated at all.
func (l *Log) LimitTruncation(persisted *vclock.Summary) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if persisted == nil {
		l.floor = nil
		return
	}
	l.floor = persisted.Clone()
}

// clampToFloorLocked caps a truncation watermark for origin at the
// persisted-snapshot floor, when one is set.
func (l *Log) clampToFloorLocked(origin vclock.NodeID, cut uint64) uint64 {
	if l.floor == nil {
		return cut
	}
	if f := l.floor.Get(origin); cut > f {
		return f
	}
	return cut
}

// TruncateCovered discards every entry covered by stable, a summary known to
// be dominated by all replicas (so no partner can ever need the discarded
// entries during normal anti-entropy). It returns the number of entries
// discarded. Truncating beyond what is actually stable trades storage for
// the risk of ErrTruncated sessions — exactly the Bayou trade-off the paper
// discusses. A persisted-snapshot floor (LimitTruncation) caps the cut.
func (l *Log) TruncateCovered(stable *vclock.Summary) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	discarded := 0
	for origin, entries := range l.byOrigin {
		base := l.truncated[origin]
		cut := stable.Get(origin)
		if head := l.summary.Get(origin); cut > head {
			cut = head
		}
		cut = l.clampToFloorLocked(origin, cut)
		if cut <= base {
			continue
		}
		drop := int(cut - base)
		entries.dropFront(drop, func(e Entry) {
			l.bytes -= len(e.Key) + len(e.Value)
		})
		if l.truncated == nil {
			l.truncated = make(map[vclock.NodeID]uint64)
		}
		l.truncated[origin] = cut
		discarded += drop
	}
	return discarded
}

// TruncatedThrough returns the highest discarded sequence for origin.
func (l *Log) TruncatedThrough(origin vclock.NodeID) uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.truncated[origin]
}

// TruncateKeepLast discards, for every origin, all retained entries except
// the most recent keep — the "aggressive" end of Bayou's truncation
// spectrum. Unlike TruncateCovered it needs no stability information, so it
// can force ErrTruncated sessions (and therefore snapshot transfers) when a
// partner lags more than keep writes behind. It returns the number of
// entries discarded. A persisted-snapshot floor (LimitTruncation) caps the
// cut regardless of keep.
func (l *Log) TruncateKeepLast(keep int) int {
	if keep < 0 {
		keep = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	discarded := 0
	for origin, entries := range l.byOrigin {
		head := l.summary.Get(origin)
		floor := l.truncated[origin]
		newFloor := head - uint64(keep)
		if uint64(keep) > head {
			newFloor = 0
		}
		newFloor = l.clampToFloorLocked(origin, newFloor)
		if newFloor <= floor {
			continue
		}
		drop := int(newFloor - floor)
		if drop > entries.n {
			drop = entries.n
		}
		entries.dropFront(drop, func(e Entry) {
			l.bytes -= len(e.Key) + len(e.Value)
		})
		if l.truncated == nil {
			l.truncated = make(map[vclock.NodeID]uint64)
		}
		l.truncated[origin] = newFloor
		discarded += drop
	}
	return discarded
}

// Adopt folds a full-state snapshot's summary into the log: for every
// origin where snap exceeds the local head, the log advances its summary to
// snap and marks the skipped range as truncated (the entries themselves
// arrive out-of-log via the snapshot's store image). Retained entries below
// a raised truncation floor are discarded. Adopt returns how many entries
// were discarded.
//
// This is the receiver half of anti-entropy's full-state transfer, the
// recovery path for ErrTruncated sessions.
func (l *Log) Adopt(snap *vclock.Summary) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	discarded := 0
	snap.ForEach(func(node vclock.NodeID, head uint64) {
		if head <= l.summary.Get(node) {
			return
		}
		// Raise the summary to the snapshot head; Advance skips the
		// contiguity check Observe enforces, because the skipped range is
		// covered by the snapshot's store image.
		l.summary.Advance(node, head)
		// Everything at or below the new head that we do not retain is now
		// logically truncated; discard retained entries below the floor.
		if entries := l.byOrigin[node]; entries != nil {
			entries.dropFront(entries.n, func(e Entry) {
				l.bytes -= len(e.Key) + len(e.Value)
				discarded++
			})
			delete(l.byOrigin, node)
		}
		if l.truncated == nil {
			l.truncated = make(map[vclock.NodeID]uint64)
		}
		l.truncated[node] = head
	})
	return discarded
}

// Sorted reports whether entries are in the (origin, seq)-ascending order
// MissingGiven produces, so batch consumers can skip re-sorting the common
// case.
func Sorted(entries []Entry) bool {
	for i := 1; i < len(entries); i++ {
		if entries[i-1].TS.Compare(entries[i].TS) > 0 {
			return false
		}
	}
	return true
}

// SortByTS sorts entries into (origin, seq)-ascending order in place.
func SortByTS(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].TS.Compare(entries[j].TS) < 0
	})
}
