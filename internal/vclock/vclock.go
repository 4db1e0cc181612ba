// Package vclock implements the logical-time machinery of Golding's
// timestamped anti-entropy protocol: per-write timestamps and per-replica
// summary vectors.
//
// A Timestamp names a single write uniquely by its origin replica and a
// per-origin sequence number. A Summary is the "summary vector" exchanged at
// the start of an anti-entropy session: for every origin replica it records
// the highest contiguous sequence number seen, so two replicas can compute
// exactly the set of writes each is missing.
//
// # Dense representation
//
// NodeIDs are small dense integers assigned by the topology (0, 1, 2, …), so
// a Summary stores its vector as a []uint64 indexed directly by NodeID rather
// than as a map. This makes Covers a bounds-checked array load, Merge and
// Compare single linear scans with no hashing or map iteration, Clone one
// slice copy, and Origins a scan that needs no sort — exactly the dense
// vector representation Golding's timestamped anti-entropy and Bayou's log
// truncation assume. The cost is that the vector's length is the highest
// origin id observed plus one; with dense ids that is within a constant
// factor of the population. Sparse or negative NodeIDs are outside the
// representation's contract: Observe panics on a negative origin.
package vclock

import (
	"fmt"
	"strings"
)

// NodeID identifies a replica. IDs are small dense integers assigned by the
// topology, which keeps summary vectors compact and comparisons cheap.
type NodeID int32

// String returns a short human-readable form such as "n7".
func (id NodeID) String() string { return fmt.Sprintf("n%d", int32(id)) }

// Timestamp uniquely identifies one write: the Seq-th write accepted at
// replica Node. Seq starts at 1; the zero Timestamp is not a valid write id.
type Timestamp struct {
	Node NodeID
	Seq  uint64
}

// IsZero reports whether ts is the zero value (no write).
func (ts Timestamp) IsZero() bool { return ts == Timestamp{} }

// String returns a form such as "n3:17".
func (ts Timestamp) String() string { return fmt.Sprintf("%v:%d", ts.Node, ts.Seq) }

// Compare orders timestamps first by origin, then by sequence. It induces an
// arbitrary but deterministic total order used for tie-breaking; it is not a
// happens-before order.
func (ts Timestamp) Compare(other Timestamp) int {
	switch {
	case ts.Node < other.Node:
		return -1
	case ts.Node > other.Node:
		return 1
	case ts.Seq < other.Seq:
		return -1
	case ts.Seq > other.Seq:
		return 1
	}
	return 0
}

// Ordering is the result of comparing two summary vectors.
type Ordering int

// Possible results of Summary.Compare.
const (
	Equal Ordering = iota + 1
	Before
	After
	Concurrent
)

// String returns the name of the ordering.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// Summary is a summary vector: for each origin replica, the highest sequence
// number such that all writes from that origin up to and including it have
// been received. The zero value is an empty summary ready to use.
//
// Summary is not safe for concurrent use; callers synchronise.
type Summary struct {
	// seq[n] is the highest contiguous sequence seen from origin n; entries
	// past the slice end are implicitly 0. Trailing zeros may be present
	// (e.g. after observing origin 7 before origin 3).
	seq []uint64
	// origins counts the non-zero entries of seq, so Len is O(1).
	origins int
}

// NewSummary returns an empty summary vector.
func NewSummary() *Summary { return &Summary{} }

// Get returns the highest contiguous sequence number seen from node, or 0.
func (s *Summary) Get(node NodeID) uint64 {
	if s == nil || node < 0 || int(node) >= len(s.seq) {
		return 0
	}
	return s.seq[node]
}

// Covers reports whether the summary already accounts for ts, i.e. whether a
// replica holding this summary has received the write named by ts.
func (s *Summary) Covers(ts Timestamp) bool {
	if ts.IsZero() {
		return true
	}
	return s.Get(ts.Node) >= ts.Seq
}

// grow extends the dense vector so index node is addressable. Spare capacity
// doubles so observing origins in ascending order stays amortised O(1); the
// region between the old and new length is zero because the backing array is
// allocated zeroed and never shrunk.
func (s *Summary) grow(node NodeID) {
	need := int(node) + 1
	if need <= len(s.seq) {
		return
	}
	if need <= cap(s.seq) {
		s.seq = s.seq[:need]
		return
	}
	newCap := 2 * cap(s.seq)
	if newCap < need {
		newCap = need
	}
	grown := make([]uint64, need, newCap)
	copy(grown, s.seq)
	s.seq = grown
}

// set stores seq for node, maintaining the non-zero-entry count. seq must be
// >= the current value (summaries only advance).
func (s *Summary) set(node NodeID, seq uint64) {
	if node < 0 {
		panic(fmt.Sprintf("vclock: negative origin %v breaks the dense-vector contract", node))
	}
	s.grow(node)
	if s.seq[node] == 0 && seq > 0 {
		s.origins++
	}
	s.seq[node] = seq
}

// Observe records receipt of the write named by ts. Writes from one origin
// must be observed in sequence order (the write log guarantees this); Observe
// panics on a gap because a gap would silently corrupt the "contiguous
// prefix" invariant every other method relies on.
func (s *Summary) Observe(ts Timestamp) {
	if ts.IsZero() {
		return
	}
	cur := s.Get(ts.Node)
	switch {
	case ts.Seq <= cur:
		return // duplicate delivery; already covered
	case ts.Seq != cur+1:
		panic(fmt.Sprintf("vclock: out-of-order observe %v after seq %d", ts, cur))
	}
	s.set(ts.Node, ts.Seq)
}

// Advance raises the vector for node to at least seq, skipping any
// intermediate sequences. It is the non-contiguous counterpart of Observe,
// used when adopting a full-state snapshot whose intervening writes arrive
// out-of-log; every sequence at or below seq is then covered by fiat.
func (s *Summary) Advance(node NodeID, seq uint64) {
	if seq == 0 || seq <= s.Get(node) {
		return
	}
	s.set(node, seq)
}

// Next returns the timestamp the given origin should assign to its next
// local write, based on this summary.
func (s *Summary) Next(node NodeID) Timestamp {
	return Timestamp{Node: node, Seq: s.Get(node) + 1}
}

// Merge folds other into s, taking the element-wise maximum. Merging is the
// commutative, associative, idempotent join of the summary lattice.
func (s *Summary) Merge(other *Summary) {
	if other == nil || len(other.seq) == 0 {
		return
	}
	if n := len(other.seq); n > len(s.seq) {
		s.grow(NodeID(n - 1))
	}
	for node, seq := range other.seq {
		if seq > s.seq[node] {
			if s.seq[node] == 0 {
				s.origins++
			}
			s.seq[node] = seq
		}
	}
}

// Compare returns the lattice order between s and other: Equal, Before
// (s strictly dominated), After (s strictly dominates), or Concurrent.
func (s *Summary) Compare(other *Summary) Ordering {
	var a, b []uint64
	if s != nil {
		a = s.seq
	}
	if other != nil {
		b = other.seq
	}
	// One pass over the longer vector; the shorter reads as implicit zeros.
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	sLess, oLess := false, false
	for i := 0; i < n; i++ {
		var av, bv uint64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		switch {
		case av < bv:
			sLess = true
		case av > bv:
			oLess = true
		}
		if sLess && oLess {
			return Concurrent
		}
	}
	switch {
	case sLess:
		return Before
	case oLess:
		return After
	}
	return Equal
}

// Dominates reports whether s covers every write that other covers.
func (s *Summary) Dominates(other *Summary) bool {
	ord := s.Compare(other)
	return ord == Equal || ord == After
}

// LagBehind returns the number of writes other covers that s does not:
// the sum over every origin of max(0, other[origin] - s[origin]). Zero
// means s dominates other. It allocates nothing — the consistency plane's
// freshness probes call it on every covered session read.
func (s *Summary) LagBehind(other *Summary) uint64 {
	if other == nil || len(other.seq) == 0 {
		return 0
	}
	var a []uint64
	if s != nil {
		a = s.seq
	}
	var lag uint64
	for i, ov := range other.seq {
		var av uint64
		if i < len(a) {
			av = a[i]
		}
		if ov > av {
			lag += ov - av
		}
	}
	return lag
}

// LagDelta returns, in one pass, the number of writes other covers that s
// does not (the LagBehind count) and whether s covers any write other does
// not — i.e. whether merging s into other would advance other. The
// consistency plane's covered-read probe uses it to skip the token merge in
// the steady state where the token already dominates the replica's
// watermark.
func (s *Summary) LagDelta(other *Summary) (lag uint64, gains bool) {
	var a, b []uint64
	if s != nil {
		a = s.seq
	}
	if other != nil {
		b = other.seq
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		var av, bv uint64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		if bv > av {
			lag += bv - av
		} else if av > bv {
			gains = true
		}
	}
	return lag, gains
}

// Clone returns an independent deep copy of s.
func (s *Summary) Clone() *Summary {
	c := NewSummary()
	if s == nil || len(s.seq) == 0 {
		return c
	}
	c.seq = make([]uint64, len(s.seq))
	copy(c.seq, s.seq)
	c.origins = s.origins
	return c
}

// Len returns the number of origins with at least one observed write.
func (s *Summary) Len() int {
	if s == nil {
		return 0
	}
	return s.origins
}

// Origins returns the origins with at least one observed write, ascending.
// The dense layout yields them in order with no sort.
func (s *Summary) Origins() []NodeID {
	if s == nil || s.origins == 0 {
		return nil
	}
	nodes := make([]NodeID, 0, s.origins)
	for node, seq := range s.seq {
		if seq > 0 {
			nodes = append(nodes, NodeID(node))
		}
	}
	return nodes
}

// ForEach calls fn for every origin with at least one observed write, in
// ascending origin order, without allocating. fn must not mutate s.
func (s *Summary) ForEach(fn func(node NodeID, seq uint64)) {
	if s == nil {
		return
	}
	for node, seq := range s.seq {
		if seq > 0 {
			fn(NodeID(node), seq)
		}
	}
}

// Total returns the total number of writes covered across all origins. It is
// the anti-entropy progress metric: Total is monotone non-decreasing and two
// replicas are mutually consistent exactly when their summaries are Equal.
func (s *Summary) Total() uint64 {
	if s == nil {
		return 0
	}
	var total uint64
	for _, seq := range s.seq {
		total += seq
	}
	return total
}

// String renders the vector as "{n0:3 n2:1}" with origins in ascending order.
func (s *Summary) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(node NodeID, seq uint64) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%v:%d", node, seq)
	})
	b.WriteByte('}')
	return b.String()
}
