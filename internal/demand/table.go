package demand

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// TableEntry is one row of a replica's neighbour demand table (paper §4:
// "Each replica maintains a table with its neighbours' data ... an
// identifying name and its demand").
type TableEntry struct {
	Node    NodeID
	Demand  float64
	Updated float64 // simulated time of the last advertisement
	// Reachable records whether the last refresh succeeded; the paper notes
	// the refresh "as an added advantage, tells us if this replica is
	// available (link and server both working)".
	Reachable bool
}

// Table is a replica's view of its neighbours' demands, refreshed by
// demand advertisements. Table is safe for concurrent use.
type Table struct {
	mu      sync.RWMutex
	entries map[NodeID]TableEntry
}

// NewTable returns a table pre-populated with the given neighbours at zero
// demand, all initially reachable.
func NewTable(neighbors []NodeID) *Table {
	t := &Table{entries: make(map[NodeID]TableEntry, len(neighbors))}
	for _, n := range neighbors {
		t.entries[n] = TableEntry{Node: n, Reachable: true}
	}
	return t
}

// Update records an advertisement: neighbour node reported demand d at time
// now. Unknown neighbours are added (supports membership growth).
func (t *Table) Update(node NodeID, d, now float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries[node] = TableEntry{Node: node, Demand: d, Updated: now, Reachable: true}
}

// MarkUnreachable flags a neighbour whose refresh failed.
func (t *Table) MarkUnreachable(node NodeID, now float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[node]
	if !ok {
		e = TableEntry{Node: node}
	}
	e.Reachable = false
	e.Updated = now
	t.entries[node] = e
}

// Get returns the entry for node.
func (t *Table) Get(node NodeID) (TableEntry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.entries[node]
	return e, ok
}

// Demand returns the recorded demand of node (0 if unknown).
func (t *Table) Demand(node NodeID) float64 {
	e, _ := t.Get(node)
	return e.Demand
}

// Len returns the number of neighbours tracked.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// ByDemand returns reachable neighbours in decreasing order of recorded
// demand, ties broken by lower node id — the selection order of the paper's
// §2.1 part one and the §4 table ("neighbours' vector arranged in
// decreasing order of demand").
func (t *Table) ByDemand() []TableEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]TableEntry, 0, len(t.entries))
	for _, e := range t.entries {
		if e.Reachable {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Demand != out[j].Demand {
			return out[i].Demand > out[j].Demand
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// bestWhere returns the highest-demand reachable neighbour for which skip
// reports false, ties broken by lower node id — the selection order of
// ByDemand without sorting or materialising the ranked slice.
func (t *Table) bestWhere(skip func(NodeID) bool) (TableEntry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var best TableEntry
	found := false
	for _, e := range t.entries {
		if !e.Reachable || skip(e.Node) {
			continue
		}
		if !found || e.Demand > best.Demand ||
			(e.Demand == best.Demand && e.Node < best.Node) {
			best = e
			found = true
		}
	}
	return best, found
}

// BestExcluding returns the highest-demand reachable neighbour not in skip.
func (t *Table) BestExcluding(skip map[NodeID]bool) (TableEntry, bool) {
	return t.bestWhere(func(n NodeID) bool { return skip[n] })
}

// BestExcept returns the highest-demand reachable neighbour whose id is not
// in excluded. It allocates nothing — the fast-offer hot path calls it once
// per message with a reusable exclusion buffer.
func (t *Table) BestExcept(excluded []NodeID) (TableEntry, bool) {
	return t.bestWhere(func(n NodeID) bool {
		for _, x := range excluded {
			if n == x {
				return true
			}
		}
		return false
	})
}

// StalestUpdate returns the oldest Updated time across entries, i.e. how out
// of date the table may be. An empty table returns 0.
func (t *Table) StalestUpdate() float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	first := true
	var oldest float64
	for _, e := range t.entries {
		if first || e.Updated < oldest {
			oldest = e.Updated
			first = false
		}
	}
	return oldest
}

// RefreshAll updates every tracked neighbour from the ground-truth field at
// time now. It models a complete round of demand advertisements.
func (t *Table) RefreshAll(f Field, now float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for node, e := range t.entries {
		e.Demand = f.At(node, now)
		e.Updated = now
		e.Reachable = true
		t.entries[node] = e
	}
}

// String renders the table rows in demand order, e.g. "[n3:13.0 n0:2.0]".
func (t *Table) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, e := range t.ByDemand() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v:%.1f", e.Node, e.Demand)
	}
	b.WriteByte(']')
	return b.String()
}
