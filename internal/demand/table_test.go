package demand

import (
	"sync"
	"testing"
)

func TestNewTable(t *testing.T) {
	tab := NewTable([]NodeID{1, 2, 3})
	if tab.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tab.Len())
	}
	e, ok := tab.Get(2)
	if !ok || !e.Reachable || e.Demand != 0 {
		t.Errorf("Get(2) = (%+v, %t)", e, ok)
	}
	if _, ok := tab.Get(9); ok {
		t.Error("Get of untracked neighbour should report false")
	}
}

func TestTableUpdateAndDemand(t *testing.T) {
	tab := NewTable([]NodeID{1})
	tab.Update(1, 42, 3.5)
	e, _ := tab.Get(1)
	if e.Demand != 42 || e.Updated != 3.5 || !e.Reachable {
		t.Errorf("entry after update = %+v", e)
	}
	if tab.Demand(1) != 42 {
		t.Errorf("Demand(1) = %g, want 42", tab.Demand(1))
	}
	if tab.Demand(99) != 0 {
		t.Errorf("Demand(unknown) = %g, want 0", tab.Demand(99))
	}
	// Unknown neighbours are added on update.
	tab.Update(7, 5, 4)
	if tab.Len() != 2 {
		t.Errorf("Len after new-neighbour update = %d, want 2", tab.Len())
	}
}

func TestTableByDemandOrder(t *testing.T) {
	// The paper's §4 example: neighbours D=13, A=2, C=0 must sort D, A, C.
	tab := NewTable([]NodeID{0, 2, 3}) // A=0, C=2, D=3
	tab.Update(3, 13, 1)
	tab.Update(0, 2, 1)
	tab.Update(2, 0, 1)
	ranked := tab.ByDemand()
	want := []NodeID{3, 0, 2}
	for i := range want {
		if ranked[i].Node != want[i] {
			t.Fatalf("ByDemand()[%d] = %v, want %v", i, ranked[i].Node, want[i])
		}
	}
}

func TestTableByDemandTieBreak(t *testing.T) {
	tab := NewTable([]NodeID{5, 2, 8})
	for _, n := range []NodeID{5, 2, 8} {
		tab.Update(n, 7, 0)
	}
	ranked := tab.ByDemand()
	if ranked[0].Node != 2 || ranked[1].Node != 5 || ranked[2].Node != 8 {
		t.Errorf("tie break order = %v %v %v, want n2 n5 n8",
			ranked[0].Node, ranked[1].Node, ranked[2].Node)
	}
}

func TestTableBest(t *testing.T) {
	tab := NewTable([]NodeID{1, 2})
	tab.Update(1, 3, 0)
	tab.Update(2, 9, 0)
	best, ok := tab.BestExcept(nil)
	if !ok || best.Node != 2 {
		t.Errorf("BestExcept(nil) = (%+v, %t), want n2", best, ok)
	}
	empty := NewTable(nil)
	if _, ok := empty.BestExcept(nil); ok {
		t.Error("BestExcept(nil) of empty table should report false")
	}
}

func TestTableBestExcluding(t *testing.T) {
	tab := NewTable([]NodeID{1, 2, 3})
	tab.Update(1, 3, 0)
	tab.Update(2, 9, 0)
	tab.Update(3, 6, 0)
	got, ok := tab.BestExcluding(map[NodeID]bool{2: true})
	if !ok || got.Node != 3 {
		t.Errorf("BestExcluding({2}) = (%v, %t), want n3", got.Node, ok)
	}
	_, ok = tab.BestExcluding(map[NodeID]bool{1: true, 2: true, 3: true})
	if ok {
		t.Error("BestExcluding of everything should report false")
	}
}

func TestTableBestExcept(t *testing.T) {
	tb := NewTable([]NodeID{1, 2, 3, 4})
	tb.Update(1, 5, 0)
	tb.Update(2, 9, 0)
	tb.Update(3, 9, 0) // ties break toward the lower id
	tb.Update(4, 7, 0)

	if e, ok := tb.BestExcept(nil); !ok || e.Node != 2 {
		t.Errorf("BestExcept(nil) = (%v, %t), want n2", e.Node, ok)
	}
	if e, ok := tb.BestExcept([]NodeID{2}); !ok || e.Node != 3 {
		t.Errorf("BestExcept([2]) = (%v, %t), want n3", e.Node, ok)
	}
	if e, ok := tb.BestExcept([]NodeID{2, 3}); !ok || e.Node != 4 {
		t.Errorf("BestExcept([2 3]) = (%v, %t), want n4", e.Node, ok)
	}
	if _, ok := tb.BestExcept([]NodeID{1, 2, 3, 4}); ok {
		t.Error("BestExcept with everything excluded should report false")
	}
	tb.MarkUnreachable(2, 1)
	if e, ok := tb.BestExcept(nil); !ok || e.Node != 3 {
		t.Errorf("BestExcept skipping unreachable = (%v, %t), want n3", e.Node, ok)
	}
}

// TestBestExceptMatchesBestExcluding pins the single-pass selection to the
// sort-based semantics it replaced on the fast-offer hot path.
func TestBestExceptMatchesBestExcluding(t *testing.T) {
	tb := NewTable([]NodeID{0, 1, 2, 3, 4, 5})
	demands := []float64{3, 8, 8, 1, 8, 0}
	for n, d := range demands {
		tb.Update(NodeID(n), d, 0)
	}
	tb.MarkUnreachable(4, 1)
	for _, excl := range [][]NodeID{nil, {1}, {1, 2}, {1, 2, 0}, {0, 1, 2, 3, 5}} {
		skip := make(map[NodeID]bool, len(excl))
		for _, n := range excl {
			skip[n] = true
		}
		wantE, wantOK := tb.BestExcluding(skip)
		gotE, gotOK := tb.BestExcept(excl)
		if wantOK != gotOK || (wantOK && wantE.Node != gotE.Node) {
			t.Errorf("excluding %v: BestExcept = (%v, %t), BestExcluding = (%v, %t)",
				excl, gotE.Node, gotOK, wantE.Node, wantOK)
		}
	}
}

func TestBestExceptAllocs(t *testing.T) {
	tb := NewTable([]NodeID{0, 1, 2, 3})
	for n := 0; n < 4; n++ {
		tb.Update(NodeID(n), float64(n), 0)
	}
	excl := []NodeID{1, 2}
	if avg := testing.AllocsPerRun(100, func() { tb.BestExcept(excl) }); avg != 0 {
		t.Errorf("BestExcept allocates %v per run, want 0", avg)
	}
}

func TestTableUnreachable(t *testing.T) {
	tab := NewTable([]NodeID{1, 2})
	tab.Update(1, 10, 0)
	tab.Update(2, 20, 0)
	tab.MarkUnreachable(2, 1)
	// Unreachable neighbours are skipped by selection.
	best, ok := tab.BestExcept(nil)
	if !ok || best.Node != 1 {
		t.Errorf("BestExcept(nil) after MarkUnreachable = (%v, %t), want n1", best.Node, ok)
	}
	if len(tab.ByDemand()) != 1 {
		t.Error("ByDemand should exclude unreachable neighbours")
	}
	// A later successful advertisement restores reachability.
	tab.Update(2, 20, 2)
	if best, _ := tab.BestExcept(nil); best.Node != 2 {
		t.Error("Update should restore reachability")
	}
	// Marking an untracked node adds an unreachable entry.
	tab.MarkUnreachable(9, 3)
	if e, ok := tab.Get(9); !ok || e.Reachable {
		t.Errorf("MarkUnreachable on unknown = (%+v, %t)", e, ok)
	}
}

func TestTableStalestUpdate(t *testing.T) {
	tab := NewTable([]NodeID{1, 2})
	tab.Update(1, 5, 10)
	tab.Update(2, 5, 4)
	if got := tab.StalestUpdate(); got != 4 {
		t.Errorf("StalestUpdate = %g, want 4", got)
	}
	if got := NewTable(nil).StalestUpdate(); got != 0 {
		t.Errorf("StalestUpdate of empty = %g, want 0", got)
	}
}

func TestTableRefreshAll(t *testing.T) {
	tab := NewTable([]NodeID{0, 1, 2})
	tab.MarkUnreachable(1, 0)
	field := Static{10, 20, 30}
	tab.RefreshAll(field, 7)
	for n := NodeID(0); n < 3; n++ {
		e, _ := tab.Get(n)
		if e.Demand != field.At(n, 7) || e.Updated != 7 || !e.Reachable {
			t.Errorf("entry %v after RefreshAll = %+v", n, e)
		}
	}
}

func TestTableString(t *testing.T) {
	tab := NewTable([]NodeID{0, 3})
	tab.Update(3, 13, 1)
	tab.Update(0, 2, 1)
	if got := tab.String(); got != "[n3:13.0 n0:2.0]" {
		t.Errorf("String() = %q", got)
	}
}

func TestTableConcurrentAccess(t *testing.T) {
	tab := NewTable([]NodeID{0, 1, 2, 3})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				tab.Update(NodeID(j%4), float64(j), float64(j))
				tab.ByDemand()
				tab.BestExcept(nil)
				tab.Demand(NodeID(j % 4))
			}
		}(i)
	}
	wg.Wait() // run with -race to verify safety
	if tab.Len() != 4 {
		t.Errorf("Len = %d, want 4", tab.Len())
	}
}
