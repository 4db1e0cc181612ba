package wlog

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

func TestAppendAssignsSequence(t *testing.T) {
	l := New()
	e1 := l.Append(3, "a", []byte("x"), 1)
	e2 := l.Append(3, "b", []byte("y"), 2)
	if e1.TS != (vclock.Timestamp{Node: 3, Seq: 1}) {
		t.Errorf("first entry TS = %v, want n3:1", e1.TS)
	}
	if e2.TS != (vclock.Timestamp{Node: 3, Seq: 2}) {
		t.Errorf("second entry TS = %v, want n3:2", e2.TS)
	}
	if l.Len() != 2 {
		t.Errorf("Len() = %d, want 2", l.Len())
	}
}

func TestAppendCopiesValue(t *testing.T) {
	l := New()
	val := []byte("mutable")
	e := l.Append(1, "k", val, 1)
	val[0] = 'X'
	got, ok := l.Get(e.TS)
	if !ok {
		t.Fatal("entry not retained")
	}
	if string(got.Value) != "mutable" {
		t.Errorf("log aliased caller's value slice: %q", got.Value)
	}
	// Get shares the log's backing array (immutability contract); a caller
	// needing a private mutable copy clones explicitly.
	c := got.Clone()
	c.Value[0] = 'Z'
	again, _ := l.Get(e.TS)
	if string(again.Value) != "mutable" {
		t.Errorf("Clone aliased the log's value: %q", again.Value)
	}
}

func TestAddDuplicateAndGap(t *testing.T) {
	l := New()
	e := Entry{TS: vclock.Timestamp{Node: 1, Seq: 1}, Key: "k", Value: []byte("v")}
	added, err := l.Add(e)
	if err != nil || !added {
		t.Fatalf("Add = (%t, %v), want (true, nil)", added, err)
	}
	added, err = l.Add(e)
	if err != nil || added {
		t.Errorf("duplicate Add = (%t, %v), want (false, nil)", added, err)
	}
	_, err = l.Add(Entry{TS: vclock.Timestamp{Node: 1, Seq: 3}})
	if !errors.Is(err, ErrGap) {
		t.Errorf("gap Add error = %v, want ErrGap", err)
	}
}

func TestGet(t *testing.T) {
	l := New()
	e := l.Append(2, "k", []byte("v"), 7)
	got, ok := l.Get(e.TS)
	if !ok || got.Key != "k" || string(got.Value) != "v" || got.Clock != 7 {
		t.Errorf("Get(%v) = (%v, %t)", e.TS, got, ok)
	}
	if _, ok := l.Get(vclock.Timestamp{Node: 2, Seq: 9}); ok {
		t.Error("Get of unknown timestamp should report false")
	}
	if _, ok := l.Get(vclock.Timestamp{Node: 5, Seq: 1}); ok {
		t.Error("Get of unknown origin should report false")
	}
}

func TestMissingGiven(t *testing.T) {
	l := New()
	l.Append(1, "a", nil, 1)
	l.Append(1, "b", nil, 2)
	l.Append(2, "c", nil, 3)

	partner := vclock.NewSummary()
	partner.Observe(vclock.Timestamp{Node: 1, Seq: 1})

	missing, err := l.MissingGiven(partner)
	if err != nil {
		t.Fatalf("MissingGiven: %v", err)
	}
	if len(missing) != 2 {
		t.Fatalf("len(missing) = %d, want 2", len(missing))
	}
	if missing[0].TS != (vclock.Timestamp{Node: 1, Seq: 2}) {
		t.Errorf("missing[0].TS = %v, want n1:2", missing[0].TS)
	}
	if missing[1].TS != (vclock.Timestamp{Node: 2, Seq: 1}) {
		t.Errorf("missing[1].TS = %v, want n2:1", missing[1].TS)
	}
	// The partner's lag behind the log counts what MissingGiven returns.
	if got := partner.LagBehind(l.Summary()); got != 2 {
		t.Errorf("partner.LagBehind(log) = %d, want 2", got)
	}
	if got, err := l.MissingGiven(l.Summary()); err != nil || len(got) != 0 {
		t.Errorf("MissingGiven(self) = (%d entries, %v), want none", len(got), err)
	}
}

func TestMissingGivenDeliverableInOrder(t *testing.T) {
	// A partner applying MissingGiven output through Add must never hit
	// ErrGap: this is the protocol's core delivery invariant.
	src := New()
	dst := New()
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		src.Append(vclock.NodeID(r.Intn(5)), "k", []byte{byte(i)}, uint64(i))
	}
	missing, err := src.MissingGiven(dst.Summary())
	if err != nil {
		t.Fatalf("MissingGiven: %v", err)
	}
	for _, e := range missing {
		if _, err := dst.Add(e); err != nil {
			t.Fatalf("Add(%v): %v", e.TS, err)
		}
	}
	if dst.Summary().Compare(src.Summary()) != vclock.Equal {
		t.Error("destination summary does not equal source after full transfer")
	}
}

func TestTruncateCovered(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		l.Append(1, "k", []byte("0123456789"), uint64(i))
	}
	stable := vclock.NewSummary()
	stable.Observe(vclock.Timestamp{Node: 1, Seq: 1})
	stable.Observe(vclock.Timestamp{Node: 1, Seq: 2})

	if got := l.TruncateCovered(stable); got != 2 {
		t.Fatalf("TruncateCovered = %d, want 2", got)
	}
	if got := l.Len(); got != 3 {
		t.Errorf("Len after truncation = %d, want 3", got)
	}
	if got := l.TruncatedThrough(1); got != 2 {
		t.Errorf("TruncatedThrough = %d, want 2", got)
	}
	// Truncated entries are gone.
	if _, ok := l.Get(vclock.Timestamp{Node: 1, Seq: 2}); ok {
		t.Error("truncated entry still retrievable")
	}
	// Retained entries remain correct.
	e, ok := l.Get(vclock.Timestamp{Node: 1, Seq: 3})
	if !ok || e.Clock != 2 {
		t.Errorf("Get(n1:3) = (%v, %t), want clock 2", e, ok)
	}
	// Summary still covers truncated history.
	if !l.Covers(vclock.Timestamp{Node: 1, Seq: 1}) {
		t.Error("summary should still cover truncated writes")
	}
	// Idempotent: truncating again with the same summary drops nothing.
	if got := l.TruncateCovered(stable); got != 0 {
		t.Errorf("second TruncateCovered = %d, want 0", got)
	}
}

func TestMissingGivenAfterTruncation(t *testing.T) {
	l := New()
	for i := 0; i < 4; i++ {
		l.Append(1, "k", nil, uint64(i))
	}
	stable := vclock.NewSummary()
	stable.Observe(vclock.Timestamp{Node: 1, Seq: 1})
	stable.Observe(vclock.Timestamp{Node: 1, Seq: 2})
	l.TruncateCovered(stable)

	// A partner behind the truncation floor cannot be served.
	behind := vclock.NewSummary()
	behind.Observe(vclock.Timestamp{Node: 1, Seq: 1})
	if _, err := l.MissingGiven(behind); !errors.Is(err, ErrTruncated) {
		t.Errorf("MissingGiven(behind floor) error = %v, want ErrTruncated", err)
	}
	// A partner at or past the floor is fine.
	if missing, err := l.MissingGiven(stable); err != nil || len(missing) != 2 {
		t.Errorf("MissingGiven(at floor) = (%d entries, %v), want (2, nil)", len(missing), err)
	}
}

func TestTruncateBeyondSummaryClamped(t *testing.T) {
	l := New()
	l.Append(1, "k", nil, 1)
	over := vclock.NewSummary()
	for seq := uint64(1); seq <= 10; seq++ {
		over.Observe(vclock.Timestamp{Node: 1, Seq: seq})
	}
	if got := l.TruncateCovered(over); got != 1 {
		t.Errorf("TruncateCovered clamped = %d, want 1", got)
	}
	if l.Len() != 0 {
		t.Errorf("Len = %d, want 0", l.Len())
	}
}

func TestBytesAccounting(t *testing.T) {
	l := New()
	l.Append(1, "key1", []byte("valu"), 1) // 8 bytes
	l.Append(1, "key2", []byte("valu"), 2) // 8 bytes
	if got := l.Bytes(); got != 16 {
		t.Errorf("Bytes = %d, want 16", got)
	}
	stable := l.Summary()
	l.TruncateCovered(stable)
	if got := l.Bytes(); got != 0 {
		t.Errorf("Bytes after full truncation = %d, want 0", got)
	}
}

func TestAll(t *testing.T) {
	l := New()
	l.Append(2, "b", nil, 1)
	l.Append(1, "a", nil, 2)
	all := l.All()
	if len(all) != 2 {
		t.Fatalf("All() returned %d entries, want 2", len(all))
	}
	if all[0].TS.Node != 1 || all[1].TS.Node != 2 {
		t.Errorf("All() not ordered by origin: %v", all)
	}
}

func TestEntryClone(t *testing.T) {
	e := Entry{TS: vclock.Timestamp{Node: 1, Seq: 1}, Key: "k", Value: []byte("v")}
	c := e.Clone()
	c.Value[0] = 'X'
	if string(e.Value) != "v" {
		t.Error("Clone aliased Value")
	}
	var empty Entry
	if c := empty.Clone(); c.Value != nil {
		t.Error("Clone of nil Value should stay nil")
	}
}

// Property: anti-entropy via MissingGiven+Add converges any two logs to
// equal summaries, regardless of interleaving (paper §1: each session makes
// both partners mutually consistent).
func TestAntiEntropyConvergesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := New(), New()
		// Partition origins so both logs have private writes.
		for i := 0; i < 30; i++ {
			if r.Intn(2) == 0 {
				a.Append(vclock.NodeID(r.Intn(3)), "k", []byte{1}, uint64(i))
			} else {
				b.Append(vclock.NodeID(3+r.Intn(3)), "k", []byte{2}, uint64(i))
			}
		}
		// Bidirectional exchange, as in paper §2.1 steps 4–12.
		fromA, err := a.MissingGiven(b.Summary())
		if err != nil {
			return false
		}
		fromB, err := b.MissingGiven(a.Summary())
		if err != nil {
			return false
		}
		for _, e := range fromA {
			if _, err := b.Add(e); err != nil {
				return false
			}
		}
		for _, e := range fromB {
			if _, err := a.Add(e); err != nil {
				return false
			}
		}
		return a.Summary().Compare(b.Summary()) == vclock.Equal &&
			a.Len() == b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("anti-entropy convergence property: %v", err)
	}
}

func TestAddBatch(t *testing.T) {
	src := New()
	for i := 0; i < 6; i++ {
		src.Append(vclock.NodeID(i%2), "k", []byte{byte(i)}, uint64(i))
	}
	dst := New()
	batch, err := src.MissingGiven(dst.Summary())
	if err != nil {
		t.Fatal(err)
	}
	added, gaps := dst.AddBatch(batch)
	if gaps != 0 || len(added) != 6 {
		t.Fatalf("AddBatch = (%d added, %d gaps), want (6, 0)", len(added), gaps)
	}
	if dst.Summary().Compare(src.Summary()) != vclock.Equal {
		t.Error("summaries differ after AddBatch of full missing set")
	}
	// Re-adding the same batch: all duplicates, no gaps, nothing gained.
	added, gaps = dst.AddBatch(batch)
	if gaps != 0 || len(added) != 0 {
		t.Errorf("duplicate AddBatch = (%d added, %d gaps), want (0, 0)", len(added), gaps)
	}
	// A gapped entry is skipped and counted without poisoning the rest.
	gapBatch := []Entry{
		{TS: vclock.Timestamp{Node: 5, Seq: 2}, Key: "gap"},
		{TS: vclock.Timestamp{Node: 6, Seq: 1}, Key: "fine"},
	}
	added, gaps = dst.AddBatch(gapBatch)
	if gaps != 1 || len(added) != 1 || added[0].TS.Node != 6 {
		t.Errorf("gapped AddBatch = (%v, %d gaps), want 1 added from n6, 1 gap", added, gaps)
	}
	if added, gaps = dst.AddBatch(nil); added != nil || gaps != 0 {
		t.Errorf("empty AddBatch = (%v, %d)", added, gaps)
	}
}

func TestAllOnTruncatedLog(t *testing.T) {
	// All must return the retained suffix of a truncated log rather than
	// failing (or silently falling back) the way MissingGiven(empty) would.
	l := New()
	for i := 0; i < 5; i++ {
		l.Append(1, "k", []byte{byte(i)}, uint64(i))
	}
	stable := vclock.NewSummary()
	stable.Observe(vclock.Timestamp{Node: 1, Seq: 1})
	stable.Observe(vclock.Timestamp{Node: 1, Seq: 2})
	l.TruncateCovered(stable)

	all := l.All()
	if len(all) != 3 {
		t.Fatalf("All on truncated log returned %d entries, want 3", len(all))
	}
	if all[0].TS.Seq != 3 || all[2].TS.Seq != 5 {
		t.Errorf("All returned wrong range: %v", all)
	}
	if got := New().All(); got != nil {
		t.Errorf("All on empty log = %v, want nil", got)
	}
}

func TestReadPathsShareBackingArrays(t *testing.T) {
	// Get, MissingGiven and All return views of the log's entries, not
	// clones — the zero-copy half of the immutability contract.
	l := New()
	e := l.Append(1, "k", []byte("payload"), 1)
	got, ok := l.Get(e.TS)
	if !ok || &got.Value[0] != &e.Value[0] {
		t.Error("Get returned a copy; expected a view of the log's entry")
	}
	missing, err := l.MissingGiven(vclock.NewSummary())
	if err != nil || len(missing) != 1 || &missing[0].Value[0] != &e.Value[0] {
		t.Error("MissingGiven returned copies; expected views")
	}
	all := l.All()
	if len(all) != 1 || &all[0].Value[0] != &e.Value[0] {
		t.Error("All returned copies; expected views")
	}
}

func TestSortedAndSortByTS(t *testing.T) {
	in := []Entry{
		{TS: vclock.Timestamp{Node: 2, Seq: 1}},
		{TS: vclock.Timestamp{Node: 1, Seq: 2}},
		{TS: vclock.Timestamp{Node: 1, Seq: 1}},
	}
	if Sorted(in) {
		t.Error("Sorted reported true for unsorted entries")
	}
	SortByTS(in)
	if !Sorted(in) {
		t.Error("Sorted reported false after SortByTS")
	}
	want := []vclock.Timestamp{{Node: 1, Seq: 1}, {Node: 1, Seq: 2}, {Node: 2, Seq: 1}}
	for i, e := range in {
		if e.TS != want[i] {
			t.Fatalf("sorted order = %v", in)
		}
	}
	if !Sorted(nil) || !Sorted(in[:1]) {
		t.Error("empty and single-entry slices are trivially sorted")
	}
}

// TestLogHotPathAllocs is the allocation-regression guard for the log's
// per-message operations.
func TestLogHotPathAllocs(t *testing.T) {
	l := New()
	for i := 0; i < 100; i++ {
		l.Append(vclock.NodeID(i%8), "k", []byte("v"), uint64(i))
	}
	ts := vclock.Timestamp{Node: 3, Seq: 2}
	if avg := testing.AllocsPerRun(100, func() { _ = l.Covers(ts) }); avg != 0 {
		t.Errorf("Covers allocates %v per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { _, _ = l.Get(ts) }); avg != 0 {
		t.Errorf("Get allocates %v per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = l.SummaryTotal() }); avg != 0 {
		t.Errorf("SummaryTotal allocates %v per run, want 0", avg)
	}
	partner := l.Summary()
	if avg := testing.AllocsPerRun(100, func() { _ = l.LagBehind(partner) }); avg != 0 {
		t.Errorf("LagBehind allocates %v per run, want 0", avg)
	}
	// A fully caught-up partner costs nothing to serve.
	if avg := testing.AllocsPerRun(100, func() { _, _ = l.MissingGiven(partner) }); avg != 0 {
		t.Errorf("MissingGiven(caught-up) allocates %v per run, want 0", avg)
	}
}

func BenchmarkAppend(b *testing.B) {
	l := New()
	val := []byte("some-payload-bytes")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Append(1, "key", val, uint64(i))
	}
}

func BenchmarkMissingGiven(b *testing.B) {
	l := New()
	for i := 0; i < 1000; i++ {
		l.Append(vclock.NodeID(i%10), "key", []byte("v"), uint64(i))
	}
	partner := vclock.NewSummary()
	for n := vclock.NodeID(0); n < 10; n++ {
		for seq := uint64(1); seq <= 50; seq++ {
			partner.Observe(vclock.Timestamp{Node: n, Seq: seq})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.MissingGiven(partner); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAdoptAdvancesSummaryAndFloor(t *testing.T) {
	l := New()
	l.Append(1, "k", nil, 1)
	l.Append(1, "k", nil, 2)

	snap := vclock.NewSummary()
	for seq := uint64(1); seq <= 10; seq++ {
		snap.Observe(vclock.Timestamp{Node: 1, Seq: seq})
	}
	snap.Observe(vclock.Timestamp{Node: 2, Seq: 1})

	discarded := l.Adopt(snap)
	if discarded != 2 {
		t.Errorf("Adopt discarded %d entries, want 2", discarded)
	}
	if got := l.Summary().Get(1); got != 10 {
		t.Errorf("summary for origin 1 = %d, want 10", got)
	}
	if got := l.Summary().Get(2); got != 1 {
		t.Errorf("summary for origin 2 = %d, want 1", got)
	}
	if got := l.TruncatedThrough(1); got != 10 {
		t.Errorf("truncation floor = %d, want 10", got)
	}
	if l.Len() != 0 {
		t.Errorf("Len = %d, want 0 after adopting ahead-of-us snapshot", l.Len())
	}
	if l.Bytes() != 0 {
		t.Errorf("Bytes = %d, want 0", l.Bytes())
	}
	// New local writes continue from the adopted head.
	e := l.Append(1, "k", nil, 3)
	if e.TS.Seq != 11 {
		t.Errorf("next local seq = %d, want 11", e.TS.Seq)
	}
}

func TestAdoptIgnoresDominatedOrigins(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		l.Append(1, "k", nil, uint64(i))
	}
	snap := vclock.NewSummary()
	snap.Observe(vclock.Timestamp{Node: 1, Seq: 1}) // behind our head
	if got := l.Adopt(snap); got != 0 {
		t.Errorf("Adopt discarded %d, want 0 for dominated snapshot", got)
	}
	if l.Len() != 5 {
		t.Errorf("Len = %d, want 5", l.Len())
	}
	if got := l.Summary().Get(1); got != 5 {
		t.Errorf("summary regressed to %d", got)
	}
}

func TestAdoptThenServeNewerPartners(t *testing.T) {
	// After adopting, we can still serve partners at or past the adopted
	// floor, and ErrTruncated fires for partners below it.
	l := New()
	snap := vclock.NewSummary()
	snap.Observe(vclock.Timestamp{Node: 1, Seq: 1})
	snap.Observe(vclock.Timestamp{Node: 1, Seq: 2})
	l.Adopt(snap)
	l.Append(2, "k", nil, 1) // local write after adoption

	atFloor := snap.Clone()
	missing, err := l.MissingGiven(atFloor)
	if err != nil || len(missing) != 1 {
		t.Errorf("MissingGiven(at floor) = (%d, %v), want 1 entry", len(missing), err)
	}
	behind := vclock.NewSummary()
	if _, err := l.MissingGiven(behind); !errors.Is(err, ErrTruncated) {
		t.Errorf("MissingGiven(behind floor) err = %v, want ErrTruncated", err)
	}
}

func TestTruncateKeepLast(t *testing.T) {
	l := New()
	for i := 0; i < 10; i++ {
		l.Append(1, "k", []byte("x"), uint64(i))
	}
	if got := l.TruncateKeepLast(3); got != 7 {
		t.Errorf("TruncateKeepLast(3) discarded %d, want 7", got)
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3", l.Len())
	}
	if got := l.TruncatedThrough(1); got != 7 {
		t.Errorf("floor = %d, want 7", got)
	}
	// Keeping more than retained is a no-op.
	if got := l.TruncateKeepLast(100); got != 0 {
		t.Errorf("larger keep discarded %d, want 0", got)
	}
	// Negative keep clamps to zero: everything goes.
	if got := l.TruncateKeepLast(-1); got != 3 {
		t.Errorf("keep(-1) discarded %d, want 3", got)
	}
	if l.Len() != 0 {
		t.Errorf("Len after keep 0 = %d", l.Len())
	}
	// Summary is untouched by truncation.
	if got := l.Summary().Get(1); got != 10 {
		t.Errorf("summary = %d, want 10", got)
	}
}

func TestLimitTruncationGuardsSnapshotFloor(t *testing.T) {
	l := New()
	for i := 1; i <= 10; i++ {
		l.Append(1, "k", []byte("x"), uint64(i))
	}
	// Persisted snapshot covers n1 through 4: compaction may never drop
	// entries 5..10, whatever watermark a caller asks for.
	persisted := vclock.NewSummary()
	persisted.Advance(1, 4)
	l.LimitTruncation(persisted)

	// TruncateKeepLast(0) would normally drop everything; the floor caps it.
	if got := l.TruncateKeepLast(0); got != 4 {
		t.Errorf("TruncateKeepLast(0) discarded %d, want 4 (floor-capped)", got)
	}
	if got := l.TruncatedThrough(1); got != 4 {
		t.Errorf("truncation watermark %d crossed the persisted floor 4", got)
	}
	// TruncateCovered with a watermark past the floor is capped too.
	beyond := vclock.NewSummary()
	beyond.Advance(1, 9)
	if got := l.TruncateCovered(beyond); got != 0 {
		t.Errorf("TruncateCovered past the floor discarded %d, want 0", got)
	}
	for seq := uint64(5); seq <= 10; seq++ {
		if _, ok := l.Get(vclock.Timestamp{Node: 1, Seq: seq}); !ok {
			t.Fatalf("entry n1:%d newer than the persisted snapshot was dropped", seq)
		}
	}

	// Raising the floor (a newer persisted snapshot) unlocks more.
	persisted.Advance(1, 8)
	l.LimitTruncation(persisted)
	if got := l.TruncateCovered(beyond); got != 4 {
		t.Errorf("after floor raise TruncateCovered discarded %d, want 4", got)
	}
	// Clearing the floor removes the guard entirely.
	l.LimitTruncation(nil)
	if got := l.TruncateKeepLast(0); got != 2 {
		t.Errorf("after clearing floor discarded %d, want 2", got)
	}
}

func TestLimitTruncationUnknownOriginFrozen(t *testing.T) {
	l := New()
	for i := 1; i <= 3; i++ {
		l.Append(2, "k", []byte("x"), uint64(i))
	}
	// A floor that has never seen origin 2 pins it at zero: nothing from
	// that origin is in any persisted snapshot yet.
	l.LimitTruncation(vclock.NewSummary())
	if got := l.TruncateKeepLast(0); got != 0 {
		t.Errorf("unknown-origin truncation discarded %d, want 0", got)
	}
}
