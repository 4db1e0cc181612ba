package runtime

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/demand"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/vclock"
	"repro/internal/wlog"
)

func waitClusterConverged(t *testing.T, c *Cluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if !c.WaitConverged(ctx) {
		t.Fatal("cluster did not converge")
	}
}

// TestLevelString pins the names flags, metrics labels and not-fresh
// rejection reasons spell the levels with.
func TestLevelString(t *testing.T) {
	want := [NumLevels]string{"eventual", "session", "bounded", "strong"}
	for lvl, name := range want {
		if got := Level(lvl).String(); got != name {
			t.Errorf("Level(%d).String() = %q, want %q", lvl, got, name)
		}
	}
}

func TestSessionReadYourWrites(t *testing.T) {
	g := topology.Ring(6)
	field := demand.Uniform(6, 1, 10, randSource(1))
	c := startCluster(t, g, field, WithSeed(2), WithSessionInterval(10*time.Millisecond))

	s := c.NewSession()
	if _, err := s.Write(0, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// The write is acked at replica 0 only; a session read at the far side
	// of the ring must wait for coverage, never serve a miss.
	v, ok, err := s.Read(3, "k")
	if err != nil {
		t.Fatalf("session read: %v", err)
	}
	if !ok || !bytes.Equal(v.Value, []byte("v1")) {
		t.Fatalf("session read = (%q, %t), want own write visible", v.Value, ok)
	}
}

func TestSessionReadsMonotonic(t *testing.T) {
	g := topology.Ring(6)
	field := demand.Uniform(6, 1, 10, randSource(3))
	c := startCluster(t, g, field, WithSeed(4), WithSessionInterval(10*time.Millisecond))

	s := c.NewSession()
	for i := 0; i < 5; i++ {
		if _, err := s.Write(0, "k", []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitClusterConverged(t, c)
	// Reading at a fresh replica folds its full coverage into the token...
	if _, _, err := s.Read(2, "k"); err != nil {
		t.Fatal(err)
	}
	// ...so a later session read anywhere can never observe an older state;
	// here every replica is converged, so each must serve the final value.
	for id := NodeID(0); id < 6; id++ {
		v, ok, err := s.Read(id, "k")
		if err != nil || !ok || v.Value[0] != 'e' {
			t.Fatalf("monotonic read at %v = (%q, %t, %v)", id, v.Value, ok, err)
		}
	}
}

func TestBoundedStalenessGate(t *testing.T) {
	g := topology.Ring(4)
	field := demand.Uniform(4, 1, 10, randSource(5))
	c := startCluster(t, g, field, WithSeed(6), WithSessionInterval(20*time.Millisecond))

	var tok Token
	rec, err := c.WriteToken(0, "k", []byte("v"), &tok)
	if err != nil {
		t.Fatal(err)
	}
	waitClusterConverged(t, c)
	// Push the token 3 writes past every replica's head: a fabricated
	// future the cluster will never cover.
	tok.ObserveWrite(vclock.Timestamp{Node: rec.TS.Node, Seq: rec.TS.Seq + 3})

	// A bound that admits the fabricated lag serves immediately.
	opt := &LeveledRead{Level: LevelBounded, Token: &tok, MaxLag: 3, Deadline: 5 * time.Second}
	if _, ok, err := c.ReadLeveled(1, "k", opt); err != nil || !ok {
		t.Fatalf("bounded read within MaxLag = (%t, %v), want served", ok, err)
	}
	// A tighter bound must shed with ErrNotFresh once the deadline lapses.
	opt = &LeveledRead{Level: LevelBounded, Token: &tok, MaxLag: 1, Deadline: 50 * time.Millisecond}
	start := time.Now()
	_, _, err = c.ReadLeveled(1, "k", opt)
	if !errors.Is(err, ErrNotFresh) {
		t.Fatalf("bounded read past MaxLag: err = %v, want ErrNotFresh", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline-bounded read took %v", elapsed)
	}
}

func TestTokenAheadOfEveryReplicaDeadlines(t *testing.T) {
	g := topology.Ring(4)
	field := demand.Uniform(4, 1, 10, randSource(7))
	c := startCluster(t, g, field, WithSeed(8))

	// A token claiming coverage no live replica can ever reach — e.g.
	// deserialized from a client that outlived a cluster wipe. The read
	// must shed at the deadline, never hang.
	var tok Token
	tok.ObserveWrite(vclock.Timestamp{Node: 0, Seq: 1 << 30})
	opt := &LeveledRead{Level: LevelSession, Token: &tok, Deadline: 80 * time.Millisecond}
	start := time.Now()
	_, _, err := c.ReadLeveled(2, "k", opt)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrNotFresh) {
		t.Fatalf("ahead-of-all session read: err = %v, want ErrNotFresh", err)
	}
	if elapsed < 50*time.Millisecond || elapsed > 3*time.Second {
		t.Fatalf("deadline wait took %v, want ~80ms", elapsed)
	}
}

func TestStrongReadConverged(t *testing.T) {
	g := topology.Ring(6)
	field := demand.Uniform(6, 1, 10, randSource(9))
	c := startCluster(t, g, field, WithSeed(10), WithSessionInterval(10*time.Millisecond))

	if _, err := c.Write(0, "k", []byte("strong")); err != nil {
		t.Fatal(err)
	}
	// No token, no prior session state: the strong read pins the freshest
	// acked version cluster-wide and waits for the serving replica to
	// cover it.
	opt := &LeveledRead{Level: LevelStrong, Deadline: 10 * time.Second}
	v, ok, err := c.ReadLeveled(3, "k", opt)
	if err != nil || !ok || !bytes.Equal(v.Value, []byte("strong")) {
		t.Fatalf("strong read = (%q, %t, %v)", v.Value, ok, err)
	}
	// A strong read of an absent key is an immediate miss, not a wait.
	start := time.Now()
	if _, ok, err := c.ReadLeveled(3, "missing", opt); ok || err != nil {
		t.Fatalf("strong read of absent key = (%t, %v)", ok, err)
	}
	if time.Since(start) > time.Second {
		t.Error("strong miss waited instead of returning")
	}
}

// TestStrongReadHonorsSessionFloor pins strong-subsumes-session: when the
// only replica holding a session-observed version dies, a token-carrying
// strong read must shed not-fresh rather than serve the freshest *live*
// version — which would regress below the session's floor.
func TestStrongReadHonorsSessionFloor(t *testing.T) {
	g := topology.Ring(5)
	field := demand.Uniform(5, 1, 10, randSource(29))
	// A slow anti-entropy cadence keeps the write's propagation window open
	// long enough for the kill to usually beat it.
	c := startCluster(t, g, field, WithSeed(30), WithSessionInterval(300*time.Millisecond))

	s := c.NewSession()
	s.Deadline = 300 * time.Millisecond
	rec, err := s.Write(1, "fl", []byte("floor"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.ReadLevel(0, "fl", LevelStrong)
	switch {
	case err != nil:
		// The only legal rejection: the serving replica cannot reach the
		// token's coverage while the origin is down.
		if !errors.Is(err, ErrNotFresh) {
			t.Fatalf("strong read failed outside the freshness contract: %v", err)
		}
	case !ok:
		t.Fatal("strong read missed the session's own write (read-your-writes violation)")
	default:
		// The write propagated before the kill: fine, but the served
		// version must be at or above the session floor.
		if v.Clock < rec.Clock || (v.Clock == rec.Clock && v.TS.Compare(rec.TS) < 0) {
			t.Fatalf("strong read served (clock %d, %v) below the floor (clock %d, %v)",
				v.Clock, v.TS, rec.Clock, rec.TS)
		}
	}
}

func TestSessionReadNilTokenIsEventual(t *testing.T) {
	g := topology.Ring(4)
	field := demand.Uniform(4, 1, 10, randSource(11))
	c := startCluster(t, g, field, WithSeed(12))

	opt := &LeveledRead{Level: LevelSession}
	if _, ok, err := c.ReadLeveled(1, "absent", opt); ok || err != nil {
		t.Fatalf("nil-token session read = (%t, %v), want plain miss", ok, err)
	}
}

func TestSessionSurvivesLostIncarnation(t *testing.T) {
	g := topology.Ring(5)
	field := demand.Uniform(5, 1, 10, randSource(13))
	c := startCluster(t, g, field, WithSeed(14), WithSessionInterval(10*time.Millisecond))

	s := c.NewSession()
	s.Deadline = time.Second
	if _, err := s.Write(0, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Crash the origin and bring it back from its peers' merged state. The
	// write may or may not have replicated — empty-state restart is genuine
	// state loss — but the reborn identity carries its own write head
	// forward, so the session token stays covered: the read must resolve
	// within its deadline either way, never hang on a position the new
	// incarnation will never re-issue.
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err := s.Read(0, "k")
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, ErrNotFresh) {
		t.Fatalf("post-restart session read: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("post-restart session read took %v", elapsed)
	}
}

func TestSessionWaitResolvesOnKill(t *testing.T) {
	g := topology.Ring(4)
	field := demand.Uniform(4, 1, 10, randSource(15))
	c := startCluster(t, g, field, WithSeed(16))

	var tok Token
	tok.ObserveWrite(vclock.Timestamp{Node: 1, Seq: 1 << 20})
	opt := &LeveledRead{Level: LevelSession, Token: &tok, Deadline: 400 * time.Millisecond}
	done := make(chan error, 1)
	go func() {
		_, _, err := c.ReadLeveled(2, "k", opt)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := c.Kill(2); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		// Deadline path on a dead replica: the typed death error, not a
		// freshness shed — the replica is gone, not merely stale.
		if err == nil {
			t.Fatal("read of a killed replica succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leveled read hung across replica death")
	}
}

// TestParkedSessionReadServesRestartedIncarnation: a session read parked on a
// replica that is killed and restarted wakes on the new incarnation's
// coverage, so it must read the new incarnation's store — the one it loaded
// before parking never held the write it waited for.
func TestParkedSessionReadServesRestartedIncarnation(t *testing.T) {
	c := startCluster(t, topology.Ring(4), demand.Static{4, 3, 2, 1}, WithSeed(33),
		WithSessionInterval(time.Hour), WithFastPush(false))
	if err := c.Kill(2); err != nil { // so the write below cannot reach it
		t.Fatal(err)
	}
	var tok Token
	if _, err := c.WriteToken(0, "k", []byte("v"), &tok); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartPreserving(2); err != nil { // alive again, still lacking it
		t.Fatal(err)
	}
	type served struct {
		v   store.Versioned
		ok  bool
		err error
	}
	done := make(chan served, 1)
	go func() {
		v, ok, err := c.ReadLeveled(2, "k", &LeveledRead{Level: LevelSession, Token: &tok, Deadline: 10 * time.Second})
		done <- served{v, ok, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); c.fresh.count.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the session read never parked")
		}
	}
	if err := c.Kill(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(2); err != nil { // bootstraps from its peers: holds the write now
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got.err != nil || !got.ok || string(got.v.Value) != "v" {
			t.Fatalf("read woken by the restart = %q, %v, %v; want the write it waited for", got.v.Value, got.ok, got.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked read never woke on the restarted replica's coverage")
	}
}

func TestWriteReceiptCarriesClock(t *testing.T) {
	g := topology.Ring(3)
	field := demand.Uniform(3, 1, 10, randSource(17))
	c := startCluster(t, g, field, WithSeed(18))

	rec, err := c.WriteToken(0, "k", []byte("v"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Clock == 0 {
		t.Error("receipt carries zero Lamport clock")
	}
	if rec.TS.Seq == 0 {
		t.Error("receipt carries zero sequence")
	}
}

func TestTokenCoveredProbe(t *testing.T) {
	g := topology.Ring(4)
	field := demand.Uniform(4, 1, 10, randSource(19))
	c := startCluster(t, g, field, WithSeed(20), WithSessionInterval(10*time.Millisecond))

	if !c.TokenCovered(1, nil) {
		t.Error("nil token must be covered by any live replica")
	}
	var tok Token
	if _, err := c.WriteToken(0, "k", []byte("v"), &tok); err != nil {
		t.Fatal(err)
	}
	if !c.TokenCovered(0, &tok) {
		t.Error("origin does not cover its own acked write")
	}
	waitClusterConverged(t, c)
	for id := NodeID(0); id < 4; id++ {
		if !c.TokenCovered(id, &tok) {
			t.Errorf("converged replica %v does not cover the token", id)
		}
	}
	if err := c.Kill(3); err != nil {
		t.Fatal(err)
	}
	if c.TokenCovered(3, &tok) {
		t.Error("dead replica claims coverage")
	}
	if c.TokenCovered(99, &tok) {
		t.Error("out-of-range replica claims coverage")
	}
}

// TestHandleRepublishesAppliedMarkOnlyOnAdvance: an inbound envelope that
// absorbs nothing (advert, offer) leaves the published watermark pointer —
// which every session token's covered-read cache pins — exactly where it
// was and allocates nothing; one that advances coverage republishes.
func TestHandleRepublishesAppliedMarkOnlyOnAdvance(t *testing.T) {
	// Never started: the test is the only caller of handle.
	c := New(topology.Ring(4), demand.Static{1, 2, 3, 4}, WithSeed(23))
	ts, err := c.Write(0, "k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	r := c.replicas[0]
	mark := r.applied.snap.Load()
	advert := protocol.Envelope{From: 1, To: 0, Msg: protocol.DemandAdvert{Demand: 9}}
	offer := protocol.Envelope{From: 1, To: 0, Msg: protocol.FastOffer{IDs: []vclock.Timestamp{ts}}}
	r.handle(advert)
	r.handle(offer)
	if got := r.applied.snap.Load(); got != mark {
		t.Fatal("an envelope that absorbed nothing republished the applied watermark")
	}
	if avg := testing.AllocsPerRun(200, func() { r.handle(advert) }); avg != 0 {
		t.Errorf("handling a demand advert allocates %v per run, want 0", avg)
	}
	gain := wlog.Entry{TS: vclock.Timestamp{Node: 1, Seq: 1}, Key: "x", Value: []byte("y"), Clock: 9}
	r.handle(protocol.Envelope{From: 1, To: 0, Msg: protocol.UpdateBatch{Entries: []wlog.Entry{gain}, Final: true}})
	if got := r.applied.snap.Load(); got == mark || !got.Covers(gain.TS) {
		t.Fatal("an envelope that advanced coverage did not republish the applied watermark")
	}
}

func TestCoveredSessionReadZeroAlloc(t *testing.T) {
	g := topology.Ring(4)
	field := demand.Uniform(4, 1, 10, randSource(21))
	c := startCluster(t, g, field, WithSeed(22), WithSessionInterval(10*time.Millisecond))

	var tok Token
	if _, err := c.WriteToken(0, "k", []byte("v"), &tok); err != nil {
		t.Fatal(err)
	}
	waitClusterConverged(t, c)
	opt := &LeveledRead{Level: LevelSession, Token: &tok}
	// Warm once: the merging probe grows the token to the replica's summary
	// width; after that the covered fast path must allocate nothing.
	if _, ok, err := c.ReadLeveled(1, "k", opt); err != nil || !ok {
		t.Fatalf("warm read = (%t, %v)", ok, err)
	}
	if avg := testing.AllocsPerRun(500, func() {
		if _, _, err := c.ReadLeveled(1, "k", opt); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("covered session read allocates %v per run, want 0", avg)
	}
	// The eventual leveled read stays allocation-free too.
	evOpt := &LeveledRead{Level: LevelEventual}
	if avg := testing.AllocsPerRun(500, func() {
		if _, _, err := c.ReadLeveled(1, "k", evOpt); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("eventual leveled read allocates %v per run, want 0", avg)
	}
}

func TestTokenCodecRoundTrip(t *testing.T) {
	var tok Token
	tok.ObserveWrite(vclock.Timestamp{Node: 0, Seq: 12})
	tok.ObserveWrite(vclock.Timestamp{Node: 3, Seq: 1})
	tok.ObserveWrite(vclock.Timestamp{Node: 700, Seq: 1 << 40})

	data, err := tok.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Token
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(&tok) {
		t.Fatalf("round trip: got %v, want %v", &back, &tok)
	}
	// Canonical: re-encoding is byte-identical.
	again, _ := back.MarshalBinary()
	if !bytes.Equal(again, data) {
		t.Error("re-encode differs from original encoding")
	}

	// Empty token round-trips too.
	var empty, emptyBack Token
	data, _ = empty.MarshalBinary()
	if err := emptyBack.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if emptyBack.Positions().Total() != 0 {
		t.Error("empty token decoded non-empty")
	}
}

func TestTokenCodecRejectsHostileInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"bad version":     {9, 0},
		"truncated count": {1},
		"huge count":      append([]byte{1}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1),
		"truncated pair":  {1, 1, 5},
		"zero seq":        {1, 1, 5, 0},
		"origin too big":  {1, 1, 0xff, 0xff, 0xff, 0xff, 0x7f, 1},
		"out of order":    {1, 2, 5, 1, 3, 1},
		"duplicate":       {1, 2, 5, 1, 5, 2},
		"trailing":        {1, 1, 5, 1, 99},
	}
	for name, data := range cases {
		var tok Token
		if err := tok.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: hostile encoding accepted", name)
		}
	}
}

func FuzzTokenCodec(f *testing.F) {
	var seedTok Token
	seedTok.ObserveWrite(vclock.Timestamp{Node: 0, Seq: 3})
	seedTok.ObserveWrite(vclock.Timestamp{Node: 2, Seq: 1})
	seed, _ := seedTok.MarshalBinary()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Add([]byte{1, 1, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tok Token
		if err := tok.UnmarshalBinary(data); err != nil {
			return // rejected is fine; panicking is not
		}
		// Accepted input must be the canonical encoding of its contents.
		out, err := tok.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted non-canonical encoding %x (re-encodes %x)", data, out)
		}
		var back Token
		if err := back.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if !back.Equal(&tok) {
			t.Fatal("round trip changed the token")
		}
	})
}
