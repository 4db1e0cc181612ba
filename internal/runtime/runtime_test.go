package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/demand"
	"repro/internal/policy"
	"repro/internal/topology"
	"repro/internal/transport"
)

func startCluster(t *testing.T, g *topology.Graph, field demand.Field, opts ...Option) *Cluster {
	t.Helper()
	c := New(g, field, opts...)
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func TestClusterConvergesSingleWrite(t *testing.T) {
	g := topology.Ring(8)
	field := demand.Uniform(8, 1, 10, randSource(1))
	c := startCluster(t, g, field, WithSeed(2))

	ts, err := c.Write(0, "greeting", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if !c.WaitConverged(ctx) {
		t.Fatal("cluster did not converge")
	}
	for id := NodeID(0); id < 8; id++ {
		if !c.Covers(id, ts) {
			t.Errorf("replica %v missing the write", id)
		}
		v, ok, err := c.Read(id, "greeting")
		if err != nil || !ok || string(v) != "hello" {
			t.Errorf("Read(%v) = (%q, %t, %v)", id, v, ok, err)
		}
	}
	// All stores identical.
	d0 := c.Digest(0)
	for id := NodeID(1); id < 8; id++ {
		if c.Digest(id) != d0 {
			t.Errorf("replica %v digest differs", id)
		}
	}
}

func TestClusterConcurrentWriters(t *testing.T) {
	g := topology.BarabasiAlbert(12, 2, randSource(3))
	field := demand.Uniform(12, 1, 50, randSource(4))
	c := startCluster(t, g, field, WithSeed(5))

	for i := 0; i < 12; i++ {
		if _, err := c.Write(NodeID(i), "key", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if !c.WaitConverged(ctx) {
		t.Fatal("cluster did not converge after concurrent writes")
	}
	// LWW must agree everywhere.
	d0 := c.Digest(0)
	for id := NodeID(1); id < 12; id++ {
		if c.Digest(id) != d0 {
			t.Fatalf("replica %v store diverged", id)
		}
	}
}

func TestWatchRecordsPropagationOrder(t *testing.T) {
	// Line with demand increasing toward node 4: fast push must deliver to
	// the high-demand end fast; the watch records every replica.
	g := topology.Line(5)
	field := demand.Static{1, 2, 3, 4, 5}
	c := startCluster(t, g, field, WithSeed(7),
		WithSessionInterval(40*time.Millisecond),
		WithAdvertInterval(5*time.Millisecond))

	// Give adverts a moment to populate tables.
	time.Sleep(30 * time.Millisecond)

	ts, err := c.Write(0, "k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	w := c.Watch(ts)
	select {
	case <-w.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("watch never completed")
	}
	times := w.Times()
	if len(times) != 5 {
		t.Fatalf("recorded %d replicas, want 5", len(times))
	}
	if d, _ := w.TimeOf(0); d > 5*time.Millisecond {
		t.Errorf("origin time = %v, want ~0 (recorded at watch creation)", d)
	}
	// The fast chain should beat a full session interval to the valley.
	if d := times[4]; d > 40*time.Millisecond {
		t.Logf("valley node took %v (> one session interval) — chain may have missed; times=%v", d, times)
	}
}

// TestAdvertPullCoversReplicaOffEveryChain: on a line with the demand peak at
// node 0, a write at node 3 chains toward the peak (3 -> 2 -> 1 -> 0) and no
// chain ever turns to node 4. With the session timer an hour away, node 4 is
// covered by the adverts alone: node 3's first advert after the write names
// it, node 4 — which no chain from that origin has ever reached — pulls at
// once and node 3 answers: one advert interval and three link delays.
func TestAdvertPullCoversReplicaOffEveryChain(t *testing.T) {
	const (
		advert = 25 * time.Millisecond
		link   = 2 * time.Millisecond
		slack  = 150 * time.Millisecond // scheduling, -race
	)
	c := startCluster(t, topology.Line(5), demand.Static{5, 4, 3, 2, 1}, WithSeed(7),
		WithNetwork(transport.MemoryConfig{Latency: link, Seed: 7}),
		WithSessionInterval(time.Hour),
		WithAdvertInterval(advert))

	ts, err := c.Write(3, "k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	w := c.Watch(ts)
	select {
	case <-w.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("write never reached every replica without a session; covered so far: %v", w.Times())
	}
	if d, _ := w.TimeOf(4); d > advert+3*link+slack {
		t.Errorf("far replica covered after %v, want within 1 advert interval + 3 link delays (%v) + %v",
			d, advert+3*link, slack)
	}
	far := c.Stats(4)
	if far.AdvertPulls == 0 || far.FastEntriesGained != 0 || far.EntriesAbsorbed != 1 {
		t.Errorf("far replica: %d advert pulls, %d of %d entries by fast update; want the entry pulled, not pushed",
			far.AdvertPulls, far.FastEntriesGained, far.EntriesAbsorbed)
	}
	for id := NodeID(0); id < 5; id++ {
		if s := c.Stats(id); s.SessionsInitiated != 0 || s.SnapshotsSent != 0 {
			t.Errorf("replica %v: %d sessions, %d snapshots; the timer session was an hour away", id, s.SessionsInitiated, s.SnapshotsSent)
		}
	}
}

func TestWatchExistingCoverage(t *testing.T) {
	g := topology.Line(2)
	c := startCluster(t, g, demand.Static{1, 1}, WithSeed(9))
	ts, err := c.Write(1, "k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	w := c.Watch(ts)
	// The writer itself must be recorded immediately.
	if _, ok := w.TimeOf(1); !ok {
		t.Error("watch missed pre-covered replica")
	}
}

func TestClusterStopIdempotent(t *testing.T) {
	g := topology.Line(3)
	c := New(g, demand.Static{1, 1, 1})
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	c.Stop() // second stop must not panic or hang
	if err := c.Start(context.Background()); err == nil {
		t.Error("restarting a started cluster should error")
	}
}

func TestClusterWriteBounds(t *testing.T) {
	g := topology.Line(2)
	c := startCluster(t, g, demand.Static{1, 1})
	if _, err := c.Write(99, "k", nil); err == nil {
		t.Error("Write to unknown replica should error")
	}
	if _, _, err := c.Read(99, "k"); err == nil {
		t.Error("Read from unknown replica should error")
	}
}

func TestClusterWithWeakPolicy(t *testing.T) {
	g := topology.Ring(6)
	field := demand.Uniform(6, 1, 10, randSource(11))
	c := startCluster(t, g, field,
		WithPolicy(policy.NewRandom), WithFastPush(false), WithSeed(13))
	ts, err := c.Write(2, "k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if !c.WaitConverged(ctx) {
		t.Fatal("weak-policy cluster did not converge")
	}
	for id := NodeID(0); id < 6; id++ {
		if !c.Covers(id, ts) {
			t.Errorf("replica %v missing write under weak policy", id)
		}
	}
	// No fast activity under weak config.
	for id := NodeID(0); id < 6; id++ {
		if st := c.Stats(id); st.FastOffersSent != 0 {
			t.Errorf("replica %v sent fast offers with FastPush off", id)
		}
	}
}

func TestClusterSurvivesMessageLoss(t *testing.T) {
	g := topology.Ring(6)
	field := demand.Uniform(6, 1, 10, randSource(17))
	c := startCluster(t, g, field, WithSeed(19),
		WithNetwork(transport.MemoryConfig{LossRate: 0.3, Seed: 23}),
		WithSessionInterval(15*time.Millisecond))
	ts, err := c.Write(0, "k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if !c.WaitConverged(ctx) {
		t.Fatal("cluster did not converge under 30% loss")
	}
	for id := NodeID(0); id < 6; id++ {
		if !c.Covers(id, ts) {
			t.Errorf("replica %v missing write despite anti-entropy", id)
		}
	}
}

// randSource is a tiny helper so tests read naturally.
func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// An origin that writes faster than its session interval keeps its fast
// path: on links that keep order, consecutive fast updates arrive in
// sequence, so they are absorbed instead of gap-dropped. (When two sends on
// one link could land out of order, one swapped pair cost every later write
// of that origin its fast update until a session healed the gap, and at this
// rate the next swap came before the session did.) The residue is chains cut
// short where a session delivered an entry first — the algorithm, not the
// link.
func TestFastPathSurvivesWritesFasterThanSessions(t *testing.T) {
	const writes = 2000
	// Origin 0's neighbours on the ring are 1 and 3; 3 has the top demand.
	c := startCluster(t, topology.Ring(4), demand.Static{1, 2, 3, 4}, WithSeed(11),
		WithNetwork(transport.MemoryConfig{Latency: 2 * time.Millisecond, Seed: 11}),
		WithSessionInterval(25*time.Millisecond),
		WithAdvertInterval(10*time.Millisecond))

	watches := make([]*Watch, 0, writes)
	value := make([]byte, 128)
	start := time.Now()
	for i := 0; i < writes; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * time.Millisecond)))
		ts, err := c.Write(0, fmt.Sprintf("k%02d", i%64), value)
		if err != nil {
			t.Fatal(err)
		}
		watches = append(watches, c.Watch(ts))
	}
	deadline := time.After(20 * time.Second)
	for i, w := range watches {
		select {
		case <-w.Done():
		case <-deadline:
			t.Fatalf("write %d never reached every replica", i)
		}
	}

	var gaps uint64
	for id := NodeID(0); id < 4; id++ {
		gaps += c.Stats(id).GapDrops
	}
	if gaps >= writes/4 {
		t.Errorf("%d fast entries gap-dropped over %d writes, want under a quarter", gaps, writes)
	}
	top := c.Stats(3)
	if 2*top.FastEntriesGained <= top.EntriesAbsorbed {
		t.Errorf("top-demand neighbour gained %d of its %d entries by fast update, want more than half",
			top.FastEntriesGained, top.EntriesAbsorbed)
	}
	t.Logf("gap drops %d/%d writes; top-demand neighbour: %d/%d absorbed by fast update",
		gaps, writes, top.FastEntriesGained, top.EntriesAbsorbed)
}
