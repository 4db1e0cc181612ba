package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// admissionCluster builds a client-plane cluster with the admission plane
// armed. Background anti-entropy is slowed so the write path dominates.
func admissionCluster(t *testing.T, n int, cfg AdmissionConfig) *Cluster {
	t.Helper()
	return startClientPlaneCluster(t, n, WithAdmission(cfg))
}

// stallLeader holds replica id's lock and parks the commit leader of one
// write on it, so every later write to the replica queues behind a leader
// that cannot drain. waitParked then blocks until n writes are parked;
// release frees the lock and waits for the stalled write to commit.
func stallLeader(t *testing.T, c *Cluster, id NodeID, key string) (waitParked func(n int), release func()) {
	t.Helper()
	r := c.replicas[id]
	r.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Picked up before the stall: commits fine once the lock frees.
		if _, err := c.Write(id, key, []byte("v")); err != nil {
			t.Errorf("stalled leader's write failed: %v", err)
		}
	}()
	var once sync.Once
	release = func() { once.Do(func() { r.mu.Unlock(); <-done }) }
	poll := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				release()
				t.Fatalf("%s", what)
			}
		}
	}
	poll("commit leader never installed", func() bool {
		r.wq.mu.Lock()
		defer r.wq.mu.Unlock()
		return r.wq.leader && len(r.wq.pending) == 0
	})
	waitParked = func(n int) {
		t.Helper()
		poll(fmt.Sprintf("never saw %d parked writes", n), func() bool { return r.wq.depth() == n })
	}
	return waitParked, release
}

func TestAdmissionConfigNormalized(t *testing.T) {
	got := AdmissionConfig{}.normalized()
	if got.MaxQueueDepth != 4096 || got.Target != 5*time.Millisecond || got.Interval != 100*time.Millisecond {
		t.Errorf("zero config normalised to %+v, want defaults", got)
	}
	if off := (AdmissionConfig{Target: -1}).normalized(); off.Target != 0 {
		t.Errorf("negative Target normalised to %v, want 0 (controller off)", off.Target)
	}
	if d := (AdmissionConfig{WriteDeadline: -time.Second}).normalized(); d.WriteDeadline != 0 {
		t.Errorf("negative WriteDeadline normalised to %v, want 0", d.WriteDeadline)
	}
}

// TestObserveLatchesAndExits walks the controller through the CoDel state
// machine by hand: sojourn above target must persist a full interval
// before shedding engages, and a single observation back under target
// exits the overloaded state immediately.
func TestObserveLatchesAndExits(t *testing.T) {
	a := &admission{cfg: AdmissionConfig{Target: time.Millisecond, Interval: 10 * time.Millisecond}.normalized()}
	base := time.Now().UnixNano()
	ms := int64(time.Millisecond)

	a.observe(base, 5*time.Millisecond)
	if a.overloaded.Load() {
		t.Fatal("one observation above target latched overload; a full interval is required")
	}
	a.observe(base+5*ms, 5*time.Millisecond)
	if a.overloaded.Load() {
		t.Fatal("half an interval above target latched overload")
	}
	a.observe(base+11*ms, 5*time.Millisecond)
	if !a.overloaded.Load() {
		t.Fatal("a full interval of sojourn above target did not latch overload")
	}
	if !a.shouldShed(base + 11*ms) {
		t.Fatal("overloaded controller did not shed at its scheduled drop time")
	}
	a.observe(base+12*ms, 100*time.Microsecond)
	if a.overloaded.Load() {
		t.Fatal("an observation back under target did not exit the overloaded state")
	}
	if a.shouldShed(base + 13*ms) {
		t.Fatal("controller shed after exiting the overloaded state")
	}
}

// TestShedScheduleTightens checks the CoDel control law: while the
// overload persists, the gap between scheduled sheds shrinks as
// interval/sqrt(drops).
func TestShedScheduleTightens(t *testing.T) {
	a := &admission{cfg: AdmissionConfig{Target: time.Millisecond, Interval: 10 * time.Millisecond}.normalized()}
	base := time.Now().UnixNano()
	a.observe(base, 5*time.Millisecond)
	a.observe(base+int64(a.cfg.Interval), 5*time.Millisecond)
	if !a.overloaded.Load() {
		t.Fatal("controller did not latch")
	}
	now := base + int64(a.cfg.Interval)
	var gaps []int64
	for i := 0; i < 4; i++ {
		next := a.dropNext.Load()
		if !a.shouldShed(next) {
			t.Fatalf("shed %d refused at its own scheduled time", i)
		}
		gaps = append(gaps, a.dropNext.Load()-next)
		now = a.dropNext.Load()
	}
	_ = now
	for i := 1; i < len(gaps); i++ {
		if gaps[i] >= gaps[i-1] {
			t.Fatalf("drop gaps %v do not tighten; want strictly decreasing", gaps)
		}
	}
}

func TestRetryAfterClamped(t *testing.T) {
	a := &admission{}
	if got := a.retryAfter(); got != time.Millisecond {
		t.Errorf("retryAfter with no observation = %v, want the 1ms floor", got)
	}
	a.lastSojourn.Store(int64(10 * time.Second))
	if got := a.retryAfter(); got != time.Second {
		t.Errorf("retryAfter with a 10s sojourn = %v, want the 1s cap", got)
	}
	a.lastSojourn.Store(int64(25 * time.Millisecond))
	if got := a.retryAfter(); got != 25*time.Millisecond {
		t.Errorf("retryAfter = %v, want the observed 25ms sojourn", got)
	}
}

// TestOverloadErrorSemantics pins how a hand-built Rejection matches the
// sentinels, bare and wrapped (the paths that produce real ones are
// TestRejectionTable's).
func TestOverloadErrorSemantics(t *testing.T) {
	err := error(&Rejection{Kind: KindOverload, Replica: 3, Reason: ShedSojourn, RetryAfter: 7 * time.Millisecond})
	wrapped := fmt.Errorf("write k: %w", err)
	if !errors.Is(err, ErrOverload) || !errors.Is(wrapped, ErrOverload) || errors.Is(err, ErrNotFresh) {
		t.Fatal("overload rejection does not match exactly ErrOverload under errors.Is")
	}
	var rej *Rejection
	if !errors.As(wrapped, &rej) || rej.RetryAfter != 7*time.Millisecond {
		t.Fatal("rejection lost its retry-after hint through errors.As")
	}
	gone := &Rejection{Kind: KindFailStop, Replica: 1, Reason: "disk-full", Cause: errors.New("no space")}
	if errors.Is(gone, ErrOverload) || errors.Is(gone, ErrNotFresh) {
		t.Error("fail-stop rejection matches a retry sentinel; clients would retry a dead replica")
	}
}

// TestAdmissionFastPathZeroAllocs pins the admission decision — the only
// cost unshedded traffic pays — at zero allocations: two atomic loads on
// the accept path, and the observe feedback is allocation-free too.
func TestAdmissionFastPathZeroAllocs(t *testing.T) {
	a := &admission{cfg: AdmissionConfig{}.normalized()}
	now := time.Now().UnixNano()
	if got := testing.AllocsPerRun(1000, func() {
		if a.shouldShed(now) {
			t.Fatal("healthy controller shed")
		}
		a.observe(now, 10*time.Microsecond)
	}); got != 0 {
		t.Errorf("admission fast path allocates %v objects per op, want 0", got)
	}
}

// TestQueueFullSheds drives the hard bound deterministically: the replica
// lock is held so the commit leader stalls mid-batch, writes park up to
// MaxQueueDepth, and the next arrival is shed with a queue-full rejection
// instead of parking unboundedly. Releasing the lock must then complete
// every parked write — a shed never blocks an admitted one.
func TestQueueFullSheds(t *testing.T) {
	const depth = 4
	c := admissionCluster(t, 3, AdmissionConfig{MaxQueueDepth: depth, Target: -1})
	waitParked, release := stallLeader(t, c, 0, "leader")
	defer release()
	var parked sync.WaitGroup
	for i := 0; i < depth; i++ {
		parked.Add(1)
		go func(i int) {
			defer parked.Done()
			if _, err := c.Write(0, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				t.Errorf("parked write %d failed: %v", i, err)
			}
		}(i)
	}
	waitParked(depth)

	_, err := c.Write(0, "overflow", []byte("v"))
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Reason != ShedQueueFull {
		t.Fatalf("write against a full queue returned %v, want a %s rejection", err, ShedQueueFull)
	}
	release()
	parked.Wait()

	h := c.Health(0)
	if h.Shed != 1 {
		t.Errorf("Health reports %d shed writes, want exactly the 1 overflow", h.Shed)
	}
}

// TestWriteDeadlineSheds parks writes past their deadline behind a
// stalled leader: on release, the leader must shed them with a deadline
// rejection before any reaches the node, while the in-flight batch that
// was already picked up commits normally.
func TestWriteDeadlineSheds(t *testing.T) {
	const deadline = 20 * time.Millisecond
	c := admissionCluster(t, 3, AdmissionConfig{Target: -1, WriteDeadline: deadline})
	waitParked, release := stallLeader(t, c, 0, "live")
	defer release()
	errs := make(chan error, 1)
	go func() {
		_, err := c.Write(0, "expired", []byte("v"))
		errs <- err
	}()
	waitParked(1)
	// Hold the stall past the parked write's deadline, then release.
	time.Sleep(2 * deadline)
	release()

	err := <-errs
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Reason != ShedDeadline {
		t.Fatalf("expired parked write returned %v, want a %s rejection", err, ShedDeadline)
	}
	if _, ok, _ := c.Read(0, "expired"); ok {
		t.Fatal("deadline-shed write is visible in the store — it reached the node despite the rejection")
	}
	if _, ok, _ := c.Read(0, "live"); !ok {
		t.Fatal("the in-flight write the stall delayed never committed")
	}
}

// TestShedHammer8Way hammers one replica from 8 goroutines with the
// controller pinned overloaded for the whole run: every write must either
// ack or return ErrOverload promptly — shed decisions under contention
// never wedge the queue, strand a writer, or block a committed batch's
// ack — and the totals must reconcile exactly. With -race this doubles as
// the data-race check on the controller's atomics against the write path.
func TestShedHammer8Way(t *testing.T) {
	c := admissionCluster(t, 3, AdmissionConfig{
		MaxQueueDepth: 8,
		Target:        time.Nanosecond, // any real sojourn is "above target"
		Interval:      time.Millisecond,
	})
	const workers, opsPer = 8, 300
	var acked, shed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				_, err := c.Write(0, fmt.Sprintf("w%d-%d", w, i), []byte("v"))
				switch {
				case err == nil:
					acked.Add(1)
				case errors.Is(err, ErrOverload):
					shed.Add(1)
				default:
					t.Errorf("write returned %v, want nil or ErrOverload", err)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("hammer wedged: writes neither acked nor shed")
	}
	if got := acked.Load() + shed.Load(); got != workers*opsPer {
		t.Fatalf("acked %d + shed %d = %d, want %d — writes vanished",
			acked.Load(), shed.Load(), got, workers*opsPer)
	}
	if acked.Load() == 0 {
		t.Error("every write shed; admitted traffic should still trickle through the drop schedule")
	}
	if shed.Load() == 0 {
		t.Error("nothing shed despite a controller pinned overloaded")
	}
	if want := c.replicas[0].adm.shedTotal(); int64(want) != shed.Load() {
		t.Errorf("replica counted %d sheds, clients observed %d", want, shed.Load())
	}
	// The replica must come out of the hammer fully serviceable.
	if _, err := c.Write(0, "after", []byte("v")); err != nil && !errors.Is(err, ErrOverload) {
		t.Fatalf("post-hammer write failed: %v", err)
	}
}

func TestFailStopReasonBuckets(t *testing.T) {
	if got := failStopReason(errors.New("write wal: input/output error")); got != "io-error" {
		t.Errorf("generic IO error bucketed as %q, want io-error", got)
	}
	if got := failStopReason(fmt.Errorf("append: %w", syscall.ENOSPC)); got != "disk-full" {
		t.Errorf("ENOSPC bucketed as %q, want disk-full", got)
	}
}
