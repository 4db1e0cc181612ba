package runtime

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/demand"
	"repro/internal/topology"
	"repro/internal/wal"
)

// durableCluster builds a small durable complete-graph cluster over dir.
func durableCluster(t *testing.T, n int, dir string, extra ...Option) *Cluster {
	t.Helper()
	opts := append([]Option{
		WithDurability(dir),
		WithSessionInterval(10 * time.Millisecond),
		WithAdvertInterval(5 * time.Millisecond),
		WithSeed(7),
	}, extra...)
	return New(topology.Complete(n), demand.Static{1, 1, 1}[:n], opts...)
}

func TestAckedWritesSurviveKillAndRestartFromDisk(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, 3, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	const writes = 64
	for i := 0; i < writes; i++ {
		if _, err := c.Write(0, fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Kill every replica: recovery can only come from replica 0's disk.
	for id := 0; id < 3; id++ {
		if err := c.Kill(NodeID(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RestartFromDisk(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("k%02d", i)
		v, ok, err := c.Read(0, key)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != fmt.Sprintf("v%02d", i) {
			t.Fatalf("acked write %s lost across crash: ok=%v v=%q", key, ok, v)
		}
	}
}

func TestRestartFromDiskRejoinsPropagation(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, 3, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	if _, err := c.Write(1, "before", []byte("x")); err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if !c.WaitConverged(wctx) {
		t.Fatal("did not converge before kill")
	}
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	// Writes replica 1 misses while down.
	ts, err := c.Write(0, "while-down", []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RestartFromDisk(1); err != nil {
		t.Fatal(err)
	}
	// The recovered replica still has its pre-crash converged state...
	if v, ok, err := c.Read(1, "before"); err != nil || !ok || string(v) != "x" {
		t.Fatalf("pre-crash state not recovered: %q %v %v", v, ok, err)
	}
	// ...and catches up on what it missed through normal anti-entropy, not
	// a full-state bootstrap.
	w := c.Watch(ts)
	select {
	case <-w.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("recovered replica did not catch up on missed writes")
	}
	if st := c.Stats(1); st.SnapshotsReceived != 0 {
		t.Fatalf("recovery fell back to a full-state transfer (%d snapshots)", st.SnapshotsReceived)
	}
}

func TestColdStartRecoversFromDisk(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	c := durableCluster(t, 2, dir)
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(0, "persistent", []byte("yes")); err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	if !c.WaitConverged(wctx) {
		t.Fatal("no convergence")
	}
	wcancel()
	c.Stop() // clean shutdown: WALs flushed and closed

	// A brand-new cluster over the same directory recovers at construction:
	// reads serve even before Start.
	c2 := durableCluster(t, 2, dir)
	defer c2.Stop()
	for id := 0; id < 2; id++ {
		v, ok, err := c2.Read(NodeID(id), "persistent")
		if err != nil || !ok || string(v) != "yes" {
			t.Fatalf("replica %d cold-start recovery: %q %v %v", id, v, ok, err)
		}
	}
}

func TestRestartFromDiskErrors(t *testing.T) {
	// Not durable.
	c := New(topology.Complete(2), demand.Static{1, 1})
	if err := c.RestartFromDisk(0); err == nil {
		t.Fatal("RestartFromDisk on a non-durable cluster succeeded")
	}
	// Durable but alive.
	dir := t.TempDir()
	cd := durableCluster(t, 2, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cd.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer cd.Stop()
	if err := cd.RestartFromDisk(0); err == nil {
		t.Fatal("RestartFromDisk on a live replica succeeded")
	}
	if err := cd.RestartFromDisk(9); err == nil {
		t.Fatal("RestartFromDisk on an unknown replica succeeded")
	}
}

func TestEmptyStateRestartWipesDisk(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, 3, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	if _, err := c.Write(0, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	conv := c.WaitConverged(wctx)
	wcancel()
	if !conv {
		t.Fatal("no convergence")
	}
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	// Empty-state restart is a real state loss: the old WAL is removed and
	// the peer-bootstrap image becomes the new disk baseline.
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Read(0, "k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("peer bootstrap did not restore content: %q %v %v", v, ok, err)
	}
	// The new baseline must survive a subsequent crash+disk recovery.
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartFromDisk(0); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Read(0, "k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("bootstrap baseline lost across crash: %q %v %v", v, ok, err)
	}
}

func TestDurableRestartPreservingBridgesDisk(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, 2, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	if _, err := c.Write(0, "kept", []byte("ram")); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartPreserving(0); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Read(0, "kept"); err != nil || !ok || string(v) != "ram" {
		t.Fatalf("preserved state missing: %q %v %v", v, ok, err)
	}
	// And the preserved state was re-journaled: crash again, recover from
	// disk alone.
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartFromDisk(0); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Read(0, "kept"); err != nil || !ok || string(v) != "ram" {
		t.Fatalf("preserved state not on disk: %q %v %v", v, ok, err)
	}
}

func TestSnapshotRolloverAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny geometry so the maintenance ticker rolls snapshots quickly.
	c := durableCluster(t, 2, dir, WithDurabilityTuning(wal.Options{
		SegmentBytes:  4 << 10,
		SnapshotBytes: 8 << 10,
	}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	val := make([]byte, 256)
	for i := 0; i < 200; i++ {
		if _, err := c.Write(0, fmt.Sprintf("key%03d", i%32), val); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for at least one maintenance pass to save a snapshot.
	deadline := time.Now().Add(5 * time.Second)
	snapPath := filepath.Join(walDir(dir, 0), "snapshot.wal")
	for {
		if _, err := os.Stat(snapPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("maintenance never saved a snapshot")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Crash and recover: snapshot + surviving segments must reproduce all
	// acked writes.
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartFromDisk(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, ok, err := c.Read(0, fmt.Sprintf("key%03d", i)); err != nil || !ok {
			t.Fatalf("key%03d lost across snapshot-compacted recovery (%v)", i, err)
		}
	}
}

func TestDurabilityOpenErrorSurfacesAtStart(t *testing.T) {
	// A file where the data dir should be makes wal.Open fail.
	base := t.TempDir()
	bad := filepath.Join(base, "data")
	if err := os.WriteFile(bad, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(topology.Complete(2), demand.Static{1, 1}, WithDurability(bad))
	if err := c.Start(context.Background()); err == nil {
		c.Stop()
		t.Fatal("Start succeeded over an unusable data dir")
	}
}

// TestRestartAliveDoesNotTouchDisk pins the guard order: restart paths
// must refuse an alive replica BEFORE any destructive disk work, so a
// lost race (or an operator slip) can never wipe a live replica's WAL.
func TestRestartAliveDoesNotTouchDisk(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, 2, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, err := c.Write(0, "precious", []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(0); err == nil {
		t.Fatal("Restart on an alive replica succeeded")
	}
	if err := c.RestartFromDisk(0); err == nil {
		t.Fatal("RestartFromDisk on an alive replica succeeded")
	}
	// The live replica's durable state must be fully intact: crash every
	// replica and recover 0 from disk alone.
	for id := 0; id < 2; id++ {
		if err := c.Kill(NodeID(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RestartFromDisk(0); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Read(0, "precious"); err != nil || !ok || string(v) != "state" {
		t.Fatalf("durable state damaged by refused restart: %q %v %v", v, ok, err)
	}
}

// TestSyncFailureFailStops pins the fail-stop contract: when a durable
// replica's WAL can no longer persist (simulated by abandoning it out of
// band — the moral equivalent of a dead disk), a write must fail, the
// replica must stop serving entirely, and the unsynced write must never
// reach a peer — so a later disk recovery cannot set up timestamp reuse.
func TestSyncFailureFailStops(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, 2, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	if _, err := c.Write(0, "good", []byte("synced")); err != nil {
		t.Fatal(err)
	}
	// The disk dies under replica 0.
	c.replicas[0].wal.Abandon()
	if _, err := c.Write(0, "doomed", []byte("never-durable")); err == nil {
		t.Fatal("write acked despite a failed WAL sync")
	}
	// Fail-stop: reads at the replica now fail, like a crash.
	if _, _, err := c.Read(0, "good"); err == nil {
		t.Fatal("fail-stopped replica still serves reads")
	}
	// The doomed write never escaped to the peer.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok, _ := c.Read(1, "doomed"); ok {
			t.Fatal("unsynced write leaked to a peer after a failed sync")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Disk recovery revives the identity from the synced prefix.
	if err := c.RestartFromDisk(0); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Read(0, "good"); err != nil || !ok || string(v) != "synced" {
		t.Fatalf("synced prefix not recovered: %q %v %v", v, ok, err)
	}
	if _, err := c.Write(0, "after", []byte("recovered")); err != nil {
		t.Fatalf("recovered replica rejects writes: %v", err)
	}
}

// A full lifecycle — Start, load, Kill, restart, Stop — leaves no goroutine
// behind: run loops (old and new incarnation), ack workers, WAL sync stages
// and promoted background committers all retire.
func TestLifecycleLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(t *testing.T) *Cluster
		restart func(c *Cluster) error
	}{
		{"memory",
			func(t *testing.T) *Cluster { return New(topology.Complete(3), demand.Static{1, 1, 1}, WithSeed(7)) },
			func(c *Cluster) error { return c.Restart(1) }},
		{"durable",
			func(t *testing.T) *Cluster { return durableCluster(t, 3, t.TempDir()) },
			func(c *Cluster) error { return c.RestartFromDisk(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := goruntime.NumGoroutine()
			c := tc.build(t)
			if err := c.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						if _, err := c.Write(0, fmt.Sprintf("w%d-k%02d", w, i), []byte("v")); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if err := c.Kill(1); err != nil {
				t.Fatal(err)
			}
			if err := tc.restart(c); err != nil {
				t.Fatal(err)
			}
			c.Stop()
			deadline := time.Now().Add(3 * time.Second)
			for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := goruntime.NumGoroutine(); n > before {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines before, %d after Stop:\n%s", before, n, buf[:goruntime.Stack(buf, true)])
			}
		})
	}
}
