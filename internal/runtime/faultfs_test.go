package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// These tests drive the live cluster against an injected vfs.FaultFS —
// the runtime-level half of the storage fault-injection plane. The
// wal-level crash-point checker proves recovery; these prove the
// degradation policy: fail-stop on dead disks (with the right metric
// reason), stall surfacing on slow ones, durable-before-visible throughout.

// replicaScope is the FaultFS scope string isolating one replica's WAL
// directory (walDir shapes paths as <base>/n<id>/...).
func replicaScope(id NodeID) string {
	return string(filepath.Separator) + fmt.Sprintf("n%d", id) + string(filepath.Separator)
}

// waitDead polls until replica id stops serving reads (fail-stop lands
// asynchronously from the maintenance path) or the deadline passes.
func waitDead(t *testing.T, c *Cluster, id NodeID, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if _, _, err := c.Read(id, "any"); err != nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("replica %v still serving %v after its disk died", id, d)
}

func TestDyingDiskFailStopsWithIOErrorReason(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 11)
	reg := obs.NewRegistry()
	c := durableCluster(t, 2, dir, WithDurabilityFS(ffs), WithObs(obs.NewClusterObs(reg, 2)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	if _, err := c.Write(0, "good", []byte("synced")); err != nil {
		t.Fatal(err)
	}
	ffs.FailSyncs(replicaScope(0))
	if _, err := c.Write(0, "doomed", []byte("x")); err == nil {
		t.Fatal("write acked despite a failed WAL sync")
	}
	if _, _, err := c.Read(0, "good"); err == nil {
		t.Fatal("fail-stopped replica still serves reads")
	}
	if got := reg.Total("repro_replica_failstop_total"); got != 1 {
		t.Fatalf("repro_replica_failstop_total = %v, want 1", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `reason="io-error"`) {
		t.Fatal("fail-stop not labelled reason=io-error")
	}

	// The disk is replaced; the identity revives from the synced prefix.
	ffs.Heal(replicaScope(0))
	if err := c.RestartFromDisk(0); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Read(0, "good"); err != nil || !ok || string(v) != "synced" {
		t.Fatalf("synced prefix not recovered: %q %v %v", v, ok, err)
	}
}

func TestDiskFullFailStopsWithDiskFullReason(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 12)
	reg := obs.NewRegistry()
	c := durableCluster(t, 2, dir, WithDurabilityFS(ffs), WithObs(obs.NewClusterObs(reg, 2)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	if _, err := c.Write(0, "fits", []byte("small")); err != nil {
		t.Fatal(err)
	}
	ffs.SetByteBudget(replicaScope(0), 64)
	// Pump writes until the budget runs out; the replica must fail-stop
	// rather than ack a write its disk never accepted.
	var failed bool
	for i := 0; i < 64 && !failed; i++ {
		_, err := c.Write(0, fmt.Sprintf("fill%02d", i), bytes.Repeat([]byte("z"), 64))
		failed = err != nil
	}
	if !failed {
		t.Fatal("no write failed despite an exhausted byte budget")
	}
	if _, _, err := c.Read(0, "fits"); err == nil {
		t.Fatal("fail-stopped replica still serves reads")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `reason="disk-full"`) {
		t.Fatal("fail-stop not labelled reason=disk-full")
	}
	// Space is freed; recovery serves everything synced before the ENOSPC.
	ffs.SetByteBudget(replicaScope(0), -1)
	if err := c.RestartFromDisk(0); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Read(0, "fits"); err != nil || !ok || string(v) != "small" {
		t.Fatalf("synced prefix not recovered: %q %v %v", v, ok, err)
	}
}

// TestMaintenanceSyncFailureFailStops pins the maintenance half of the
// degradation policy: a replica whose disk dies while it only LEARNS
// entries (no local client writes, so no batch-path sync) must still
// fail-stop when the periodic maintenance sync trips the sticky error —
// not linger half-alive until the next client write finds the corpse.
func TestMaintenanceSyncFailureFailStops(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 13)
	c := durableCluster(t, 2, dir, WithDurabilityFS(ffs))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	ffs.FailSyncs(replicaScope(1))
	// Write at replica 0; replica 1 learns the entry from propagation,
	// journals it, and its next maintenance sync hits the dead disk.
	if _, err := c.Write(0, "learned", []byte("elsewhere")); err != nil {
		t.Fatal(err)
	}
	waitDead(t, c, 1, 5*time.Second)

	// The acked write is untouched at its origin.
	if v, ok, err := c.Read(0, "learned"); err != nil || !ok || string(v) != "elsewhere" {
		t.Fatalf("origin lost an acked write: %q %v %v", v, ok, err)
	}
	// Heal + disk recovery: the replica re-learns what it lost via
	// anti-entropy.
	ffs.Heal(replicaScope(1))
	if err := c.RestartFromDisk(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok, _ := c.Read(1, "learned"); ok && string(v) == "elsewhere" {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("recovered replica never re-learned the entry")
}

// TestSlowDiskStallsSurfaceWithoutFailStop pins the degrade half: fsync
// latency slows acks but kills nothing, durable-before-visible holds, and
// the stall surfaces through repro_wal_sync_stall_seconds.
func TestSlowDiskStallsSurfaceWithoutFailStop(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 14)
	reg := obs.NewRegistry()
	c := durableCluster(t, 2, dir, WithDurabilityFS(ffs), WithObs(obs.NewClusterObs(reg, 2)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	ffs.SetSyncDelay(replicaScope(0), 30*time.Millisecond, 0, 0)
	start := time.Now()
	if _, err := c.Write(0, "slow", []byte("but-durable")); err != nil {
		t.Fatalf("slow disk killed the write: %v", err)
	}
	if took := time.Since(start); took < 30*time.Millisecond {
		t.Fatalf("ack returned in %v — before the fsync stall completed", took)
	}
	if v, ok, err := c.Read(0, "slow"); err != nil || !ok || string(v) != "but-durable" {
		t.Fatalf("write not visible after ack: %q %v %v", v, ok, err)
	}
	if got := reg.Total("repro_wal_sync_stall_seconds"); got < 0.03 {
		t.Fatalf("repro_wal_sync_stall_seconds = %v, want >= 0.03", got)
	}
	if got := reg.Total("repro_replica_failstop_total"); got != 0 {
		t.Fatalf("slow disk fail-stopped a replica (%v fail-stops)", got)
	}
}

// TestPowerCutLosesNoAckedWrite cuts power on a whole durable cluster at an
// arbitrary moment under load and proves every acked write survives disk
// recovery.
func TestPowerCutLosesNoAckedWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, 15)
	c := durableCluster(t, 2, dir, WithDurabilityFS(ffs))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	const writes = 200
	for i := 0; i < writes; i++ {
		if _, err := c.Write(0, fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Power cut: both replicas die instantly, then the unsynced suffix of
	// every WAL file evaporates.
	for id := 0; id < 2; id++ {
		if err := c.Kill(NodeID(id)); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Cut("")
	for id := 0; id < 2; id++ {
		if err := c.RestartFromDisk(NodeID(id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("k%03d", i)
		v, ok, err := c.Read(0, key)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("acked write %s lost to the power cut: ok=%v v=%q", key, ok, v)
		}
	}
}

// A replica revived from disk after a fail-stop starts with a clean bill of
// health: it serves, reports no fail reason, and a later administrative
// Kill reads as "killed", not as the long-healed disk fault.
func TestRestartFromDiskClearsFailStop(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.OS, 14)
	c := durableCluster(t, 2, t.TempDir(), WithDurabilityFS(ffs))
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	ffs.FailSyncs(replicaScope(0))
	var rej *Rejection
	if _, err := c.Write(0, "doomed", []byte("x")); !errors.As(err, &rej) || rej.Reason != "io-error" {
		t.Fatalf("write on a dead disk = %v, want an io-error fail-stop", err)
	}
	ffs.HealAll()
	waitDead(t, c, 0, 2*time.Second)
	if err := c.RestartFromDisk(0); err != nil {
		t.Fatal(err)
	}
	if h := c.Health(0); !h.Serving || h.FailReason != "" {
		t.Errorf("revived replica health = %+v, want serving with no fail reason", h)
	}
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(0, "k", []byte("v")); !errors.As(err, &rej) || rej.Reason != "killed" || rej.Cause != nil {
		t.Fatalf("write at a killed replica = %v, want a causeless killed rejection", err)
	}
}
